#!/usr/bin/env python3
"""Privacy-preserving ML inference over HHE — the paper's motivating app.

A client holds a private feature vector; the cloud holds a (public-weight)
linear scoring model. With HHE the client ships only a tiny symmetric
ciphertext; the server transciphers it with the packed evaluator into one
BFV ciphertext and scores it homomorphically — one plaintext multiply by
the weight row, a rotate-and-sum over the features, one bias add — so
neither the features nor the PASTA key ever reach the server in the clear.

Run: ``python examples/ml_inference.py [--toy]``   (under a second each,
reduced parameters)
"""

import functools
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.apps.ml_inference import LinearModel, run_inference, score_noise
from repro.hhe import HheClient, transcipher_parameters
from repro.pasta import PASTA_MICRO, PASTA_TOY


def main() -> None:
    if "--toy" in sys.argv:  # t = 4 features, 3 rounds, N = 1024
        pasta_params, n = PASTA_TOY, 1024
        model = LinearModel(weights=[3, 25, 7, 11], bias=500)
        features = [42, 7, 120, 3]
    else:  # t = 2 features, N = 256
        pasta_params, n = PASTA_MICRO, 256
        model = LinearModel(weights=[3, 25], bias=500)
        features = [42, 7]  # the client's private data
    # The shortest chain whose modeled headroom covers the transcipher AND
    # the score above the decryption floor (13 limbs for --toy, 9
    # otherwise); the server refuses a score the model does not cover.
    after = functools.partial(score_noise, t=pasta_params.t)
    client = HheClient(pasta_params, transcipher_parameters(pasta_params, n, after=after))

    print(f"PASTA instance : {pasta_params} (reduced; NOT secure)")
    print(f"model          : score = <{list(model.weights)}, x> + {model.bias} (mod {pasta_params.p})")
    print(f"features       : {features} (never leave the client unencrypted)")

    sym_ct = client.cipher.encrypt_block(features, nonce=0, counter=0)
    print(f"\n[client] symmetric ciphertext ({len(features)} elements, "
          f"~{len(features) * 3} B): {[int(c) for c in sym_ct]}")

    t0 = time.perf_counter()
    score = run_inference(client, model, features, nonce=0)
    dt = time.perf_counter() - t0

    expected = model.evaluate_plain(features, pasta_params.p)
    print(f"\n[server] transciphered + scored homomorphically in {dt:.2f} s")
    print(f"[client] decrypted score : {score}")
    print(f"         plaintext check : {expected}  -> {'MATCH' if score == expected else 'MISMATCH'}")
    print("\nThe server computed the score without ever seeing features, key, or result.")


if __name__ == "__main__":
    main()
