#!/usr/bin/env python3
"""The full HHE workflow of paper Fig. 1, executed end to end.

Roles and flow::

    CLIENT (edge)                          SERVER (cloud)
    -------------                          --------------
    FHE keygen (BFV)
    PASTA key K  --Enc_FHE(K)------------> stores encrypted key   (once)
    c = m + PASTA-keystream  --c---------> homomorphic PASTA decryption
                                           = Enc_FHE(m)  (transciphering)
                 <-------Enc_FHE(f(m))---- homomorphic processing
    FHE decrypt -> f(m)

The server is the packed evaluator (``BatchedHheServer``): one BFV
ciphertext carries the whole PASTA state of every block of a packed group.
By default this runs the *micro* instance (t = 2, N = 256); pass ``--toy``
for the larger toy instance (t = 4, 3 rounds, N = 1024). Both run in well
under a second — the structure is the same as full PASTA, only the block
size and the ring are reduced (see DESIGN.md, substitution table).

Run: ``python examples/hhe_end_to_end.py [--toy]``
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.hhe import HheClient, transcipher_parameters
from repro.pasta import PASTA_MICRO, PASTA_TOY


def main() -> None:
    pasta_params, n = (PASTA_TOY, 1024) if "--toy" in sys.argv else (PASTA_MICRO, 256)
    # The shortest prime chain whose modeled headroom covers the circuit
    # above the decryption floor (12 limbs for --toy, 8 otherwise); the
    # server refuses, before evaluating, a circuit the model does not cover.
    bfv_params = transcipher_parameters(pasta_params, n)

    print(f"PASTA instance : {pasta_params} (reduced size; NOT secure — demo only)")
    print(f"BFV parameters : N={bfv_params.n}, {bfv_params.levels} limbs, "
          f"log2 q={bfv_params.q.bit_length()}, "
          f"p={bfv_params.p}, fresh ciphertext = {bfv_params.ciphertext_bytes / 1024:.0f} KiB")

    # --- client setup: FHE keys + PASTA key, uploaded once ------------------
    t0 = time.perf_counter()
    client = HheClient(pasta_params, bfv_params)
    server = client.server()
    print(f"\n[client] keygen + key upload: {time.perf_counter() - t0:.1f} s "
          f"({pasta_params.key_size} packed, pre-rotated BFV ciphertexts sent once)")

    # --- client: cheap symmetric encryption of 3 whole blocks ---------------
    t = pasta_params.t
    message = [11, 65000, 3333, 4, 500, 6789, 42, 1, 9, 60000, 77, 0][: 3 * t]
    nonce = 99
    sym_ct = [int(c) for c in client.encrypt(message, nonce)]
    bytes_sent = len(message) * ((pasta_params.modulus_bits + 7) // 8)
    print(f"[client] symmetric ciphertext: {sym_ct} "
          f"(~{bytes_sent} B — no FHE expansion)")

    # --- server: homomorphic HHE decryption (transciphering) ----------------
    blocks = [sym_ct[start : start + t] for start in range(0, len(sym_ct), t)]
    t0 = time.perf_counter()
    result = server.transcipher_blocks(blocks, nonce, counters=list(range(len(blocks))))
    dt = time.perf_counter() - t0
    ops = result.ops
    print(f"\n[server] transciphered {len(blocks)} blocks in {dt:.2f} s "
          f"({len(result.ciphertexts)} packed ciphertext)")
    print(f"[server] homomorphic ops: {ops.plain_muls} plain muls, {ops.rotations} rotations, "
          f"{ops.squares} squares, {ops.muls} ct-ct muls, {ops.relins} relinearizations")

    # --- client: verify by decrypting the FHE result ------------------------
    recovered = [m for block in client.decrypt_result(result) for m in block]
    budgets = [client.noise_budget_bits(ct) for ct in result.ciphertexts]
    print(f"\n[client] FHE-decrypted message: {recovered}")
    print(f"[client] noise budget remaining: {min(budgets):.1f} bits")
    assert recovered == [m % pasta_params.p for m in message]
    print("\nEnd-to-end HHE workflow verified: the server computed FHE "
          "ciphertexts of the plaintext without ever seeing the key or message.")


if __name__ == "__main__":
    main()
