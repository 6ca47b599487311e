"""Bench: end-to-end noise headroom — modeled ledger vs measured budget.

The noise ledger (:mod:`repro.obs.noise`) exists so the *server* can
watch its own headroom without the secret key. This bench is its
acceptance harness: run a full PASTA transciphering circuit on the packed
BSGS evaluator (the report's one ``bsgs`` engine row) at both PASTA prime
widths (17- and 33-bit ω), then — holding ``sk`` on the harness side —
check the ledger's closed-form bound against the exact measured
invariant noise:

* **soundness**: modeled headroom <= measured headroom on every output
  ciphertext (the model may be pessimistic, never optimistic);
* **viability**: modeled headroom stays positive with margin at the end
  of the circuit — the worst path consumes at most ``NOISE_CEILING`` of
  the budget, gated absolutely via ``floor:worst.noise_ceiling``.

Results land in ``benchmarks/BENCH_noise_headroom.json`` (CI artifact,
gated by ``repro perfgate`` against ``benchmarks/baselines/``).
"""

import json
from pathlib import Path

from repro.fhe import BatchEncoder, Bfv, toy_parameters
from repro.hhe import BatchedHheServer, decrypt_batched_result, encrypt_key_batched
from repro.obs.noise import divergence_report
from repro.pasta import Pasta, PastaParams, random_key
from repro.ff.params import P17, P33

BENCH_JSON = Path(__file__).parent / "BENCH_noise_headroom.json"

N = 256
ENGINE = "bsgs"

#: Fraction of the total budget the deepest path may consume end-to-end.
#: The absolute floor gate: over this ceiling the circuit is one bad
#: parameter tweak away from decryption failure, however fast it runs.
NOISE_CEILING = 0.92

#: (omega, plain modulus, log2 q). The 33-bit prime squares the plain-mul
#: growth per level, so its modulus chain carries ~110 more bits for the
#: same 2-round circuit. NOT SECURE — sized for a seconds-scale run.
WIDTHS = ((17, P17, 330), (33, P33, 440))


def _pasta(omega: int, p: int) -> PastaParams:
    return PastaParams(name=f"pasta-noise-{omega}", t=2, rounds=2, p=p, secure=False)


def test_noise_headroom_sound_and_positive(capsys):
    report = {
        "n": N,
        "blocks": 1,
        "noise_ceiling": NOISE_CEILING,
        "prime_widths": {},
    }
    worst = {"engine": None, "omega": None, "noise_fraction": 0.0,
             "noise_ceiling": NOISE_CEILING}
    min_headroom = float("inf")

    for omega, p, log2_q in WIDTHS:
        pasta = _pasta(omega, p)
        params = toy_parameters(p, n=N, log2_q=log2_q)
        scheme = Bfv(params, seed=b"noise-bench")
        sk, pk, rlk = scheme.keygen()
        encoder = BatchEncoder(params.n, p)
        gk = scheme.rotation_keygen(
            sk, BatchedHheServer.required_rotation_steps(pasta, N)
        )
        key = random_key(pasta, seed=b"noise-bench")
        enc_key = encrypt_key_batched(scheme, pk, encoder, key)
        cipher = Pasta(pasta, key)
        message = [(7 * j + 3) % p for j in range(pasta.t)]
        block = [int(x) for x in cipher.encrypt_block(message, nonce=9, counter=0)]

        server = BatchedHheServer(pasta, scheme, rlk, encoder, enc_key, galois_keys=gk)
        result = server.transcipher_blocks([block], nonce=9, counters=[0])
        assert decrypt_batched_result(scheme, sk, encoder, result) == [message], (
            f"omega={omega}: wrong decryption"
        )

        model = scheme.noise_model
        estimate = model.merge(ct.noise for ct in result.ciphertexts)
        assert estimate is not None, f"omega={omega}: ledger lost provenance"
        modeled = model.headroom_bits(estimate)
        measured = min(scheme.noise_budget_bits(sk, ct) for ct in result.ciphertexts)
        assert modeled <= measured + 1e-9, (
            f"omega={omega}: model optimistic "
            f"({modeled:.2f} modeled > {measured:.2f} measured bits)"
        )
        assert modeled > 0, (
            f"omega={omega}: modeled headroom exhausted ({modeled:.2f} bits)"
        )
        diverge = divergence_report(scheme, sk, [(f"{ENGINE}-out", result.ciphertexts[0])])
        assert diverge.sound

        fraction = model.noise_fraction(estimate)
        report["prime_widths"][str(omega)] = {
            "log2_q": log2_q,
            "budget_bits": model.budget_bits,
            "engines": {
                ENGINE: {
                    "modeled_headroom_bits": round(modeled, 2),
                    "measured_headroom_bits": round(measured, 2),
                    "slack_bits": round(measured - modeled, 2),
                    "noise_fraction": round(fraction, 4),
                    "ops": estimate.ops,
                }
            },
        }
        min_headroom = min(min_headroom, modeled)
        if fraction > worst["noise_fraction"]:
            worst.update(engine=ENGINE, omega=omega, noise_fraction=round(fraction, 4))

    report["min_headroom_bits"] = round(min_headroom, 2)
    report["worst"] = worst
    BENCH_JSON.write_text(json.dumps(report, indent=2) + "\n")

    with capsys.disabled():
        print()
        print(f"noise headroom, modeled vs measured (N={N}, t=2, 2 rounds):")
        for omega, width in report["prime_widths"].items():
            print(f"  omega={omega} (log2 q = {width['log2_q']}):")
            for engine, row in width["engines"].items():
                print(
                    f"    {engine:7s} modeled {row['modeled_headroom_bits']:7.2f}  "
                    f"measured {row['measured_headroom_bits']:7.2f}  "
                    f"slack {row['slack_bits']:6.2f} bits  "
                    f"({row['noise_fraction']:.0%} of budget)"
                )
        print(
            f"  worst: {worst['engine']} @ omega={worst['omega']} uses "
            f"{worst['noise_fraction']:.1%} of budget (ceiling {NOISE_CEILING:.0%})"
        )
        print(f"  -> {BENCH_JSON.name}")

    assert worst["noise_fraction"] < NOISE_CEILING, (
        f"worst path ({worst['engine']} @ omega={worst['omega']}) consumes "
        f"{worst['noise_fraction']:.1%} of the noise budget; ceiling is "
        f"{NOISE_CEILING:.0%}"
    )
