"""HHE workflow cost (paper Figs. 1-2): transciphering ops + communication.

Quantifies the two sides of the HHE bargain the paper's introduction sets
up: the client's ciphertext is barely larger than the plaintext (vs
~10,000x for direct FHE encryption), while the server pays a one-off
homomorphic decryption. The published instances report the textbook
circuit (one ciphertext per state element) in closed form; the executed
row reports the packed evaluator's measured counts per packed group at
reduced parameters.
"""

from __future__ import annotations

from repro.errors import NoiseBudgetExhausted
from repro.eval.result import ExperimentResult
from repro.hhe.batched import transcipher_parameters
from repro.hhe.protocol import HheClient
from repro.pasta.decrypt_circuit import multiplicative_depth
from repro.pasta.params import PASTA_3, PASTA_4, PASTA_MICRO, PastaParams


def symmetric_expansion(params: PastaParams) -> float:
    """HHE ciphertext bytes per plaintext byte (elements carry 2 pixels)."""
    plain_bits = 16.0  # two 8-bit pixels per element at w=17
    return params.modulus_bits / plain_bits


def fhe_expansion_rise() -> float:
    """RISE's FHE expansion: 1.5 MB ciphertext for 2^14 bytes of pixels."""
    return 1.5e6 / float(1 << 14)


def generate(run_transcipher: bool = True, **_kwargs) -> ExperimentResult:
    rows = []
    notes = []

    for params in (PASTA_3, PASTA_4):
        rows.append(
            [
                params.name,
                params.t,
                multiplicative_depth(params),
                params.affine_layers * 2 * params.t * params.t,  # plain muls
                (params.rounds - 1) * (2 * params.t - 1) + 2 * 2 * params.t,  # ct muls
                0,  # one ciphertext per element: no slot rotation
                round(symmetric_expansion(params), 2),
            ]
        )
    notes.append(
        f"Direct FHE encryption (RISE parameters) expands data "
        f"{fhe_expansion_rise():.0f}x; PASTA's symmetric ciphertext only "
        f"{symmetric_expansion(PASTA_4):.2f}x — the communication advantage "
        "motivating HHE (paper Sec. I)."
    )
    notes.append(
        "PASTA-3/-4 rows: the textbook circuit, one BFV ciphertext per state "
        "element, t^2 plain muls per affine layer side. The packed evaluator "
        "(repro.hhe.batched) carries the whole state of up to (N/2)/t blocks "
        "in one ciphertext, at O(t) plain muls and O(t^(1/3)) giant-step key "
        "switches per layer for the whole group (homomorphic_op_counts)."
    )

    if run_transcipher:
        # The shortest chain the noise model admits at N = 256: the
        # streaming service's hhe-mode parameters.
        bfv = transcipher_parameters(PASTA_MICRO, 256)
        client = HheClient(PASTA_MICRO, bfv)
        messages = [[101, 2024], [7, 65000]]
        blocks = [
            [int(c) for c in client.cipher.encrypt_block(m, nonce=3, counter=k)]
            for k, m in enumerate(messages)
        ]
        server = client.server()
        result = server.transcipher_blocks(blocks, nonce=3, counters=[0, 1])
        decrypted = client.decrypt_result(result)
        if decrypted != messages:
            raise NoiseBudgetExhausted(
                f"executed transcipher decrypted {decrypted}, not {messages}"
            )
        ops = result.ops
        budget = min(client.noise_budget_bits(ct) for ct in result.ciphertexts)
        rows.append(
            [
                f"{PASTA_MICRO.name} (executed)",
                PASTA_MICRO.t,
                multiplicative_depth(PASTA_MICRO),
                ops.plain_muls,
                ops.squares + ops.muls,
                ops.rotations,
                round(symmetric_expansion(PASTA_MICRO), 2),
            ]
        )
        notes.append(
            f"Executed end-to-end at reduced size (t={PASTA_MICRO.t}, N={bfv.n}, "
            f"{bfv.levels} limbs, log2 q={bfv.q.bit_length()}, the shortest chain the "
            f"noise model admits): {len(messages)} blocks in one packed group "
            f"decrypted exactly with {budget:.0f} bits of noise budget left "
            f"({ops.keyswitches} key switches: {ops.relins} relinearizations, "
            f"{ops.keyswitches - ops.relins - ops.decompositions} rotations not "
            f"hoisted and {ops.decompositions} hoisted decomposition(s)), on RNS "
            f"levels {server.levels} limbs per stage "
            "(layer 0, then each S-box and affine layer; the result is raised "
            "back to the full chain) — see the hhe_frame workload of "
            "bench/run.py for the packed server's cold blocks/s."
        )

    return ExperimentResult(
        experiment_id="HHE cost",
        title="Homomorphic decryption cost and ciphertext expansion",
        headers=[
            "Instance", "t", "Mult depth", "Plain muls", "Ct muls", "Rotations", "Expansion",
        ],
        rows=rows,
        notes=notes,
    )
