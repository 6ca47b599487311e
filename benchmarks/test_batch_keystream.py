"""Bench: batched keystream engine vs the scalar reference (Sec. IV-B).

The acceptance bar for the batch engine is >= 5x blocks/s over the scalar
path at batch 64 for PASTA-3 (t = 128, omega = 17), measured cold (the
keystream path never reuses derived blocks) and bit-exact row-for-row. The
measured ratio is printed so the bench log records the actual speedup.
"""

import time

import pytest

from repro.pasta import PASTA_3, KeystreamEngine, Pasta, random_key

BATCH = 64
SPEEDUP_FLOOR = 5.0
#: Scalar blocks actually timed; the per-block cost is flat in the block
#: index, so a short sample keeps the bench fast (~150 ms/block).
SCALAR_SAMPLE_BLOCKS = 2


@pytest.fixture(scope="module")
def pasta3():
    return Pasta(PASTA_3, random_key(PASTA_3))


def _scalar_us_per_block(cipher: Pasta, nonce: int) -> float:
    start = time.perf_counter()
    for counter in range(SCALAR_SAMPLE_BLOCKS):
        cipher.keystream_block(nonce, counter)
    return (time.perf_counter() - start) / SCALAR_SAMPLE_BLOCKS * 1e6


def test_batch_keystream_speedup(pasta3, capsys):
    nonce = 42
    scalar_us = _scalar_us_per_block(pasta3, nonce)

    engine = KeystreamEngine(PASTA_3, cache_size=0)  # cold: no LRU assists
    start = time.perf_counter()
    ks = engine.keystream_blocks(pasta3.key, nonce, 0, BATCH)
    batched_us = (time.perf_counter() - start) / BATCH * 1e6

    # Bit-exactness first — a fast wrong keystream is worthless. The scalar
    # sample blocks were derived independently above; spot-check them plus
    # the last row.
    for counter in (0, 1, BATCH - 1):
        expected = pasta3.keystream_block(nonce, counter)
        assert [int(x) for x in ks[counter]] == [int(x) for x in expected]

    speedup = scalar_us / batched_us
    with capsys.disabled():
        print()
        print(f"PASTA-3 keystream, batch {BATCH}:")
        print(f"  scalar   {scalar_us:10.1f} us/block")
        print(f"  batched  {batched_us:10.1f} us/block  ({speedup:.1f}x)")
    assert speedup >= SPEEDUP_FLOOR, (
        f"batched engine only {speedup:.2f}x over scalar "
        f"({batched_us:.0f} vs {scalar_us:.0f} us/block); floor is {SPEEDUP_FLOOR}x"
    )

