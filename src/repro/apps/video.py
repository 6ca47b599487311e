"""Video-frame encryption application benchmark (paper Sec. V / Fig. 8).

A surveillance camera streams grayscale frames to a cloud processor over a
mid-band 5G uplink (12.5-112.5 MB/s). Two client designs are compared:

* **RISE** [19]: FHE public-key encryption; one 1.5 MB ciphertext
  (N = 2^14, log Q = 390) holds one QQVGA frame, a QVGA frame needs three
  ciphertexts, a VGA frame twelve; encryption takes 20 ms per ciphertext.
* **This work (TW)**: PASTA symmetric encryption; a block of t = 32
  elements carries 64 pixels (2 per element at 17 bits) and serializes to
  t * 17 bits = 68 B (the paper quotes 132 B for its 33-bit
  (N = 2^5, log q0 = 33) setting — both variants are modeled).

Achievable frames/s is the minimum of the link limit (bandwidth / bytes
per encrypted frame) and the compute limit (1 / encryption time per
frame). The figure's qualitative claims — orders-of-magnitude more frames
for TW, RISE unable to stream VGA at the minimum bandwidth — fall out of
these constants; see EXPERIMENTS.md for the quantitative comparison.

The module also runs a *functional* pipeline (synthetic frame -> pack ->
encrypt -> decrypt -> unpack) so the link-budget numbers are backed by
working code, not just arithmetic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.apps.packing import pack_pixels, pixels_per_element, unpack_pixels
from repro.errors import NonceReuseError, ParameterError
from repro.keccak.shake import SHAKE128_RATE_BYTES, shake128
from repro.keccak.vectorized import batched_shake128
from repro.obs import get_registry
from repro.pasta.cipher import Pasta
from repro.pasta.params import PASTA_4, PastaParams


@dataclass(frozen=True)
class Resolution:
    """A video resolution (grayscale, 8 bits/pixel)."""

    name: str
    width: int
    height: int

    @property
    def pixels(self) -> int:
        return self.width * self.height

    @property
    def raw_bytes(self) -> int:
        return self.pixels  # 8-bit grayscale


QQVGA = Resolution("QQVGA", 160, 120)
QVGA = Resolution("QVGA", 320, 240)
VGA = Resolution("VGA", 640, 480)
RESOLUTIONS = (QQVGA, QVGA, VGA)

#: Mid-band 5G bandwidths of Sec. V, in bytes/second.
MAX_BANDWIDTH_BPS = 112.5e6
MIN_BANDWIDTH_BPS = 12.5e6


@dataclass(frozen=True)
class LinkDesign:
    """A client encryption design's link-budget model."""

    name: str
    ciphertext_bytes: float  #: serialized size of one encryption unit
    pixels_per_ciphertext_map: Optional[Dict[str, int]]  #: fixed per-resolution units, or None
    pixels_per_ciphertext: float  #: payload pixels per unit (used when map is None)
    encrypt_us_per_ciphertext: float

    def ciphertexts_per_frame(self, resolution: Resolution) -> int:
        if self.pixels_per_ciphertext_map is not None:
            if resolution.name not in self.pixels_per_ciphertext_map:
                raise ParameterError(f"no ciphertext count for {resolution.name}")
            return self.pixels_per_ciphertext_map[resolution.name]
        return -(-resolution.pixels // int(self.pixels_per_ciphertext))

    def frame_bytes(self, resolution: Resolution) -> float:
        return self.ciphertexts_per_frame(resolution) * self.ciphertext_bytes

    def encrypt_us_per_frame(self, resolution: Resolution) -> float:
        return self.ciphertexts_per_frame(resolution) * self.encrypt_us_per_ciphertext

    def expansion_factor(self, resolution: Resolution) -> float:
        return self.frame_bytes(resolution) / resolution.raw_bytes

    def link_fps(self, resolution: Resolution, bandwidth_bps: float) -> float:
        """Frames *transferred* per second — the Fig. 8 metric (link-limited)."""
        return bandwidth_bps / self.frame_bytes(resolution)

    def compute_fps(self, resolution: Resolution) -> float:
        """Frames *encrypted* per second (client compute limit)."""
        return 1e6 / self.encrypt_us_per_frame(resolution)

    def frames_per_second(self, resolution: Resolution, bandwidth_bps: float) -> float:
        """End-to-end sustainable rate: min(link, compute)."""
        return min(self.link_fps(resolution, bandwidth_bps), self.compute_fps(resolution))


def rise_design() -> LinkDesign:
    """RISE [19]: 1.5 MB ciphertexts; fixed frame->ciphertext counts (Sec. V)."""
    return LinkDesign(
        name="RISE [19]",
        ciphertext_bytes=1.5e6,
        pixels_per_ciphertext_map={"QQVGA": 1, "QVGA": 3, "VGA": 12},
        pixels_per_ciphertext=0,
        encrypt_us_per_ciphertext=20_000.0,
    )


def this_work_design(
    params: PastaParams = PASTA_4,
    encrypt_us_per_block: float = 15.9,
    ct_bits_per_element: Optional[int] = None,
) -> LinkDesign:
    """This work's link model, derived from the cipher parameters.

    ``encrypt_us_per_block`` defaults to the RISC-V SoC figure; pass the
    measured value from the behavioral model for the reproduced rows.
    ``ct_bits_per_element`` overrides the serialized element width (the
    paper quotes 33 bits; the 17-bit modulus itself needs only 17).
    """
    bits = ct_bits_per_element or params.modulus_bits
    per_element = pixels_per_element(params.p)
    return LinkDesign(
        name=f"TW ({params.name}, {bits}b)",
        ciphertext_bytes=params.t * bits / 8.0,
        pixels_per_ciphertext_map=None,
        pixels_per_ciphertext=params.t * per_element,
        encrypt_us_per_ciphertext=encrypt_us_per_block,
    )


def transcipher_blocks_per_frame(
    resolution: Resolution, params: PastaParams = PASTA_4
) -> int:
    """PASTA blocks the *server* must transcipher per received frame.

    With BFV slot batching the server evaluates one decryption circuit per
    ``N`` blocks (slots), so dividing this by the ring degree gives circuit
    evaluations per frame; the per-block wall-clock comes from the RNS
    engine throughput benchmark (benchmarks/test_transcipher_throughput.py).
    """
    per_element = pixels_per_element(params.p)
    elements = -(-resolution.pixels // per_element)
    return -(-elements // params.t)


# -- nonce management -----------------------------------------------------------

#: Largest nonce the PASTA block-seed encoding can carry (64-bit field in
#: :func:`repro.pasta.xof.encode_block_seed`).
MAX_NONCE = 2**64 - 1

#: Fraction of the configured nonce range consumed before the sequence
#: raises an early warning through the flight recorder — far enough from
#: exhaustion to rotate the key, close enough to mean it.
NONCE_WARNING_FRACTION = 0.9


class NonceSequence:
    """Thread-safe monotonic nonce allocator for a streaming sender.

    PASTA keystream is a pure function of (key, nonce, counter): re-using a
    nonce for two different frames XOR-equivalently leaks their difference.
    Frame producers therefore never pick nonces by hand — they draw from a
    sequence that only moves forward. Exhausting the 64-bit space (or an
    explicitly configured sub-range) raises :class:`NonceReuseError`
    instead of wrapping around, and there is deliberately no ``reset()``:
    a new key gets a new sequence object.
    """

    def __init__(self, start: int = 0, limit: int = MAX_NONCE):
        if not 0 <= start <= limit <= MAX_NONCE:
            raise ParameterError(
                f"nonce range [{start}, {limit}] not within [0, {MAX_NONCE}]"
            )
        self._lock = threading.Lock()
        self._start = start
        self._next = start
        self._limit = limit
        self._issued = 0
        self._capacity = limit - start + 1
        self._warned = False

    def next(self) -> int:
        """Issue the next unused nonce; raise on exhaustion, never wrap."""
        with self._lock:
            if self._next > self._limit:
                raise NonceReuseError(
                    f"nonce space exhausted at {self._limit}: issuing another "
                    "nonce would wrap around and repeat keystream"
                )
            value = self._next
            self._next += 1
            self._issued += 1
            warn = (
                not self._warned
                and self._issued / self._capacity >= NONCE_WARNING_FRACTION
            )
            if warn:
                self._warned = True
            issued, remaining = self._issued, self._limit - self._next + 1
        # Outside the lock: the recorder and registry take their own locks,
        # and a key rotation must not wait on telemetry.
        if warn:
            from repro.obs import get_flight_recorder, get_registry

            get_registry().gauge(
                "pasta.nonce.remaining",
                help="nonces left before this sequence refuses to issue",
            ).set(remaining)
            get_flight_recorder().record(
                "nonce_near_exhaustion",
                issued=issued,
                remaining=remaining,
                capacity=self._capacity,
            )
        return value

    @property
    def issued(self) -> int:
        """How many nonces this sequence has handed out."""
        with self._lock:
            return self._issued

    @property
    def remaining(self) -> int:
        with self._lock:
            return self._limit - self._next + 1


# -- functional pipeline --------------------------------------------------------


def synthetic_frame(resolution: Resolution, seed: int = 0) -> List[int]:
    """Deterministic pseudo-random grayscale frame (SHAKE-derived)."""
    stream = shake128(b"frame|" + seed.to_bytes(8, "big") + resolution.name.encode())
    return list(stream.read(resolution.pixels))


def synthetic_frames_batch(resolution: Resolution, seeds: Sequence[int]) -> np.ndarray:
    """Many synthetic frames in one vectorized SHAKE pass.

    Returns a ``(len(seeds), resolution.pixels)`` uint8 array whose row i
    is bit-exact with ``synthetic_frame(resolution, seeds[i])`` — the
    batched sponge squeezes little-endian lane bytes, the same stream the
    scalar :class:`~repro.keccak.shake.Shake` reads.
    """
    if len(seeds) == 0:
        return np.zeros((0, resolution.pixels), dtype=np.uint8)
    suffix = resolution.name.encode()
    n_blocks = -(-resolution.pixels // SHAKE128_RATE_BYTES)
    shake = batched_shake128(
        [b"frame|" + int(seed).to_bytes(8, "big") + suffix for seed in seeds], n_blocks
    )
    chunks = [
        shake.squeeze_words_block().view(np.uint8).reshape(len(seeds), -1)
        for _ in range(n_blocks)
    ]
    return np.concatenate(chunks, axis=1)[:, : resolution.pixels]


@dataclass
class FrameRunResult:
    """Outcome of encrypting one frame through the real cipher."""

    resolution: Resolution
    n_elements: int
    n_blocks: int
    ciphertext_bytes: int
    ok_roundtrip: bool
    nonce: int = 0  #: the nonce actually consumed (matters when drawn from a sequence)


def encrypt_frame(
    cipher: Pasta,
    resolution: Resolution,
    nonce: Union[int, NonceSequence],
    seed: int = 0,
    allow_nonce_reuse: bool = False,
) -> FrameRunResult:
    """Pack, encrypt, serialize, deserialize, decrypt, and verify one frame.

    The wire bytes are produced by the actual bit-packing serializer, so
    ``ciphertext_bytes`` is the measured size of real data, not a formula.
    A frame spans many blocks, so the encrypt side runs on the batched
    keystream engine (one vectorized pass per frame instead of one scalar
    derivation per block).

    ``nonce`` is either an explicit integer or a :class:`NonceSequence` to
    draw from; streaming senders should pass a sequence so every frame —
    including retries of dropped frames — consumes a fresh nonce.
    ``allow_nonce_reuse`` forwards to :meth:`Pasta.encrypt` — only set it
    when deliberately re-encrypting the same frame (e.g. benchmark
    repetitions), and never together with a sequence.
    """
    from repro.pasta.encoding import deserialize_ciphertext, serialize_ciphertext

    if isinstance(nonce, NonceSequence):
        if allow_nonce_reuse:
            raise ParameterError("allow_nonce_reuse is meaningless with a NonceSequence")
        nonce = nonce.next()
    from repro.obs import get_tracer

    obs = get_registry()
    params = cipher.params
    with get_tracer().span(
        "video.encrypt_frame",
        metric="video.encrypt_frame.seconds",
        variant=params.name,
        resolution=resolution.name,
    ):
        pixels = synthetic_frame(resolution, seed)
        elements = pack_pixels(pixels, params.p)
        ciphertext = cipher.encrypt(elements, nonce, allow_nonce_reuse=allow_nonce_reuse)
        wire = serialize_ciphertext(ciphertext, params.p)
        received = deserialize_ciphertext(wire, params.p, len(elements))
        recovered_elements = cipher.decrypt(received, nonce)
        recovered = unpack_pixels([int(e) for e in recovered_elements], params.p, len(pixels))
    obs.counter("video.frames_encrypted", variant=params.name).inc()
    n_blocks = -(-len(elements) // params.t)
    return FrameRunResult(
        resolution=resolution,
        n_elements=len(elements),
        n_blocks=n_blocks,
        ciphertext_bytes=len(wire),
        ok_roundtrip=recovered == pixels,
        nonce=nonce,
    )


def fig8_rows(
    designs: Sequence[LinkDesign],
    bandwidths: Sequence[float] = (MAX_BANDWIDTH_BPS, MIN_BANDWIDTH_BPS),
) -> List[dict]:
    """Frames/s for every (bandwidth, resolution, design) point of Fig. 8."""
    rows = []
    for bandwidth in bandwidths:
        for resolution in RESOLUTIONS:
            for design in designs:
                link = design.link_fps(resolution, bandwidth)
                rows.append(
                    {
                        "bandwidth_MBps": bandwidth / 1e6,
                        "resolution": resolution.name,
                        "design": design.name,
                        "fps": link,
                        "compute_fps": design.compute_fps(resolution),
                        "streams": link >= 1.0,
                        "frame_bytes": design.frame_bytes(resolution),
                    }
                )
    return rows
