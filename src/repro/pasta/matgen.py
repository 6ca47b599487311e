"""Invertible sequential matrix generation (paper Sec. II-C, Eq. (1)).

The affine layer's t x t matrix is never sampled wholesale: only its first
row ``alpha`` comes from the XOF. Subsequent rows follow the PHOTON/LED
"sequential" recurrence — row_{j+1} = row_j . C, where ``C`` is the
companion-style matrix with ones on the superdiagonal and ``alpha`` as its
last row. Expanding the product, the hardware-friendly row update is::

    row_{j+1}[0] = row_j[t-1] * alpha[0]
    row_{j+1}[k] = row_j[k-1] + row_j[t-1] * alpha[k]      (k >= 1)

i.e. one multiply-accumulate per output element — exactly the MAC array of
the paper's MatGen unit (Fig. 5). The first-row elements are sampled with
zero excluded, which keeps the construction invertible in practice (an
exhaustive empirical check lives in the test suite; a genuinely singular
draw would be rejected by :func:`generate_matrix` at circuit-build time).

**Matrix-free form.** Row j is ``alpha . C^j`` and ``alpha = e_0 . C^t``,
so the matrix is ``M(alpha) = C(alpha)^t``, and ``M . x`` is the same
recurrence continued t steps from ``x``::

    s_0 .. s_{t-1} = x
    s_{t+m}        = alpha . (s_m, ..., s_{m+t-1})          (m = 0 .. t-1)
    (M . x)_j      = s_{t+j}

That is t dot products of length t instead of t^2 generated entries and a
t^2 mat-vec. The batched client keystream uses this form
(:func:`recurrence_mat_vec`); :func:`generate_matrix` and
:func:`streaming_mat_vec` stay its oracle, and the HHE server still
materializes M, because its x is encrypted and it needs M's diagonals.
Each of its dot products is a sum of t products below ``(p - 1)^2``, so
while ``(p - 1)^2 t < 2^53`` (every 17-bit PASTA set) it runs in float64,
where every such sum is an exact integer.

The paper's hardware streams rows instead because the recurrence is
serial: each step waits for a full multiply and adder-tree fold,
``MUL_LATENCY + ceil(log2 t)`` cycles (:mod:`repro.hw.arith_units`), so
the t steps take 8 x 32 = 256 cycles on t multipliers at t = 32, against
``mat_stage_cycles(32)`` = 43 cycles on 2t multipliers for pipelined row
streaming. At t = 128 it is 1,280 cycles against 141. In software each
step is one vectorized pass over every lane, and the matrix-free form
computes t^2 products per lane instead of generating, storing and
re-reading t^2 matrix entries, so it wins there.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.ff.prime import PrimeField


def next_row(field: PrimeField, row: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """One step of the sequential recurrence: ``row . C(alpha)``."""
    shifted = np.roll(row, 1)
    shifted[0] = 0
    feedback = int(row[-1])
    return field.vec_add(shifted, field.scalar_mul(feedback, alpha))


def iter_rows(field: PrimeField, alpha: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the t rows of the sequential matrix, starting from ``alpha``.

    Only two rows live at a time (``alpha`` plus the current row) — the
    memory optimization the paper credits for eliminating matrix storage.
    """
    alpha = field.coerce(np.asarray(alpha))
    row = alpha
    for _ in range(alpha.shape[0]):
        yield row
        row = next_row(field, row, alpha)


def generate_matrix(field: PrimeField, alpha: np.ndarray) -> np.ndarray:
    """Materialize the full t x t sequential matrix (reference path only)."""
    rows = list(iter_rows(field, alpha))
    return np.stack(rows) if field.dtype is np.int64 else np.array(rows, dtype=object)


def streaming_mat_vec(field: PrimeField, alpha: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Compute ``M(alpha) . x`` row-by-row without storing the matrix.

    This mirrors the hardware dataflow: each generated row is immediately
    consumed by a dot product against the state vector.
    """
    x = field.coerce(np.asarray(x))
    out = field.zeros(x.shape[0])
    for j, row in enumerate(iter_rows(field, alpha)):
        out[j] = field.dot(row, x)
    return out


def recurrence_mat_vec(field: PrimeField, alphas: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``M(alpha) . x`` on N lanes at once, without building any matrix.

    ``alphas`` and ``x`` are reduced ``(t, N)`` arrays in the field's
    dtype, lanes innermost (column n is lane n); so is the result. The
    recurrence continues from x: ``s_{t+m} = alpha . (s_m .. s_{m+t-1})``
    and ``(M x)_j = s_{t+j}``. Proof: C shifts x up by one and appends
    ``alpha . x``, so ``C^k x = (s_k .. s_{k+t-1})``; row i of ``C^t`` is
    ``e_0 . C^{t+i} = alpha . C^i``, which is row i of M.

    One ``(2t, N)`` buffer holds the whole sequence, so every step's
    window is a contiguous block, dotted with alpha by
    :meth:`~repro.ff.prime.PrimeField.batched_dot`. The buffer is float64
    whenever ``(p - 1)^2 t < 2^53``
    (:meth:`~repro.ff.prime.PrimeField.mul_accumulate_fits_float64`): each
    step's t-term sum is then an exact integer, so one float ``einsum`` and
    a floor reduction give the int64 result bit for bit (every 17-bit PASTA
    set; at p = 2^24 - 3 up to t = 32). Other fields keep the field's dtype
    and its int64 or big-int overflow rules.
    """
    t = alphas.shape[0]
    dtype = np.float64 if field.mul_accumulate_fits_float64(t) else field.dtype
    alphas = alphas.astype(dtype, copy=False)
    s = np.empty((2 * t,) + x.shape[1:], dtype=dtype)
    s[:t] = x
    for m in range(t):
        s[t + m] = field.batched_dot(alphas, s[m : m + t])
    return s[t:].astype(field.dtype, copy=False)
