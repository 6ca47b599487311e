"""The process's allocator policy: freed frame buffers stay for the next frame.

A client frame allocates and frees the same multi-MiB numpy temporaries
every time (the XOF digest, the ``(N, W)`` candidate arrays, the rank). By
default glibc hands them back to the kernel when they are freed: it unmaps
blocks above its mmap threshold and trims the heap top above its trim
threshold. The next frame then faults every page in again, zero-filled,
about 2,700 minor faults (10.5 MiB) per 300-block ``client_encrypt``
frame. :func:`apply_allocator_policy` raises both thresholds once for the
process, so a warmed frame reuses the heap the previous one freed and
takes no faults.

It is process-level on purpose: every entry point imports :mod:`repro`,
which applies it, and reusing buffers inside the client only moves the
trim onto whichever temporaries are left. The price is resident memory:
each glibc arena may keep up to :data:`TRIM_THRESHOLD` of free heap, and
blocks below :data:`MMAP_THRESHOLD` live in the heap instead of in mappings
of their own. Where the C library has no ``mallopt`` (macOS, musl,
Windows) nothing changes.
"""

from __future__ import annotations

import ctypes
from typing import Optional

try:
    from resource import RUSAGE_THREAD, getrusage
except ImportError:  # no resource module (Windows) or no per-thread usage (macOS)
    getrusage = None

__all__ = [
    "MMAP_THRESHOLD",
    "TRIM_THRESHOLD",
    "apply_allocator_policy",
    "thread_minor_faults",
]

#: glibc's ``mallopt`` parameter numbers (malloc.h).
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

#: Blocks up to this size come from the heap, not from their own mapping:
#: the largest threshold glibc accepts on 64-bit hosts (half its 64 MiB
#: arena heap).
MMAP_THRESHOLD = 32 << 20

#: Free heap top kept instead of trimmed: twice the smallest power of two
#: at which warmed client frames take no faults (16 MiB; 8 MiB left about
#: 2,700 per frame).
TRIM_THRESHOLD = 32 << 20


def apply_allocator_policy() -> bool:
    """Set glibc's mmap and trim thresholds; True when both were applied.

    Returns False, and changes nothing, where the C library has no
    ``mallopt``. Applying it again changes nothing further.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: Windows' CDLL(None)
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # glibc's mallopt returns 1 on success and 0 for a value it refuses.
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)) and bool(
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    )


def thread_minor_faults() -> Optional[int]:
    """The calling thread's minor page faults so far; None where unmeasured."""
    if getrusage is None:
        return None
    return getrusage(RUSAGE_THREAD).ru_minflt
