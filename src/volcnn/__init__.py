"""Desk-scale onboard volcanic-eruption detector.

Five-band preprocessing into SWIR-highlighted RGB composites, flat binary
patch and composite files, from-scratch numpy CNN layers with Adam,
labeled manifests with class-balanced batches, and a synthetic scene
generator.  There is no model file, trainer or inference entry point yet.

Allocator policy: importing the package pins glibc's heap, once, for the
whole process.  Blocks under 32 MiB come from the heap, and freed heap
memory stays mapped up to 1 GiB instead of going back to the OS.  The
package serves fixed-size requests in a long-lived process: the same
3-16 MB arrays are allocated and freed on every request, so pages handed
back after one request are faulted in again by the next.  Keeping them
mapped does not by itself raise peak memory, because the peak resident set
(the benchmark's ``peak_rss_mb``) is a high-water mark either way.  Arrays
of 32 MiB and more (the training step's) are still mmapped and returned on
free.  Off glibc nothing is set.
"""

import ctypes

__version__ = "0.1.0"

# mallopt parameter numbers from glibc's <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# Minor page faults and median ms per warm op, one process on a 2-vCPU VM,
# with the benchmark's ingest and onboard_pruned set-up and ops:
#   glibc's dynamic default   ingest  4670, 27.7 ms   onboard_pruned  2021, 74.9 ms
#   trim threshold alone      ingest 11962, 45.9 ms   onboard_pruned 30307, 117 ms
#   mmap threshold alone      ingest  4942, 29.7 ms   onboard_pruned  8855, 92.7 ms
#   mmap, then trim           ingest     0, 11.1 ms   onboard_pruned     1, 53.4 ms
# Setting the trim threshold switches glibc's dynamic mmap threshold off,
# leaving it at 128 KiB, so it is set only after the mmap threshold took.
# 32 MiB is the ceiling of glibc's dynamic threshold on 64-bit; the train
# step's 33.5 MB and 67 MB arrays stay above it and stay mmapped.
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 1 << 30


def _pin_heap(mallopt):
    """Set the mmap threshold, then the trim threshold if the first call
    succeeded.  mallopt returns 1 on success; musl's stub returns 0."""
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1:
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _libc_mallopt():
    """The C library's mallopt, or None where the process has none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


_mallopt = _libc_mallopt()
if _mallopt is not None:
    _pin_heap(_mallopt)
del _mallopt
