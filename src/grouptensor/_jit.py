"""Optional numba acceleration.

The coset-enumeration core is plain array code and runs unmodified with
or without numba.  Set ``GROUPTENSOR_NO_JIT=1`` to force the pure-Python
path, useful for debugging the kernels.  Every timing in README.md and
the benchmark records is of that path; how it compares with numba has
not been measured.  On it the kernels read and write their arrays
through memoryviews (`kernel_views`).
"""

from __future__ import annotations

import os

if os.environ.get("GROUPTENSOR_NO_JIT"):
    HAVE_NUMBA = False
else:
    try:
        from numba import njit as _numba_njit

        HAVE_NUMBA = True
    except ImportError:  # pragma: no cover - numba is the optional `jit` extra
        HAVE_NUMBA = False

if HAVE_NUMBA:
    njit = _numba_njit
else:

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def decorate(func):
            return func

        return decorate


if HAVE_NUMBA:

    def kernel_views(*arrays):
        """The arrays themselves: the jitted kernels take numpy arrays."""
        return arrays

else:

    def kernel_views(*arrays):
        """Memoryviews of the arrays, one each.

        A memoryview reads and writes Python ints, where an ndarray
        builds a numpy scalar per entry: a scan step table[f, rows[k, i]]
        takes about 86 ns on views and 179 ns on arrays (timeit, Python
        3.11, numpy 2.4, 2-core VM).  A view writes through to its array,
        even after the array is made read-only, so take views only of
        working arrays, and only for the length of one driver call.
        """
        return tuple(map(memoryview, arrays))
