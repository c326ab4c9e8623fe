"""Optional numba acceleration.

The coset-enumeration core is plain array code and runs unmodified with
or without numba.  Set ``GROUPTENSOR_NO_JIT=1`` to force the pure-Python
path (orders of magnitude slower; useful for debugging the kernels).
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
