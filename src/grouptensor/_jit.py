"""The kernel mode flag of the benchmark records.

The coset-enumeration kernels in `_engine` run as plain Python on
memoryviews; there is no compiled path, so the flag is always false.
"""

# Kept only because perfbench/worker.py imports it for the `env` field of
# every result; it goes with the benchmark change of ROADMAP item 5.
HAVE_NUMBA = False
