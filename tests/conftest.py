"""The tests run with one BLAS thread, whatever the environment says.

The pinned sample bytes and report rows (tests/test_hermitian.py,
tests/test_cli.py) are those of matrix products summed on one thread, the
setting perfbench uses and the README advises; a threaded BLAS may sum them
in another order.  BLAS reads its thread count when numpy loads it, so the
count is set here, before any test module imports numpy.  Tests that want
another count start a process of their own with it.
"""

import os

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"
