import os

# One BLAS thread, as the benchmark runs: on a two-core host OpenBLAS's default
# threading spends CPU time without a wall-clock gain.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hypothesis import settings  # noqa: E402

# Derandomized so that every run draws the same examples, and without a
# deadline so that a slow host does not fail an example on timing alone.
settings.register_profile("binvio", derandomize=True, deadline=None)
settings.load_profile("binvio")
