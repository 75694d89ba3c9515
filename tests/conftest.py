import os

# one BLAS/OpenMP thread, as in benchmarks/run.py: on a busy host spinning
# BLAS threads slow the many small vector operations of the solvers.  This
# must run before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

from pdswave.domain import build_domain  # noqa: E402


@pytest.fixture(scope="session")
def the_domain():
    return build_domain()
