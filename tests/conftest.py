import os

# one BLAS/OpenMP thread, as in benchmarks/run.py: on a busy host spinning
# BLAS threads slow the many small vector operations of the solvers.  This
# must run before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from pdswave.domain import build_domain  # noqa: E402
from pdswave.meshing import face_counts, generate_mesh, signed_tet_volumes  # noqa: E402


@pytest.fixture(scope="session")
def the_domain():
    return build_domain()


@pytest.fixture(scope="session")
def mesh22(the_domain):
    return generate_mesh(the_domain, 2, 2)


@pytest.fixture(scope="session")
def triple_face_tets(mesh22):
    """mesh22's tets plus one tet coned from the origin onto an interior
    triangle, which three tets then share."""
    uniq, counts = face_counts(mesh22.tets)
    inner = uniq[counts == 2]
    cones = np.column_stack([inner, np.zeros(len(inner), dtype=inner.dtype)])
    vols = np.abs(signed_tet_volumes(mesh22.vertices, cones))
    return np.vstack([mesh22.tets, cones[vols.argmax()]])
