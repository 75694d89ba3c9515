"""Wave computation on the Poincare dodecahedral space.

Transient scalar waves on the quotient of the unit 3-sphere by the binary
icosahedral group, computed with P1 finite elements on a fundamental
dodecahedron whose opposite faces are identified, a conservative leapfrog
scheme, and DFT-based recovery of Laplace-Beltrami eigenvalues.
"""

__version__ = "0.1.0"

from .assembly import (Operators, SparseSymMatrix, assemble, build_dof_map,
                       estimate_spectral_bound)
from .domain import FundamentalDomain, build_domain, geodesic_point, lift
from .evolve import (discrete_energy, initial_bump, initial_random, leapfrog_run,
                     make_preconditioner, pcg_solve, snap_probes)
from .icosian import (GroupTable, generate_group, orbit_vertices, rotation_of,
                      translation_distance)
from .mesh_io import export_mesh, import_mesh, write_vtk_mesh
from .meshing import TetMesh, generate_mesh, validate_mesh, weighted_volume
from .spectra import (analyze_probe_signals, dft_magnitude, exact_spectrum,
                      find_peaks, match_eigenvalues)

__all__ = [
    "FundamentalDomain",
    "GroupTable",
    "Operators",
    "SparseSymMatrix",
    "TetMesh",
    "analyze_probe_signals",
    "assemble",
    "build_dof_map",
    "build_domain",
    "dft_magnitude",
    "discrete_energy",
    "estimate_spectral_bound",
    "exact_spectrum",
    "export_mesh",
    "find_peaks",
    "generate_group",
    "generate_mesh",
    "geodesic_point",
    "import_mesh",
    "initial_bump",
    "initial_random",
    "leapfrog_run",
    "lift",
    "make_preconditioner",
    "match_eigenvalues",
    "orbit_vertices",
    "pcg_solve",
    "rotation_of",
    "snap_probes",
    "translation_distance",
    "validate_mesh",
    "weighted_volume",
    "write_vtk_mesh",
]
