"""The binary icosahedral group and the 120-cell vertex orbit.

Builds the 120 unit icosians in closed form (the units, the sixteen
(+-1 +-i +-j +-k)/2 and the even permutations of
(0, +-1/2, +-1/(2 sigma), +-sigma/2)), which the two classical generators
are checked to generate, tabulates the Clifford translation distances and
the exact spectrum their characters fix, and carries the twenty
fundamental-domain vertices around the whole orbit.
"""

import math
from collections import Counter

import numpy as np

from pdswave.domain import build_domain
from pdswave.icosian import (GEN_GAMMA, GEN_S, family_description, generate_group,
                             orbit_vertices, rotation_of, translation_distance)
from pdswave.spectra import exact_spectrum, invariant_counts

table = generate_group()
print(f"group order: {len(table)}")

census = Counter(round(chi / math.pi, 6) for chi in table.chi.tolist())
print("translation distances (multiples of pi):")
for frac, count in sorted(census.items()):
    print(f"  chi = {frac:>8.6f} pi : {count:3d} elements")

# d_k invariants of degree k give the eigenvalue q^2 = beta^2 - 1, beta = k + 1,
# with multiplicity beta * d_k
d = invariant_counts(61)
print("\nexact spectrum from the characters (beta, q^2, multiplicity):")
for beta, q2 in exact_spectrum(np.count_nonzero(d)):
    print(f"  beta = {beta:2.0f} : q^2 = {q2:4.0f}, multiplicity {beta * d[int(beta) - 1]:3.0f}")

print(f"\ngenerator s   = {GEN_S}  (chi = {translation_distance(GEN_S) / math.pi:.4f} pi)")
print(f"generator g   = {GEN_GAMMA}  (chi = {translation_distance(GEN_GAMMA) / math.pi:.4f} pi)")
rot = rotation_of(GEN_S)
angle = math.acos((np.trace(rot) - 1) / 2)
print(f"rotation angle of s on R^3: {angle / math.pi:.4f} pi (axis (1,1,1)/sqrt3)")

dom = build_domain()
points, labels = orbit_vertices(table, dom.vertices4)
print(f"\norbit of the 20 fundamental vertices: {len(points)} points")
for fam, count in sorted(Counter(int(l) for l in labels).items()):
    print(f"  {count:3d} x family {fam}: {family_description(fam)}")

# nearest distinct vertices are one dodecahedron edge apart; whole cells
# are carried onto each other by the chi = pi/5 translations
gram = np.clip(points @ points.T, -1, 1)
np.fill_diagonal(gram, -1)
print(f"\nminimal vertex separation (dodecahedron edge arc): "
      f"{math.acos(gram.max()):.6f} rad; cell-to-cell translation pi/5 = "
      f"{math.pi / 5:.6f} rad")
