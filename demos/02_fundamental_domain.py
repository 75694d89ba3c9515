"""Geometry of the fundamental dodecahedron and its face identifications.

Walks through containment tests, the equivalence classes of boundary
points, and the exact pairing of opposite faces.
"""

import math

import numpy as np

from pdswave.domain import DOMAIN_DIAMETER, build_domain, geodesic_point

dom = build_domain()

print(f"vertex first coordinate x0 = {dom.vertices4[0, 0]:.12f}")
print(f"visual vertex radius |X| = {np.linalg.norm(dom.vertices3[0]):.12f}")
print(f"spherical diameter of the domain: {DOMAIN_DIAMETER:.6f}")

print("\ncontainment:")
points = np.array([np.zeros(3), 0.99 * dom.vertices3[1], 1.01 * dom.vertices3[1]])
for X, inside in zip(points, dom.contains(points, tol=1e-9)):
    print(f"  {np.round(X, 4)} -> {inside}")

print("\nequivalence classes (members, faces):")
samples = {
    "origin": np.zeros(3),
    "vertex S3": dom.vertices3[2],
    "edge S3-S18 point": geodesic_point(dom.vertices4[2], dom.vertices4[17], 0.4)[1:],
}
face1 = dom.face_center3(1)
samples["face-1 center"] = face1 / math.sqrt(face1 @ dom.face(1).ellipsoid @ face1)
for name, X in samples.items():
    cls = dom.classify(X, tol=1e-9)
    print(f"  {name:>18}: {len(cls.members)} members through faces {cls.faces}")

print("\nface identification check (vertex cycles of face 1 -> face 7):")
m = dom.face_map(1).matrix3
for v in dom.face(1).cycle:
    img = m @ dom.vertices3[v]
    partner = int(np.abs(dom.vertices3 - img).max(axis=1).argmin())
    print(f"  S{v + 1:<2} -> S{partner + 1}")

X = samples["face-1 center"]
lhs = dom.map_face_normal(1, X)
rhs = -dom.outward_normal(7, dom.identify(X, 1))
print(f"\noutgoing normals reverse under the identification: "
      f"max deviation {np.abs(lhs - rhs).max():.2e}")
