import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pdswave import icosian
from pdswave.errors import GenerationDiverged, NonUnitQuaternion, OrbitCountMismatch
from pdswave.icosian import (CHI_VALUES, GEN_GAMMA, GEN_S, IDENTITY, GroupTable,
                             Quaternion, SIGMA, generate_group, left_matrix,
                             merge_classes, orbit_vertices, rotation_of,
                             translation_distance)

I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)


def oracle_mul(a, b):
    """Independent Hamilton product via the scalar/vector formula."""
    wa, va = a.w, np.array([a.x, a.y, a.z])
    wb, vb = b.w, np.array([b.x, b.y, b.z])
    w = wa * wb - va @ vb
    v = wa * vb + wb * va + np.cross(va, vb)
    return np.concatenate(([w], v))


def rodrigues(axis, angle):
    axis = np.asarray(axis, float)
    axis = axis / np.linalg.norm(axis)
    kx = np.array([[0, -axis[2], axis[1]],
                   [axis[2], 0, -axis[0]],
                   [-axis[1], axis[0], 0]])
    return np.eye(3) + math.sin(angle) * kx + (1 - math.cos(angle)) * kx @ kx


unit_quats = st.builds(
    lambda c: Quaternion(*(np.array(c) / np.linalg.norm(c))),
    st.lists(st.floats(-1, 1), min_size=4, max_size=4).filter(
        lambda c: np.linalg.norm(c) > 1e-2))


def test_basis_products():
    assert np.allclose((I * J).as_array(), K.as_array())
    assert np.allclose((J * I).as_array(), -K.as_array())
    for b in (I, J, K):
        assert np.allclose((b * b).as_array(), [-1, 0, 0, 0])


def test_identity_product():
    rng = np.random.default_rng(3)
    q = Quaternion(*rng.normal(size=4))
    assert np.allclose((IDENTITY * q).as_array(), q.as_array())


def test_s_cubed_is_minus_one():
    s3 = GEN_S * GEN_S * GEN_S
    assert np.allclose(s3.as_array(), [-1, 0, 0, 0], atol=1e-15)
    # independent expansion oracle
    acc = GEN_S.as_array()
    for _ in range(2):
        acc = oracle_mul(Quaternion(*acc), GEN_S)
    assert np.allclose(acc, [-1, 0, 0, 0], atol=1e-15)


@given(unit_quats, unit_quats)
def test_norm_multiplicative(a, b):
    assert math.isclose((a * b).norm_sq(), a.norm_sq() * b.norm_sq(),
                        rel_tol=1e-12, abs_tol=1e-12)


@st.composite
def index_pairs(draw):
    n = draw(st.integers(1, 30))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=40))
    return n, pairs


@given(index_pairs())
def test_merge_classes_matches_transitive_closure(case):
    n, pairs = case
    reach = np.eye(n, dtype=bool)
    for i, j in pairs:
        reach[i, j] = reach[j, i] = True
    for k in range(n):                     # Warshall closure
        reach |= reach[:, k:k + 1] & reach[k:k + 1, :]
    # brute force: label classes in the order of their smallest member
    expected = np.full(n, -1)
    count = 0
    for i in range(n):
        if expected[i] < 0:
            expected[reach[i]] = count
            count += 1
    labels, representatives = merge_classes(n, pairs)
    assert np.array_equal(labels, expected)
    assert np.array_equal(representatives,
                          [np.flatnonzero(expected == c)[0] for c in range(count)])


def test_mul_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = Quaternion(*rng.normal(size=4))
        b = Quaternion(*rng.normal(size=4))
        assert np.allclose((a * b).as_array(), oracle_mul(a, b), atol=1e-14)


def test_left_matrix_agrees_with_product():
    rng = np.random.default_rng(5)
    a = Quaternion(*rng.normal(size=4))
    b = Quaternion(*rng.normal(size=4))
    assert np.allclose(left_matrix(a) @ b.as_array(), (a * b).as_array())


def test_rotation_of_s():
    r = rotation_of(GEN_S)
    expected = rodrigues([1, 1, 1], 2 * math.pi / 3)
    assert np.allclose(r, expected, atol=1e-14)


def test_rotation_of_identity():
    assert np.allclose(rotation_of(IDENTITY), np.eye(3))


def test_rotation_of_gamma():
    r = rotation_of(GEN_GAMMA)
    expected = rodrigues([0.0, 1 / SIGMA, -1.0], 2 * math.pi / 5)
    assert np.allclose(r, expected, atol=1e-14)


def test_rotation_rejects_non_unit():
    with pytest.raises(NonUnitQuaternion):
        rotation_of(Quaternion(1, 1, 0, 0))


def test_rotation_sign_invariance():
    rng = np.random.default_rng(7)
    c = rng.normal(size=4)
    q = Quaternion(*(c / np.linalg.norm(c)))
    assert np.allclose(rotation_of(q), rotation_of(-q))


def test_translation_distances():
    assert translation_distance(IDENTITY) == 0.0
    assert math.isclose(translation_distance(GEN_S), math.pi / 3, abs_tol=1e-15)
    g1 = Quaternion(SIGMA / 2, 1 / (2 * SIGMA), 0.5, 0.0)
    assert math.isclose(translation_distance(g1), math.pi / 5, abs_tol=1e-15)


class TestGroup:
    def test_order(self):
        assert len(generate_group()) == 120

    def test_contains_minus_one(self):
        table = generate_group()
        coeffs = np.array([e.quat.as_array() for e in table.elements])
        assert np.min(np.abs(coeffs - [-1, 0, 0, 0]).max(axis=1)) < 1e-15

    def test_chi_values(self):
        table = generate_group()
        for e in table.elements:
            assert min(abs(e.chi - c) for c in CHI_VALUES) < 1e-12

    def test_chi_census(self):
        table = generate_group()
        census = Counter(round(e.chi, 9) for e in table.elements)
        expected = {0.0: 1, math.pi: 1, math.pi / 2: 30,
                    math.pi / 3: 20, 2 * math.pi / 3: 20,
                    math.pi / 5: 12, 2 * math.pi / 5: 12,
                    3 * math.pi / 5: 12, 4 * math.pi / 5: 12}
        assert census == {round(k, 9): v for k, v in expected.items()}

    def test_closure_and_identity(self):
        table = generate_group()
        assert np.allclose(table.elements[0].quat.as_array(), [1, 0, 0, 0])
        n = len(table)
        assert table.product.shape == (n, n)
        # each row/column of the product table is a permutation
        for i in range(0, n, 17):
            assert len(set(table.product[i])) == n
            assert len(set(table.product[:, i])) == n

    def test_inverse_table(self):
        table = generate_group()
        for i in range(len(table)):
            assert table.product[i, table.inverse[i]] == 0

    def test_product_table_matches_hamilton_product(self):
        table = generate_group()
        coeffs = np.array([e.quat.as_array() for e in table.elements])
        rng = np.random.default_rng(29)
        for i, j in rng.integers(0, len(table), size=(200, 2)):
            prod = table.elements[i].quat * table.elements[j].quat
            assert np.abs(coeffs[table.product[i, j]] - prod.as_array()).max() < 1e-12

    def test_table_of_unclosed_set_diverges(self):
        # without one element some products and one inverse have no match
        elements = list(generate_group().elements)
        with pytest.raises(GenerationDiverged):
            GroupTable(elements[:-1])

    def test_associativity_on_random_triples(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            a, b, c = (Quaternion(*rng.normal(size=4)) for _ in range(3))
            left = ((a * b) * c).as_array()
            right = (a * (b * c)).as_array()
            assert np.abs(left - right).max() < 1e-13

    def test_clifford_property(self):
        table = generate_group()
        rng = np.random.default_rng(23)
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        for e in table.elements:
            gq = e.matrix4 @ q
            d = math.acos(np.clip(q @ gq, -1, 1))
            assert abs(d - e.chi) < 1e-12

    def test_pi_homomorphism(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            qa = Quaternion(*(a / np.linalg.norm(a)))
            qb = Quaternion(*(b / np.linalg.norm(b)))
            lhs = rotation_of(qa) @ rotation_of(qb)
            rhs = rotation_of(qa * qb)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_matrix4_orthogonal(self):
        table = generate_group()
        for e in table.elements:
            m = e.matrix4
            assert np.abs(m @ m.T - np.eye(4)).max() < 1e-14
            assert abs(np.linalg.det(m) - 1.0) < 1e-13

    def test_pi_fifth_elements_closed_under_inverse(self):
        table = generate_group()
        idx = [i for i, e in enumerate(table.elements) if abs(e.chi - math.pi / 5) < 1e-12]
        assert len(idx) == 12
        assert {int(table.inverse[i]) for i in idx} == set(idx)


class TestOrbit:
    def test_counts(self, the_domain):
        table = generate_group()
        pts, labels = orbit_vertices(table, the_domain.vertices4)
        assert len(pts) == 600
        assert tuple(np.bincount(labels)) == (24, 64, 64, 64, 96, 96, 192)

    def test_seeds_in_orbit(self, the_domain):
        table = generate_group()
        pts, _ = orbit_vertices(table, the_domain.vertices4)
        for s in the_domain.vertices4:
            assert np.min(np.abs(pts - s).max(axis=1)) < 1e-12

    def test_wrong_seed_count_detected(self, the_domain):
        table = generate_group()
        with pytest.raises(OrbitCountMismatch):
            orbit_vertices(table, the_domain.vertices4[:7])


def test_group_elements_unit_norm():
    table = generate_group()
    for e in table.elements:
        assert abs(e.quat.norm_sq() - 1.0) < 1e-14
        # exact representation carried through generation
        assert e.quat.exact is not None
