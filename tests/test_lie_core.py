import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy_forge.lie_core import (
    MULTIPLICATIVE_REALS,
    SU2,
    U1,
    AlgebraElement,
    FarFromIdentity,
    GroupElement,
    GroupSpec,
    GroupName,
    SpecMismatch,
    algebra_element_from_json,
    element_to_json,
    exp_map,
    gln,
    group_distance,
    group_element_from_json,
    log_map,
    su2_basis,
)

from _oracles import taylor_expm

ALL_SPECS = [MULTIPLICATIVE_REALS, U1, SU2, gln(3), gln(2, "complex")]


def random_algebra(spec, rng, norm=0.2):
    from holonomy_forge.lie_core import algebra_basis, project_to_algebra

    basis = algebra_basis(spec)
    coeffs = rng.normal(size=len(basis))
    m = sum(c * b for c, b in zip(coeffs, basis))
    m = project_to_algebra(spec, m)
    n = np.linalg.norm(m)
    if n > 0:
        m = m * (norm / n)
    return AlgebraElement(spec, m)


class TestGroupSpec:
    def test_fixed_groups_validate_structure(self):
        with pytest.raises(ValueError):
            GroupSpec(GroupName.SU2, 3, "complex", 3)
        with pytest.raises(ValueError):
            GroupSpec(GroupName.U1, 1, "real", 1)

    def test_gln_algebra_dim(self):
        assert gln(4).algebra_dim == 16


class TestExpMap:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name.value)
    def test_zero_maps_to_identity(self, spec):
        g = exp_map(AlgebraElement.zero(spec))
        assert group_distance(g, GroupElement.identity(spec)) == 0.0

    def test_multiplicative_reals_scalar_exponential(self):
        g = exp_map(AlgebraElement(MULTIPLICATIVE_REALS, [[-1.0]]))
        assert abs(g.matrix[0, 0] - math.exp(-1.0)) < 1e-15

    def test_su2_against_taylor_series_oracle(self):
        x3 = su2_basis()[2]
        g = exp_map(math.pi * x3)
        oracle = taylor_expm(math.pi * x3.matrix, terms=20)
        assert np.linalg.norm(g.matrix - oracle) < 1e-12
        assert np.linalg.norm(g.matrix - np.diag([1j, -1j])) < 1e-12

    def test_random_su2_against_oracle(self, rng):
        for _ in range(10):
            x = random_algebra(SU2, rng, norm=0.8)
            assert np.linalg.norm(exp_map(x).matrix - taylor_expm(x.matrix)) < 1e-12

    def test_su2_closed_form_matches_scipy_expm(self, rng):
        import scipy.linalg

        # From the series branch near 0 through the closed form to angles past pi.
        for r in (0.0, 1e-12, 1e-8, 5e-5, 1.5e-4, 1e-3, 0.1, 0.5, 1.0, 2.0, 4.0, 7.0):
            for _ in range(3):
                x = random_algebra(SU2, rng, norm=r) if r else AlgebraElement.zero(SU2)
                g = exp_map(x).matrix
                assert np.linalg.norm(g - scipy.linalg.expm(x.matrix)) <= 1e-14
                assert np.linalg.norm(g - taylor_expm(x.matrix, terms=30)) <= 1e-14

    def test_gln_keeps_scipy_expm(self, rng):
        import scipy.linalg

        for spec in (gln(3), gln(2, "complex")):
            x = random_algebra(spec, rng, norm=0.7)
            assert np.array_equal(exp_map(x).matrix, scipy.linalg.expm(x.matrix))


class TestLogMap:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name.value)
    def test_identity_maps_to_zero(self, spec):
        x = log_map(GroupElement.identity(spec))
        assert x.norm() == 0.0

    def test_multiplicative_reals_scalar_log(self):
        g = GroupElement(MULTIPLICATIVE_REALS, [[math.exp(-1.0)]])
        assert abs(log_map(g).matrix[0, 0] - (-1.0)) < 1e-9

    def test_su2_round_trip_small(self, rng):
        x = random_algebra(SU2, rng, norm=0.1)
        back = log_map(exp_map(x))
        assert np.linalg.norm(back.matrix - x.matrix) < 1e-10

    def test_far_from_identity_rejected(self):
        g = exp_map(math.pi * su2_basis()[2])  # diag(i, -i), distance 2
        with pytest.raises(FarFromIdentity):
            log_map(g)
        near = GroupElement.identity(SU2).matrix
        with pytest.raises(FarFromIdentity):
            log_map(np.stack([near, g.matrix, near]), SU2)

    def test_su2_closed_form_matches_scipy_logm(self, rng):
        import scipy.linalg

        xs = [random_algebra(SU2, rng, norm=r) for r in (1e-9, 1e-5, 1e-2, 0.1, 0.3, 0.49)]
        stack = np.stack([exp_map(x).matrix for x in xs])
        got = log_map(stack, SU2)
        assert got.shape == stack.shape
        for g, x, m in zip(got, xs, stack):
            assert np.linalg.norm(g - scipy.linalg.logm(m)) <= 1e-13
            assert np.linalg.norm(g - x.matrix) <= 1e-13
        assert np.array_equal(log_map(np.eye(2, dtype=complex)[None], SU2), np.zeros((1, 2, 2)))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name.value)
    def test_stack_logs_like_each_element(self, spec, rng):
        elements = [exp_map(random_algebra(spec, rng, norm=0.3)) for _ in range(5)]
        got = log_map(np.stack([g.matrix for g in elements]), spec)
        for g, m in zip(elements, got):
            assert np.linalg.norm(log_map(g).matrix - m) <= 1e-15


class TestGroupDistance:
    def test_zero_on_equal(self):
        g = GroupElement(MULTIPLICATIVE_REALS, [[2.0]])
        assert group_distance(g, g) == 0.0

    def test_direct_norm(self):
        a = GroupElement(MULTIPLICATIVE_REALS, [[1.0]])
        b = GroupElement(MULTIPLICATIVE_REALS, [[2.0]])
        assert group_distance(a, b) == 1.0

    def test_first_order_expansion(self, rng):
        eps = 1e-6
        x = random_algebra(SU2, rng, norm=1.0)
        g = exp_map(random_algebra(SU2, rng, norm=0.4))
        d = group_distance(g, g @ exp_map(eps * x))
        assert abs(d - eps * x.norm()) < 0.01 * eps * x.norm()

    def test_spec_mismatch(self):
        a = GroupElement(MULTIPLICATIVE_REALS, [[1.0]])
        b = GroupElement.identity(U1)
        with pytest.raises(SpecMismatch):
            group_distance(a, b)


class TestInvariantEnforcement:
    def test_nonpositive_real_rejected(self):
        with pytest.raises(ValueError):
            GroupElement(MULTIPLICATIVE_REALS, [[-2.0]])

    def test_nonunit_u1_rejected(self):
        with pytest.raises(ValueError):
            GroupElement(U1, [[2.0 + 0j]])

    def test_nonunitary_su2_rejected(self):
        with pytest.raises(ValueError):
            GroupElement(SU2, [[1.0, 0.5], [0.0, 1.0]])

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            GroupElement(gln(2), [[1.0, 1.0], [1.0, 1.0]])

    def test_hermitian_su2_algebra_rejected(self):
        with pytest.raises(ValueError):
            AlgebraElement(SU2, 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))

    def test_real_u1_algebra_rejected(self):
        with pytest.raises(ValueError):
            AlgebraElement(U1, [[1.0 + 0j]])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name.value)
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_group_element_rejected(self, spec, value):
        # nan fails every comparison, so each check must be one that nan fails.
        with pytest.raises(ValueError):
            GroupElement(spec, np.full((spec.matrix_dim, spec.matrix_dim), value))

    @pytest.mark.parametrize("spec", [U1, SU2], ids=lambda s: s.name.value)
    def test_nan_algebra_element_rejected(self, spec):
        with pytest.raises(ValueError):
            AlgebraElement(spec, np.full((spec.matrix_dim, spec.matrix_dim), np.nan, dtype=complex))


class TestProjection:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name.value)
    def test_stack_projects_like_each_matrix(self, spec, rng):
        from holonomy_forge.lie_core import project_to_group

        stack = np.stack([exp_map(random_algebra(spec, rng, norm=0.4)).matrix for _ in range(6)])
        drift = 1e-6 * rng.normal(size=stack.shape)
        projected = project_to_group(spec, stack + drift)
        assert projected.shape == stack.shape
        for one, drifted in zip(projected, stack + drift):
            assert np.array_equal(one, project_to_group(spec, drifted))
            GroupElement(spec, one).validate()

    def test_su2_matches_svd_polar_factor(self, rng):
        from holonomy_forge.lie_core import project_to_group

        g = exp_map(random_algebra(SU2, rng, norm=0.4)).matrix
        m = g + 1e-6 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        w, _, vh = np.linalg.svd(m)
        polar = w @ vh
        expected = polar / np.sqrt(np.linalg.det(polar))
        assert np.linalg.norm(project_to_group(SU2, m) - expected) <= 1e-14


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name.value)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exp_log_round_trip(spec, data):
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    norm = data.draw(st.floats(1e-4, 0.3))
    x = random_algebra(spec, rng, norm=norm)
    back = log_map(exp_map(x))
    assert np.linalg.norm(back.matrix - x.matrix) <= 1e-9


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name.value)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_group_closure(spec, seed):
    rng = np.random.default_rng(seed)
    a = exp_map(random_algebra(spec, rng, norm=0.4))
    b = exp_map(random_algebra(spec, rng, norm=0.4))
    (a @ b).validate()
    a.inverse().validate()
    ((a @ b) @ b.inverse()).validate()


@pytest.mark.parametrize("spec", [MULTIPLICATIVE_REALS, U1], ids=lambda s: s.name.value)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_abelian_exp_homomorphism(spec, seed):
    rng = np.random.default_rng(seed)
    x = random_algebra(spec, rng, norm=0.5)
    y = random_algebra(spec, rng, norm=0.5)
    lhs = exp_map(x + y)
    rhs = exp_map(x) @ exp_map(y)
    assert group_distance(lhs, rhs) <= 1e-10


class TestBracket:
    def test_su2_structure(self):
        x1, x2, x3 = su2_basis()
        assert np.linalg.norm(x1.bracket(x2).matrix - (-1.0 * x3).matrix) < 1e-14

    def test_abelian_brackets_vanish(self, rng):
        x = random_algebra(U1, rng)
        y = random_algebra(U1, rng)
        assert x.bracket(y).norm() == 0.0


class TestSerialization:
    def test_exact_field_names_and_pairs(self):
        g = GroupElement(SU2, np.array([[0, 1j], [1j, 0]]))
        d = element_to_json(g)
        assert set(d.keys()) == {"spec", "matrix"}
        assert d["matrix"] == [[0.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 0.0]]
        assert d["spec"]["name"] == "SU2"

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name.value)
    def test_round_trip(self, spec, rng):
        g = exp_map(random_algebra(spec, rng, norm=0.3))
        g2 = group_element_from_json(element_to_json(g))
        assert group_distance(g, g2) == 0.0
        x = random_algebra(spec, rng, norm=0.3)
        x2 = algebra_element_from_json(element_to_json(x))
        assert np.linalg.norm(x.matrix - x2.matrix) == 0.0
