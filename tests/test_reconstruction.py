import math

import numpy as np
import pytest
import scipy.linalg

import holonomy_forge as hf
from holonomy_forge.lie_core import (
    MULTIPLICATIVE_REALS,
    SU2,
    U1,
    AlgebraElement,
    GroupElement,
    gln,
    group_distance,
    su2_basis,
)
from holonomy_forge.holonomy import ConnectionField, HolonomyMap, IntegrationError, transport_along
from holonomy_forge.path_algebra import (
    PathFamily,
    axis_dogleg_family,
    compose_paths,
    radial_family,
    straight_segment,
)
from holonomy_forge.reconstruction import (
    FdConfig,
    GridSpec,
    PotentialField,
    RoundTripReport,
    StepTooLarge,
    _relating_gauge_field,
    TrivializedCurve,
    connection_form_action,
    curvature,
    gauge_transform_potential,
    horizontal_transport,
    potential_grid_csv,
    reconstruct_potential,
    round_trip_report,
    transition_function,
)

from _oracles import reference_potential
from conftest import random_affine_field

ORIGIN = np.zeros(2)
CFG = FdConfig()


@pytest.fixture(scope="module")
def sec6():
    p = hf.get_preset("paper-sec6")
    return p.holonomy_map(), p.frame(), p


class TestFdConfig:
    def test_defaults(self):
        assert CFG.h == 1e-4 and CFG.richardson and CFG.curvature_h == 1e-3

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            FdConfig(h=0.5)
        with pytest.raises(ValueError):
            FdConfig(h=1e-3, curvature_h=1e-4)


class TestReconstructPotential:
    def test_closed_form_on_grid(self, sec6):
        h_map, psi, _ = sec6
        for x in GridSpec(-2.0, 2.0, 5).nodes(2):
            a1 = reconstruct_potential(h_map, psi, x, 0, CFG).matrix[0, 0]
            a2 = reconstruct_potential(h_map, psi, x, 1, CFG).matrix[0, 0]
            assert abs(a1 - x[1] / 2.0) <= 1e-6
            assert abs(a2 - (-x[0] / 2.0)) <= 1e-6

    def test_zero_connection_is_exactly_zero(self):
        zero = hf.get_preset("zero-connection")
        h_map, psi = zero.holonomy_map(), zero.frame()
        for mu in (0, 1):
            assert reconstruct_potential(h_map, psi, [0.3, -0.7], mu, CFG).norm() == 0.0

    def test_degenerate_base_point(self, sec6):
        h_map, psi, _ = sec6
        for mu in (0, 1):
            assert abs(reconstruct_potential(h_map, psi, ORIGIN, mu, CFG).matrix[0, 0]) <= 1e-9

    def test_step_too_large_signalled(self):
        strong = ConnectionField.from_polynomial(
            2, MULTIPLICATIVE_REALS, [[(40.0, (0, 1), 0)], []]
        )
        h_map = HolonomyMap.analytic_abelian(strong, ORIGIN)
        psi = radial_family(ORIGIN)
        with pytest.raises(StepTooLarge):
            reconstruct_potential(
                h_map, psi, [3.0, 3.0], 0, FdConfig(h=0.05, richardson=False, curvature_h=0.05)
            )

    def test_su2_closed_form(self):
        sh = hf.get_preset("su2-shear")
        h_map, psi = sh.holonomy_map(), sh.frame()
        x = np.array([0.6, -0.4])
        for mu in (0, 1):
            got = reconstruct_potential(h_map, psi, x, mu, CFG).matrix
            assert np.linalg.norm(got - sh.closed_form(x, mu)) <= 1e-3


class TestConnectionFormAction:
    def test_vertical_curve_maurer_cartan(self, sec6):
        h_map, psi, _ = sec6
        for z in (2.0, 1.25, 0.8):
            curve = TrivializedCurve.vertical(
                psi, [1.0, 2.0], lambda i, z=z: GroupElement(MULTIPLICATIVE_REALS, [[z + i]])
            )
            got = connection_form_action(h_map, curve, 0.0, CFG).matrix[0, 0]
            assert abs(got - 1.0 / z) <= 1e-8

    def test_horizontal_lift_annihilated(self, sec6):
        h_map, psi, spec6 = sec6
        p = straight_segment([0.2, 0.0], [1.0, 1.3])
        curve = TrivializedCurve.horizontal_lift(h_map, psi, p, GroupElement.identity(spec6.spec))
        got = connection_form_action(h_map, curve, 0.5, CFG)
        assert got.norm() <= 1e-6

    def test_matches_straight_shift_reconstruction(self, sec6):
        # the two difference quotients are the same derivative; they must
        # agree within the scheme's own error scale at every grid node
        h_map, psi, spec6 = sec6
        for x in GridSpec(-1.0, 1.0, 3).nodes(2):
            for mu in (0, 1):
                curve = TrivializedCurve.coordinate_shift(psi, x, mu, spec6.spec, span=1.0)
                via_form = connection_form_action(h_map, curve, 0.5, CFG).matrix
                via_shift = reconstruct_potential(h_map, psi, x, mu, CFG).matrix
                assert np.linalg.norm(via_form - via_shift) <= 5.0 * CFG.h**2

    def test_right_translation_acts_by_adjoint(self):
        tw = hf.get_preset("su2-twist")
        h_map, psi = tw.holonomy_map(), tw.frame()
        x1, _, x3 = (b.matrix for b in su2_basis())
        g_curve = lambda i: GroupElement(SU2, scipy.linalg.expm(0.3 * i * x1 + 0.1 * i * x3))
        vert = TrivializedCurve.vertical(psi, [0.4, 0.3], g_curve)
        base_val = connection_form_action(h_map, vert, 0.2, CFG).matrix
        g0 = GroupElement(SU2, scipy.linalg.expm(0.7 * su2_basis()[1].matrix))
        shifted = connection_form_action(h_map, vert.right_translated(g0), 0.2, CFG).matrix
        expected = g0.inverse().matrix @ base_val @ g0.matrix
        assert np.linalg.norm(shifted - expected) <= 1e-6

    def test_abelian_right_translation_invariant(self, sec6):
        h_map, psi, _ = sec6
        curve = TrivializedCurve.vertical(
            psi, [1.0, 2.0], lambda i: GroupElement(MULTIPLICATIVE_REALS, [[2.0 + i]])
        )
        g0 = GroupElement(MULTIPLICATIVE_REALS, [[3.7]])
        a = connection_form_action(h_map, curve, 0.0, CFG).matrix
        b = connection_form_action(h_map, curve.right_translated(g0), 0.0, CFG).matrix
        assert np.linalg.norm(a - b) <= 1e-9

    def test_interior_parameter_required(self, sec6):
        h_map, psi, spec6 = sec6
        curve = TrivializedCurve.coordinate_shift(psi, np.array([0.5, 0.5]), 0, spec6.spec)
        with pytest.raises(ValueError):
            connection_form_action(h_map, curve, 0.0, CFG)


class TestHorizontalTransport:
    def test_initial_value(self, sec6):
        h_map, psi, spec6 = sec6
        g0 = GroupElement(MULTIPLICATIVE_REALS, [[2.5]])
        p = straight_segment([0.3, 0.1], [1.0, 0.8])
        assert group_distance(horizontal_transport(h_map, psi, p, g0, 0.0), g0) <= 1e-12

    def test_constant_path_transport_is_trivial(self, sec6):
        h_map, psi, _ = sec6
        g0 = GroupElement(MULTIPLICATIVE_REALS, [[2.5]])
        from holonomy_forge.path_algebra import constant_path

        p = constant_path([0.4, 0.9])
        for i in (0.25, 0.5, 1.0):
            assert group_distance(horizontal_transport(h_map, psi, p, g0, i), g0) <= 1e-12

    def test_radial_ray_transport_is_constant(self, sec6):
        # the radial-frame potential vanishes along rays from the base point
        h_map, psi, _ = sec6
        g0 = GroupElement.identity(MULTIPLICATIVE_REALS)
        p = straight_segment([0.0, 0.0], [1.0, 1.0])
        got = horizontal_transport(h_map, psi, p, g0, 1.0)
        assert abs(got.matrix[0, 0] - 1.0) <= 1e-12

    def test_agrees_with_ode_transport_in_reconstructed_potential(self, sec6):
        h_map, psi, _ = sec6
        a_rec = PotentialField.from_holonomy(h_map, psi, CFG).to_connection_field()
        g0 = GroupElement.identity(MULTIPLICATIVE_REALS)
        p = compose_paths(
            straight_segment([1.0, 0.3], [0.4, 1.1]), straight_segment([0.2, -0.5], [1.0, 0.3])
        )
        lhs = horizontal_transport(h_map, psi, p, g0, 1.0)
        rhs = transport_along(a_rec, p, g0, 64)
        assert group_distance(lhs, rhs) <= 1e-6


class TestTransitionFunction:
    def test_same_frame_gives_identity(self, sec6):
        h_map, psi, _ = sec6
        t = transition_function(h_map, psi, psi, [1.3, -0.8])
        assert abs(t.matrix[0, 0] - 1.0) <= 1e-14

    def test_dogleg_to_radial_area_oracle(self, sec6):
        # the enclosed lens between the two frame paths has y dx integral -1/2
        h_map, psi, _ = sec6
        dogleg = axis_dogleg_family(ORIGIN)
        t = transition_function(h_map, dogleg, psi, [1.0, 1.0])
        assert abs(t.matrix[0, 0] - math.exp(-0.5)) <= 1e-9

    def test_cocycle_inverse(self, sec6):
        h_map, psi, _ = sec6
        dogleg = axis_dogleg_family(ORIGIN)
        x = [0.7, 1.1]
        ab = transition_function(h_map, psi, dogleg, x)
        ba = transition_function(h_map, dogleg, psi, x)
        assert group_distance(ab @ ba, GroupElement.identity(MULTIPLICATIVE_REALS)) <= 1e-10

    def test_mismatched_base_points_rejected(self, sec6):
        h_map, psi, _ = sec6
        from holonomy_forge.holonomy import BasepointMismatch

        other = radial_family([1.0, 0.0])
        with pytest.raises(BasepointMismatch):
            transition_function(h_map, psi, other, [1.0, 1.0])


class TestGaugeTransform:
    def test_identity_field_returns_potential(self, sec6):
        h_map, psi, _ = sec6
        a = PotentialField.from_holonomy(h_map, psi, CFG)
        ident = GroupElement.identity(MULTIPLICATIVE_REALS)
        x = np.array([0.9, 0.4])
        for mu in (0, 1):
            got = gauge_transform_potential(a, lambda pts: [ident] * len(pts), x, mu, CFG)
            assert np.linalg.norm(got.matrix - a.matrix(x, mu)) <= 1e-12

    def test_pure_gauge_from_zero_potential(self):
        # with A = 0 and g = exp(f), the transform is the gradient of f
        zero = PotentialField.from_connection(ConnectionField.zero(2, MULTIPLICATIVE_REALS))
        calls = []

        def gfield(pts):
            calls.append(pts.shape)
            return [GroupElement(MULTIPLICATIVE_REALS, [[math.exp(x[0] * x[1])]]) for x in pts]

        x = np.array([0.7, -1.2])
        d0 = gauge_transform_potential(zero, gfield, x, 0, CFG).matrix[0, 0]
        d1 = gauge_transform_potential(zero, gfield, x, 1, CFG).matrix[0, 0]
        assert abs(d0 - x[1]) <= 1e-9
        assert abs(d1 - x[0]) <= 1e-9
        # One gfield call per transform: the point and its four shifts.
        assert calls == [(5, 2), (5, 2)]

    def test_fast_varying_gauge_field_rejected(self):
        zero = PotentialField.from_connection(ConnectionField.zero(2, MULTIPLICATIVE_REALS))
        steep = lambda pts: [GroupElement(MULTIPLICATIVE_REALS, [[1.0 + 1e5 * abs(x[0])]]) for x in pts]
        with pytest.raises(StepTooLarge):
            gauge_transform_potential(zero, steep, np.array([0.5, 0.0]), 0, CFG)

    def test_frame_covariance_radial_vs_dogleg(self, sec6):
        h_map, psi, _ = sec6
        dogleg = axis_dogleg_family(ORIGIN)
        a_rad = PotentialField.from_holonomy(h_map, psi, CFG)
        a_dog = PotentialField.from_holonomy(h_map, dogleg, CFG)
        relating = lambda x: transition_function(h_map, psi, dogleg, x)
        for x in ([0.5, 0.5], [1.0, -0.7], [-1.3, 0.8]):
            x = np.array(x)
            for mu in (0, 1):
                expected = gauge_transform_potential(a_rad, relating, x, mu, CFG).matrix
                assert np.linalg.norm(a_dog.matrix(x, mu) - expected) <= 1e-5


class TestCurvature:
    def test_closed_form_ydx(self):
        a = PotentialField.from_connection(hf.get_preset("paper-sec6").connection)
        f = curvature(a, np.array([0.4, -0.9]), 0, 1, CFG).matrix[0, 0]
        assert abs(f - (-1.0)) <= 1e-9

    def test_reconstructed_matches_input(self, sec6):
        h_map, psi, _ = sec6
        a_rec = PotentialField.from_holonomy(h_map, psi, CFG)
        a_in = PotentialField.from_connection(hf.get_preset("paper-sec6").connection)
        for x in ([0.5, 0.5], [-1.0, 1.0]):
            f_rec = curvature(a_rec, np.array(x), 0, 1, CFG).matrix[0, 0]
            f_in = curvature(a_in, np.array(x), 0, 1, CFG).matrix[0, 0]
            assert abs(f_rec - f_in) <= 1e-4
            assert abs(f_rec - (-1.0)) <= 1e-4

    def test_constant_abelian_field_is_flat(self):
        const = ConnectionField.from_polynomial(
            2, MULTIPLICATIVE_REALS, [[(0.7, (0, 0), 0)], [(1.3, (0, 0), 0)]]
        )
        a = PotentialField.from_connection(const)
        assert curvature(a, np.array([0.2, 0.4]), 0, 1, CFG).norm() <= 1e-12

    def test_antisymmetry_exact(self, sec6):
        h_map, psi, _ = sec6
        a = PotentialField.from_holonomy(h_map, psi, CFG)
        x = np.array([0.8, 0.3])
        f01 = curvature(a, x, 0, 1, CFG).matrix
        f10 = curvature(a, x, 1, 0, CFG).matrix
        assert np.array_equal(f01, -f10)

    def test_su2_shear_field_strength(self):
        sh = hf.get_preset("su2-shear")
        a = PotentialField.from_connection(sh.connection)
        f = curvature(a, np.array([0.4, -0.2]), 0, 1, CFG).matrix
        assert np.linalg.norm(f - su2_basis()[2].matrix) <= 1e-9

    def test_commutator_term_enters(self):
        # A_1 = X1, A_2 = x1 X3: F = X3 + x1 [X1, X3] = X3 + x1 X2
        x1b, x2b, x3b = (b.matrix for b in su2_basis())
        field = ConnectionField.from_polynomial(
            2, SU2, [[(1.0, (0, 0), 0)], [(1.0, (1, 0), 2)]]
        )
        a = PotentialField.from_connection(field)
        pt = np.array([0.6, 0.1])
        f = curvature(a, pt, 0, 1, CFG).matrix
        assert np.linalg.norm(f - (x3b + pt[0] * x2b)) <= 1e-9


class TestRoundTrip:
    def test_zero_connection_all_zero(self):
        zero = hf.get_preset("zero-connection")
        report = round_trip_report(
            zero.connection,
            radial_family(ORIGIN),
            GridSpec(-1.0, 1.0, 3),
            CFG,
            steps_per_segment=16,
            tolerances={"curvature": 1e-10, "gauge": 1e-10, "transport": 1e-10},
            transport_paths=4,
            transport_steps=8,
        )
        assert report.max_curvature_defect <= 1e-10
        assert report.max_gauge_defect <= 1e-10
        assert report.max_transport_defect <= 1e-10
        assert report.within() and not report.failures

    def test_ydx_5x5(self):
        ydx = hf.get_preset("abelian-ydx")
        report = round_trip_report(
            ydx.connection,
            radial_family(ORIGIN),
            GridSpec(-1.0, 1.0, 5),
            CFG,
            steps_per_segment=64,
            tolerances={"curvature": 1e-4, "gauge": 1e-5, "transport": 1e-4},
            transport_paths=4,
        )
        assert report.within(), report.to_json_dict()

    def test_per_point_failures_recorded_not_raised(self):
        def exploding(x, mu):
            if np.linalg.norm(x - np.array([1.0, 1.0])) < 0.4:
                raise ValueError("pole in the coefficient field")
            return np.zeros((1, 1))

        field = ConnectionField.from_matrix_rule(2, MULTIPLICATIVE_REALS, exploding)
        report = round_trip_report(
            field,
            radial_family(ORIGIN),
            GridSpec(-1.0, 1.0, 2),
            CFG,
            steps_per_segment=4,
            transport_paths=0,
        )
        assert report.failures
        assert not report.within()

    def test_report_json_keys(self):
        report = RoundTripReport({"box": [-1, 1]}, 1e-9, 2e-9, 3e-9, {"curvature": 1e-4})
        d = report.to_json_dict()
        assert list(d.keys()) == [
            "grid",
            "max_curvature_defect",
            "max_gauge_defect",
            "max_transport_defect",
            "tolerances",
            "failures",
        ]


class TestPotentialField:
    def test_memoization(self, sec6):
        h_map, psi, _ = sec6
        calls = []

        def counting(xs, mu):
            calls.append((xs.tolist(), mu))
            return reconstruct_potential(h_map, psi, xs, mu, CFG)

        pf = PotentialField(2, MULTIPLICATIVE_REALS, counting)
        x = np.array([0.5, 0.25])
        pf(x, 0)
        pf(x, 0)
        pf(np.array([0.5, 0.25]), 0)
        assert len(calls) == 1

    @pytest.mark.parametrize("x", [[0.5, 0.2, 9.0], [0.5], [[0.5, 0.2, 9.0]]])
    def test_point_of_the_wrong_length_rejected(self, x):
        pf = PotentialField.from_connection(hf.get_preset("su2-shear").connection)
        with pytest.raises(ValueError, match="expected a point of R\\^2"):
            pf(np.array(x), 0)

    def test_evaluator_receives_point_arrays(self, sec6):
        h_map, psi, _ = sec6
        shapes = []

        def recording(xs, mu):
            shapes.append(xs.shape)
            return reconstruct_potential(h_map, psi, xs, mu, CFG)

        pf = PotentialField(2, MULTIPLICATIVE_REALS, recording)
        xs = np.array(GridSpec(-1.0, 1.0, 3).nodes(2))
        pf.matrices(xs, 0)
        assert shapes == [(9, 2)]
        pf(np.array([0.3, 0.4]), 1)
        assert shapes == [(9, 2), (1, 2)]
        pf.matrices(np.concatenate([xs, [[0.3, 0.4]]]), 0)
        pf.matrices(np.concatenate([xs[:2], [[0.3, 0.4]]]), 1)
        assert shapes == [(9, 2), (1, 2), (1, 2), (2, 2)]

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 1, 2)])
    def test_points_of_the_wrong_dimension_raise(self, sec6, shape):
        h_map, psi, _ = sec6
        for pf in (PotentialField.from_holonomy(h_map, psi, CFG), PotentialField.from_connection(h_map.field)):
            with pytest.raises(ValueError, match="shape"):
                pf.matrices(np.zeros(shape), 0)
            assert pf._memo == {}

    @pytest.mark.parametrize("bad", [[np.nan, np.nan], [np.inf, 0.0]])
    def test_non_finite_frame_target_raises(self, bad):
        # Unchecked, a NaN target's loop thins away and gives the zero potential.
        with pytest.raises(ValueError, match="finite"):
            reconstruct_potential(hf.get_preset("su2-shear").holonomy_map(), radial_family([0.0, 0.0]), bad, 0)

    def test_invariants_of_reconstructed_values(self, sec6):
        h_map, psi, _ = sec6
        pf = PotentialField.from_holonomy(h_map, psi, CFG)
        pf(np.array([0.7, 0.2]), 0).validate()

    def test_csv_header_and_precision(self, sec6):
        h_map, psi, _ = sec6
        pf = PotentialField.from_holonomy(h_map, psi, CFG)
        text = potential_grid_csv(pf, GridSpec(-1.0, 1.0, 2))
        lines = text.strip().split("\n")
        assert lines[0] == "x1,x2,mu,re_0_0,im_0_0"
        assert len(lines) == 1 + 4 * 2
        value = lines[1].split(",")[3]
        assert len(value.replace("-", "").replace(".", "").split("e")[0]) >= 15


class TestRichardson:
    def test_gain_and_order(self):
        # the quartic field keeps fifth-order structure in its difference
        # quotients, so the extrapolated scheme's order is measurable
        q = hf.get_preset("abelian-quartic")
        h_map, psi = q.holonomy_map(), q.frame()
        x = np.array([1.1, 0.7])
        errors = []
        for h in (0.04, 0.02, 0.01):
            got = reconstruct_potential(h_map, psi, x, 0, FdConfig(h=h, curvature_h=0.05)).matrix[0, 0]
            errors.append(abs(got - q.closed_form(x, 0)[0, 0]))
        gains = [a / b for a, b in zip(errors[:-1], errors[1:])]
        assert min(gains) >= 8.0, errors
        orders = [math.log2(g) for g in gains]
        assert min(orders) >= 3.0, orders


class TestArrayForms:
    # An (m, dim) array of points gives, bit for bit, the values of m
    # single-point calls, each made on a fresh potential (no shared memo).
    POINTS = np.array([[0.5, 0.5], [-0.3, 0.7], [0.0, 0.0], [0.6, -0.2]])

    @staticmethod
    def setting(name):
        p = hf.get_preset(name)
        h_map = p.holonomy_map()
        return p, h_map, lambda: PotentialField.from_holonomy(h_map, p.frame(), CFG)

    @pytest.mark.parametrize("name", ["paper-sec6", "su2-twist"])
    def test_curvature(self, name):
        _, _, fresh = self.setting(name)
        batched = curvature(fresh(), self.POINTS, 0, 1, CFG)
        assert len(batched) == len(self.POINTS)
        for x, f in zip(self.POINTS, batched):
            assert np.array_equal(f.matrix, curvature(fresh(), x, 0, 1, CFG).matrix)

    @pytest.mark.parametrize("name", ["paper-sec6", "su2-twist"])
    def test_transition_function_and_gauge_transform(self, name):
        p, h_map, fresh = self.setting(name)
        dogleg = axis_dogleg_family(ORIGIN)
        batched = transition_function(h_map, p.frame(), dogleg, self.POINTS)
        for x, t in zip(self.POINTS, batched):
            assert np.array_equal(t.matrix, transition_function(h_map, p.frame(), dogleg, x).matrix)
        # transition_function is itself a batch gauge field.
        relating = lambda pts: transition_function(h_map, p.frame(), dogleg, pts)
        for mu in (0, 1):
            batched = gauge_transform_potential(fresh(), relating, self.POINTS, mu, CFG)
            for x, a in zip(self.POINTS, batched):
                assert np.array_equal(a.matrix, gauge_transform_potential(fresh(), relating, x, mu, CFG).matrix)

    def test_round_trip_checks_all_nodes_in_one_batch(self, monkeypatch):
        # A failure-free round trip makes one curvature call per pair of
        # directions and potential, one gauge transform per direction, and
        # no single-point PotentialField calls.
        from holonomy_forge import reconstruction

        counts = {"call": 0, "curvature": 0, "gauge_transform_potential": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(PotentialField, "__call__", counting("call", PotentialField.__call__))
        for key in ("curvature", "gauge_transform_potential"):
            monkeypatch.setattr(reconstruction, key, counting(key, getattr(reconstruction, key)))
        field = ConnectionField.from_polynomial(
            3, MULTIPLICATIVE_REALS, [[(1.0, (0, 1, 0), 0)], [(0.5, (0, 0, 1), 0)], [(-0.3, (1, 0, 0), 0)]]
        )
        report = round_trip_report(
            field, radial_family(np.zeros(3)), GridSpec(-0.5, 0.5, 2), CFG,
            steps_per_segment=8, transport_paths=2, transport_steps=4,
        )
        assert not report.failures
        assert counts == {"call": 0, "curvature": 2 * 3, "gauge_transform_potential": 3}


class TestBatchedReconstruction:
    # Nodes: the base point, points sharing a coordinate with it (the
    # dogleg frame then has degenerate legs and exact reversals) and
    # generic points.
    POINTS = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, -0.6], [0.7, -0.4]])

    @pytest.mark.parametrize("richardson", [True, False])
    @pytest.mark.parametrize(
        "spec", [MULTIPLICATIVE_REALS, U1, SU2, gln(2)], ids=lambda s: f"{s.name.value}{s.matrix_dim}"
    )
    def test_matches_per_loop_oracle(self, spec, richardson, rng):
        field = random_affine_field(spec, rng, scale=0.5)
        h_map = HolonomyMap.transport(field, ORIGIN, 8)
        cfg = FdConfig(h=1e-3, richardson=richardson, curvature_h=1e-2)
        for psi in (radial_family(ORIGIN), axis_dogleg_family(ORIGIN)):
            for mu in (0, 1):
                got = reconstruct_potential(h_map, psi, self.POINTS, mu, cfg)
                assert len(got) == len(self.POINTS)
                for x, a in zip(self.POINTS, got):
                    expected = reference_potential(field, psi, x, mu, cfg.h, richardson, 8)
                    assert np.linalg.norm(a.matrix - expected) <= 1e-9, (x, mu)

    @pytest.mark.parametrize("preset", ["paper-sec6", "su2-shear"])
    def test_single_point_is_the_batch_of_one(self, preset):
        p = hf.get_preset(preset)
        h_map, psi = p.holonomy_map(32), p.frame()
        xs = GridSpec(-1.0, 1.0, 4).nodes(2)
        for mu in (0, 1):
            batch = reconstruct_potential(h_map, psi, np.array(xs), mu, CFG)
            for x, a in zip(xs, batch):
                single = reconstruct_potential(h_map, psi, x, mu, CFG)
                assert np.array_equal(a.matrix, single.matrix)
                assert np.linalg.norm(a.matrix - p.closed_form(x, mu)) <= 1e-3

    @pytest.mark.parametrize("miss", ["start", "end"])
    def test_frame_endpoints_checked_in_a_batch(self, sec6, miss):
        # A straight frame whose path to one node misses the base point or
        # that node by 1e-6.
        def ends(x):
            start, end = ORIGIN.copy(), np.array(x, dtype=float)
            if np.allclose(x, [0.5, -0.5], atol=0.01):
                (start if miss == "start" else end)[0] += 1e-6
            return start, end

        def table_rule(xs):
            rows = [np.stack([a, a, b, b]) for a, b in map(ends, xs)]
            return np.zeros((len(xs), 1), dtype=bool), np.array(rows)[:, None]

        psi = PathFamily(2, ORIGIN, table_rule=table_rule)
        message = "does not start at the base point" if miss == "start" else "does not end at the target point"
        points = np.array([[0.2, 0.3], [0.5, -0.5], [-0.4, 0.1]])
        with pytest.raises(ValueError, match=message):
            reconstruct_potential(sec6[0], psi, points, 0, CFG)
        with pytest.raises(ValueError, match=message):
            PotentialField.from_holonomy(sec6[0], psi, CFG).matrices(points, 1)

    @pytest.mark.parametrize("frame", [radial_family, axis_dogleg_family])
    def test_frame_paths_are_not_fetched_one_by_one(self, sec6, frame, monkeypatch):
        fetches = []
        getitem = PathFamily.__getitem__
        monkeypatch.setattr(PathFamily, "__getitem__", lambda psi, x: fetches.append(x) or getitem(psi, x))
        xs = np.array(GridSpec(-1.0, 1.0, 4).nodes(2))
        for mu in (0, 1):
            reconstruct_potential(sec6[0], frame(ORIGIN), xs, mu, CFG)
            reconstruct_potential(sec6[0], frame(ORIGIN), xs[0], mu, CFG)
        assert fetches == []

    def test_step_too_large_raised_from_inside_a_batch(self):
        strong = ConnectionField.from_polynomial(
            2, MULTIPLICATIVE_REALS, [[(40.0, (0, 1), 0)], []]
        )
        h_map = HolonomyMap.analytic_abelian(strong, ORIGIN)
        cfg = FdConfig(h=0.05, richardson=False, curvature_h=0.05)
        with pytest.raises(StepTooLarge):
            reconstruct_potential(h_map, radial_family(ORIGIN), [[0.1, 0.1], [3.0, 3.0], [0.2, 0.1]], 0, cfg)

    def test_integration_error_raised_from_inside_a_batch(self):
        # One RK4 step along (0,0) -> (1,0) of A_1 = 20 x^2 - 10 x has a
        # negative propagator; the frame leg of the second node is that path.
        field = ConnectionField.from_polynomial(
            2, MULTIPLICATIVE_REALS, [[(20.0, (2, 0), 0), (-10.0, (1, 0), 0)], []]
        )
        h_map = HolonomyMap.transport(field, ORIGIN, 1)
        with pytest.raises(IntegrationError):
            reconstruct_potential(h_map, radial_family(ORIGIN), [[0.5, 0.5], [1.0, 0.0]], 1, CFG)

    def test_memo_hits_match_single_point_calls(self, sec6):
        h_map, psi, _ = sec6
        xs = np.array(GridSpec(-1.0, 1.0, 3).nodes(2))
        xs = np.concatenate([xs, xs[::2]])  # repeated points
        batched = PotentialField.from_holonomy(h_map, psi, CFG)
        single = PotentialField.from_holonomy(h_map, psi, CFG)
        for mu in (0, 1):
            values = batched.matrices(xs, mu)
            assert values.shape == (len(xs), 1, 1)
            for x, v in zip(xs, values):
                assert np.array_equal(single.matrix(x, mu), v)
        assert batched._memo.keys() == single._memo.keys()
        size = len(batched._memo)
        for x in xs:
            batched(x, 0)
        single.matrices(xs, 1)
        assert len(batched._memo) == len(single._memo) == size

    def test_round_trip_failures_match_serial_evaluation(self, monkeypatch):
        def region_field(x, mu):
            if x[0] > 0.55:
                raise ValueError("pole in the coefficient field")
            return np.array([[x[1] if mu == 0 else 0.0]])

        cases = [
            (ConnectionField.from_matrix_rule(2, MULTIPLICATIVE_REALS, region_field), GridSpec(-1.0, 1.0, 3), CFG),
            (
                ConnectionField.from_polynomial(2, MULTIPLICATIVE_REALS, [[(40.0, (0, 1), 0)], []]),
                GridSpec(-3.0, 3.0, 3),
                FdConfig(h=0.05, richardson=False, curvature_h=0.05),
            ),
        ]

        def reports():
            return [
                round_trip_report(
                    field, radial_family(ORIGIN), grid, cfg,
                    steps_per_segment=8, transport_paths=4, transport_steps=4, seed=5,
                ).to_json_dict()
                for field, grid, cfg in cases
            ]

        batched = reports()
        monkeypatch.setattr(
            PotentialField, "matrices", lambda self, pts, mu: np.stack([self.matrix(x, mu) for x in pts])
        )
        serial = reports()
        assert all(r["failures"] for r in batched)
        assert batched == serial

    @pytest.mark.parametrize("preset", ["abelian-ydx", "su2-twist"])
    def test_gauge_field_batch_matches_single_points(self, preset, rng):
        p = hf.get_preset(preset)
        xs = rng.uniform(-1.0, 1.0, size=(6, 2))
        gfield = _relating_gauge_field(p.connection, p.frame(), 16)
        batched = gfield(np.concatenate([xs, xs[:2]]))
        for x, g in zip(xs, batched):
            assert np.array_equal(g.matrix, gfield(x[None])[0].matrix)

    def test_su2_twist_curvature_is_gauge_covariant(self):
        # non-commuting field: the reconstructed curvature equals the input
        # curvature only after conjugation by the relating gauge field
        tw = hf.get_preset("su2-twist")
        report = round_trip_report(
            tw.connection, tw.frame(), GridSpec(-0.5, 0.5, 3), CFG, steps_per_segment=64, transport_paths=0
        )
        assert not report.failures
        assert report.max_curvature_defect <= 1e-3
