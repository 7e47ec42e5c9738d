import itertools
import math
import re

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
from holonomy_forge.holonomy import ConnectionField, DimMismatch, HolonomyMap, IntegrationError, transport_along
from holonomy_forge.path_algebra import (
    PathFamily,
    PathNd,
    axis_dogleg_family,
    compose_paths,
    constant_path,
    radial_family,
    straight_segment,
)
from holonomy_forge.reconstruction import (
    FdConfig,
    GridSpec,
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
    reconstructed_connection,
    round_trip_report,
    transition_function,
)

from _oracles import (
    reference_connection_form,
    reference_frame_loops,
    reference_horizontal_transport,
    reference_potential,
    reference_potential_grid_csv,
    reference_transition_function,
)
from conftest import polyline, random_affine_field

ORIGIN = np.zeros(2)
CFG = FdConfig()


@pytest.fixture(scope="module")
def sec6():
    p = hf.get_preset("paper-sec6")
    return p.holonomy_map(), p.frame(), p


def count_reconstructions(monkeypatch) -> list:
    """Count the reconstructions that connection rules make: the returned
    list gets the number of points of each ``reconstruct_potential`` call
    (calls made under the name imported here are not counted)."""
    from holonomy_forge import reconstruction

    real, calls = reconstruction.reconstruct_potential, []

    def counting(h_map, psi, x, *args):
        calls.append(len(np.atleast_2d(x)))
        return real(h_map, psi, x, *args)

    monkeypatch.setattr(reconstruction, "reconstruct_potential", counting)
    return calls


class TestFdConfig:
    def test_defaults(self):
        assert CFG.h == 1e-4 and CFG.richardson and CFG.curvature_h == 1e-3

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            FdConfig(h=0.5)
        with pytest.raises(ValueError):
            FdConfig(h=1e-3, curvature_h=1e-4)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                FdConfig(curvature_h=bad)


class TestGridSpec:
    # An infinite end used to give nan nodes with a RuntimeWarning.
    @pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0), (1.0, 1.0), (2.0, 1.0)])
    def test_box_must_be_finite_and_non_empty(self, lo, hi):
        with pytest.raises(ValueError, match="the box must be finite with lo < hi"):
            GridSpec(lo, hi, 3)

    # A fractional resolution used to be accepted and fail inside numpy on
    # nodes(), and a string to raise TypeError.
    @pytest.mark.parametrize("resolution", [2.5, 3.0, "3", True, 1, 0, -2, None])
    def test_resolution_must_be_an_integer_of_at_least_2(self, resolution):
        with pytest.raises(ValueError, match="the grid resolution must be an integer of at least 2"):
            GridSpec(0.0, 1.0, resolution)

    @pytest.mark.parametrize("resolution", [2, 3, np.int64(4)])
    def test_integer_resolutions_give_their_nodes(self, resolution):
        assert GridSpec(0.0, 1.0, resolution).nodes(2).shape == (int(resolution) ** 2, 2)


class TestReconstructPotential:
    def test_closed_form_on_grid(self, sec6):
        h_map, psi, _ = sec6
        for x in GridSpec(-2.0, 2.0, 5).nodes(2):
            a1 = reconstruct_potential(h_map, psi, x, 0, CFG)[0].matrix[0, 0]
            a2 = reconstruct_potential(h_map, psi, x, 1, CFG)[0].matrix[0, 0]
            assert abs(a1 - x[1] / 2.0) <= 1e-6
            assert abs(a2 - (-x[0] / 2.0)) <= 1e-6

    def test_zero_connection_is_exactly_zero(self):
        zero = hf.get_preset("zero-connection")
        h_map, psi = zero.holonomy_map(), zero.frame()
        for mu in (0, 1):
            assert reconstruct_potential(h_map, psi, [0.3, -0.7], mu, CFG)[0].norm() == 0.0

    def test_degenerate_base_point(self, sec6):
        h_map, psi, _ = sec6
        for mu in (0, 1):
            assert abs(reconstruct_potential(h_map, psi, ORIGIN, mu, CFG)[0].matrix[0, 0]) <= 1e-9

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
            got = reconstruct_potential(h_map, psi, x, mu, CFG)[0].matrix
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
                via_shift = reconstruct_potential(h_map, psi, x, mu, CFG)[0].matrix
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


class TestFrameLoops:
    # The connection form's loops are built by one builder and evaluated as
    # one batch; every value equals, bit for bit, the one computed loop by
    # loop from legs composed one at a time.
    P = compose_paths(straight_segment([1.0, 0.3], [0.4, 1.1]), straight_segment([0.2, -0.5], [1.0, 0.3]))

    @staticmethod
    def curves(name):
        """(curve, reference curve, j) on a preset: vertical, right-translated
        and horizontal-lift curves; the reference lift transports per loop."""
        p = hf.get_preset(name)
        h_map, psi = p.holonomy_map(), p.frame()
        if p.spec is SU2:
            x1, x2, x3 = (b.matrix for b in su2_basis())
            g = lambda i: GroupElement(SU2, scipy.linalg.expm(0.3 * i * x1 + 0.1 * i * x3))
            g0 = GroupElement(SU2, scipy.linalg.expm(0.7 * x2))
        else:
            g = lambda i: GroupElement(MULTIPLICATIVE_REALS, [[2.0 + i]])
            g0 = GroupElement(MULTIPLICATIVE_REALS, [[3.7]])
        vert = TrivializedCurve.vertical(psi, [0.4, 0.3], g)
        lift = TrivializedCurve.horizontal_lift(h_map, psi, TestFrameLoops.P, g0)
        ref_lift = TrivializedCurve(
            psi, TestFrameLoops.P, lambda i: reference_horizontal_transport(h_map, psi, TestFrameLoops.P, g0, i), (0, 1)
        )
        cases = [(vert, vert, 0.2), (vert.right_translated(g0), vert.right_translated(g0), 0.0)]
        cases += [(lift, ref_lift, 0.3), (lift, ref_lift, 0.5)]
        cases.append((lift.right_translated(g0), ref_lift.right_translated(g0), 0.5))
        return h_map, psi, p.spec, cases

    @pytest.mark.parametrize("name", ["paper-sec6", "su2-twist"])
    @pytest.mark.parametrize("richardson", [True, False])
    def test_curves_match_per_loop_reference(self, name, richardson):
        h_map, psi, spec, cases = self.curves(name)
        cfg = FdConfig(richardson=richardson)
        for x in GridSpec(-1.0, 1.0, 3).nodes(2):
            for mu in (0, 1):
                shift = TrivializedCurve.coordinate_shift(psi, x, mu, spec)
                cases.append((shift, shift, 0.5))
        for curve, ref, j in cases:
            got = connection_form_action(h_map, curve, j, cfg).matrix
            assert np.array_equal(got, reference_connection_form(h_map, ref, j, cfg.h, richardson)), (curve, j)

    @pytest.mark.parametrize("name", ["paper-sec6", "su2-twist"])
    def test_horizontal_transport_matches_per_loop_reference(self, name):
        # A constant path and paths of 1, 2 and 3 pieces as one batch: each
        # value is, bit for bit, the one of its path alone and the one of
        # its loop composed leg by leg, from the identity and from another g0.
        # The last path ends where the one before it starts, so at i = 1 the
        # last leg of a loop and the first of the next retrace each other.
        p = hf.get_preset(name)
        h_map, psi, d = p.holonomy_map(), p.frame(), p.spec.matrix_dim
        if p.spec is SU2:
            g1 = GroupElement(SU2, scipy.linalg.expm(0.7 * su2_basis()[1].matrix))
        else:
            g1 = GroupElement(MULTIPLICATIVE_REALS, [[3.7]])
        paths = [constant_path([0.4, 0.9]), straight_segment([0.3, 0.1], [1.0, 0.8]), self.P]
        paths.append(compose_paths(straight_segment([0.4, 1.1], [-0.6, 0.2]), self.P))
        paths.append(straight_segment([0.5, 0.5], [0.2, -0.5]))
        for g0, i in itertools.product((GroupElement.identity(p.spec), g1), (0.0, 0.25, 0.5, 1.0)):
            got = horizontal_transport(h_map, psi, paths, g0, i)
            assert got.shape == (len(paths), d, d) and got.dtype == p.spec.dtype
            for path, value in zip(paths, got, strict=True):
                assert np.array_equal(value, horizontal_transport(h_map, psi, path, g0, i).matrix), (path, i)
                assert np.array_equal(value, reference_horizontal_transport(h_map, psi, path, g0, i).matrix), (path, i)

    @pytest.mark.parametrize("name", ["paper-sec6", "su2-twist"])
    def test_loops_from_tables_match_composed_paths(self, name, monkeypatch):
        # Each loop thin-reduced as rows, then made one path, gives the values
        # of the path built first and thin-reduced into a second one, bit for
        # bit: on vertical curves (whose loops are fully thin), coordinate
        # shifts and horizontal lifts, and transport to i = 0 (fully thin) .. 1
        # along one path and along a batch of paths, one of them constant.
        from holonomy_forge import reconstruction

        h_map, psi, spec, cases = self.curves(name)
        curves = [(curve, j) for curve, _, j in cases]
        for x in ([0.4, -0.3], ORIGIN):
            curves += [(TrivializedCurve.coordinate_shift(psi, x, mu, spec), 0.5) for mu in (0, 1)]
        ident = GroupElement.identity(spec)

        def values():
            cfgs = (FdConfig(richardson=True), FdConfig(richardson=False))
            forms = [connection_form_action(h_map, c, j, cfg) for c, j in curves for cfg in cfgs]
            paths = [self.P, constant_path([0.4, 0.9]), straight_segment([0.3, 0.1], [1.0, 0.8])]
            transports = [horizontal_transport(h_map, psi, self.P, ident, i).matrix for i in (0.0, 0.25, 0.5, 1.0)]
            batches = [m for i in (0.0, 0.25, 0.5, 1.0) for m in horizontal_transport(h_map, psi, paths, ident, i)]
            return [m.matrix for m in forms] + transports + batches

        got = values()
        monkeypatch.setattr(reconstruction, "_frame_loops", reference_frame_loops)
        assert all(np.array_equal(a, b) for a, b in zip(got, values(), strict=True))

    @pytest.mark.parametrize("richardson, loops", [(True, 4), (False, 2)])
    def test_one_holonomy_batch_per_form(self, sec6, monkeypatch, richardson, loops):
        from holonomy_forge import reconstruction

        h_map, psi, spec6 = sec6
        batches, real = [], reconstruction.eval_holonomy
        monkeypatch.setattr(reconstruction, "eval_holonomy", lambda h, ls: batches.append(len(ls)) or real(h, ls))
        curve = TrivializedCurve.coordinate_shift(psi, [0.5, -0.2], 1, spec6.spec)
        connection_form_action(h_map, curve, 0.5, FdConfig(richardson=richardson))
        assert batches == [loops]


class TestDirectionIndex:
    # A direction outside range(dim) used to index the last axis (-1) or
    # raise a bare IndexError (dim); a float one raised TypeError or
    # numpy's IndexError, and a bool was taken for 0 or 1.
    @pytest.mark.parametrize("mu", [-1, 2, 1.0, np.float64(1.0), True])
    def test_direction_outside_the_axes_rejected(self, sec6, mu, monkeypatch):
        h_map, psi, spec6 = sec6
        x = np.array([1.0, 2.0])
        rec = reconstructed_connection(h_map, psi, CFG)
        reconstructions = count_reconstructions(monkeypatch)
        ident = lambda pts: np.ones((len(pts), 1, 1))
        calls = [lambda: reconstruct_potential(h_map, psi, x, mu, CFG)]
        calls += [lambda: TrivializedCurve.coordinate_shift(psi, x, mu, spec6.spec)]
        for field in (spec6.connection, rec):
            calls += [
                lambda a=field: a.component(x, mu),
                lambda a=field: gauge_transform_potential(a, ident, x, mu, CFG),
                lambda a=field: curvature(a, x, 0, mu, CFG),
                lambda a=field: curvature(a, x, mu, 0, CFG),
            ]
        for call in calls:
            with pytest.raises(ValueError, match="not an axis"):
                call()
        assert reconstructions == []
        for field in (spec6.connection, rec):
            assert np.array_equal(field.component(x, np.int64(1)).matrix, field.component(x, 1).matrix)


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
        a_rec = reconstructed_connection(h_map, psi, CFG)
        g0 = GroupElement.identity(MULTIPLICATIVE_REALS)
        p = compose_paths(
            straight_segment([1.0, 0.3], [0.4, 1.1]), straight_segment([0.2, -0.5], [1.0, 0.3])
        )
        lhs = horizontal_transport(h_map, psi, p, g0, 1.0)
        rhs = transport_along(a_rec, p, g0, 64)
        assert group_distance(lhs, rhs) <= 1e-6


    @pytest.mark.parametrize("name", ["paper-sec6", "su2-twist"])
    def test_no_paths_give_an_empty_stack(self, name):
        p = hf.get_preset(name)
        got = horizontal_transport(p.holonomy_map(), p.frame(), [], GroupElement.identity(p.spec), 1.0)
        assert got.shape == (0, p.spec.matrix_dim, p.spec.matrix_dim) and got.dtype == p.spec.dtype

    def test_path_of_another_dimension_raises_before_any_evaluation(self, sec6, monkeypatch):
        from holonomy_forge import reconstruction

        h_map, psi, _ = sec6
        calls = []
        for name in ("_frame_loops", "eval_holonomy"):
            real = getattr(reconstruction, name)
            monkeypatch.setattr(reconstruction, name, lambda *args, real=real: calls.append(1) or real(*args))
        flat = straight_segment([0.3, 0.1], [1.0, 0.8])
        bad = straight_segment([0.0, 0.0, 0.0], [1.0, 0.5, 0.2])
        g0 = GroupElement.identity(MULTIPLICATIVE_REALS)
        for p in (bad, [bad], [flat, bad]):
            with pytest.raises(DimMismatch, match="path dimension 3"):
                horizontal_transport(h_map, psi, p, g0, 1.0)
        assert calls == []


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

    @pytest.mark.parametrize("name", [p.name for p in hf.iter_presets()])
    def test_frame_tables_match_composed_loops(self, name):
        # The chain psi[x], shift x -> x, psi2[x] reversed loses its
        # zero-length shift to thin reduction: the composed loop, bit for bit.
        p = hf.get_preset(name)
        base = np.array(p.basepoint, dtype=float)
        frames = (radial_family(base), axis_dogleg_family(base))
        xs = base + np.array([[0.0, 0.0], [0.7, 1.1], [-0.4, 0.3], [0.5, -0.9], [0.0, 0.6]])
        for steps in (None, 16, 3):
            h_map = p.holonomy_map(steps)
            for psi, psi2 in itertools.product(frames, repeat=2):
                expected = reference_transition_function(h_map, psi, psi2, xs)
                assert np.array_equal(transition_function(h_map, psi, psi2, xs), expected)
                assert np.array_equal(transition_function(h_map, psi, psi2, xs[1]).matrix, expected[1])

    def test_mismatched_base_points_rejected(self, sec6):
        h_map, psi, _ = sec6
        from holonomy_forge.holonomy import BasepointMismatch

        other = radial_family([1.0, 0.0])
        with pytest.raises(BasepointMismatch):
            transition_function(h_map, psi, other, [1.0, 1.0])


class TestGaugeTransform:
    def test_identity_field_returns_potential(self, sec6):
        h_map, psi, _ = sec6
        a = reconstructed_connection(h_map, psi, CFG)
        x = np.array([0.9, 0.4])
        for mu in (0, 1):
            got = gauge_transform_potential(a, lambda pts: np.ones((len(pts), 1, 1)), x, mu, CFG)
            assert np.linalg.norm(got.matrix - a.component(x, mu).matrix) <= 1e-12

    def test_pure_gauge_from_zero_potential(self):
        # with A = 0 and g = exp(f), the transform is the gradient of f
        zero = ConnectionField.zero(2, MULTIPLICATIVE_REALS)
        calls = []

        def gfield(pts):
            calls.append(pts.shape)
            return np.exp(pts[:, 0] * pts[:, 1])[:, None, None]

        x = np.array([0.7, -1.2])
        d0 = gauge_transform_potential(zero, gfield, x, 0, CFG).matrix[0, 0]
        d1 = gauge_transform_potential(zero, gfield, x, 1, CFG).matrix[0, 0]
        assert abs(d0 - x[1]) <= 1e-9
        assert abs(d1 - x[0]) <= 1e-9
        # One gfield call per transform: the point and its four shifts.
        assert calls == [(5, 2), (5, 2)]

    def test_fast_varying_gauge_field_rejected(self):
        zero = ConnectionField.zero(2, MULTIPLICATIVE_REALS)
        steep = lambda pts: (1.0 + 1e5 * np.abs(pts[:, 0]))[:, None, None]
        with pytest.raises(StepTooLarge):
            gauge_transform_potential(zero, steep, np.array([0.5, 0.0]), 0, CFG)

    def test_frame_covariance_radial_vs_dogleg(self, sec6):
        h_map, psi, _ = sec6
        dogleg = axis_dogleg_family(ORIGIN)
        a_rad = reconstructed_connection(h_map, psi, CFG)
        a_dog = reconstructed_connection(h_map, dogleg, CFG)
        relating = lambda x: transition_function(h_map, psi, dogleg, x)
        for x in ([0.5, 0.5], [1.0, -0.7], [-1.3, 0.8]):
            x = np.array(x)
            for mu in (0, 1):
                expected = gauge_transform_potential(a_rad, relating, x, mu, CFG).matrix
                assert np.linalg.norm(a_dog.component(x, mu).matrix - expected) <= 1e-5

    @pytest.mark.parametrize(
        "spec, bad, message",
        [
            (MULTIPLICATIVE_REALS, [[-2.0]], "must be positive"),
            (MULTIPLICATIVE_REALS, [[0.0]], "not invertible"),
            (SU2, [[1.0, 0.5], [0.0, 1.0]], "not unitary"),
            (gln(2), [[1.0, 1.0], [1.0, 1.0]], "not invertible"),
            (MULTIPLICATIVE_REALS, [[np.nan]], "not finite"),
            (SU2, [[np.nan, 0.0], [0.0, 1.0]], "not finite"),
        ],
        ids=["negative", "zero", "non-unitary", "singular", "nan-real", "nan-su2"],
    )
    def test_gauge_field_stack_is_checked(self, spec, bad, message):
        # gfield is outside input: a raw stack whose last matrix is not in
        # the group is refused by the group check, not read as a value.
        def gfield(pts):
            g = np.tile(np.eye(spec.matrix_dim, dtype=spec.dtype), (len(pts), 1, 1))
            g[-1] = bad
            return g

        xs = np.array([[0.3, -0.4], [0.1, 0.2]])
        with pytest.raises(ValueError, match=message) as info:
            gauge_transform_potential(ConnectionField.zero(2, spec), gfield, xs, 0, CFG)
        assert not isinstance(info.value, StepTooLarge)


class TestNonFiniteValues:
    # A rule value that is not finite is refused by the algebra check, for
    # every group, before a projection could drop it: U(1)'s component
    # used to read nan as 0j, and the positive reals and GL(2) returned it.
    @pytest.mark.parametrize("call", ["curvature", "gauge_transform_potential", "component"])
    @pytest.mark.parametrize("spec", [MULTIPLICATIVE_REALS, U1, SU2, gln(2)], ids=lambda s: s.name.value)
    def test_refused_as_not_finite(self, spec, call):
        d = spec.matrix_dim
        A = ConnectionField(2, spec, lambda pts, mu: np.full((len(pts), d, d), np.nan, dtype=spec.dtype))
        ident = lambda pts: np.tile(np.eye(d, dtype=spec.dtype), (len(pts), 1, 1))
        x = np.array([0.3, -0.4])
        calls = {
            "curvature": lambda: curvature(A, x, 0, 1, CFG),
            "gauge_transform_potential": lambda: gauge_transform_potential(A, ident, x, 0, CFG),
            "component": lambda: A.component(x, 0),
        }
        with pytest.raises(ValueError, match="not finite"):
            calls[call]()


class TestCurvature:
    def test_closed_form_ydx(self):
        a = hf.get_preset("paper-sec6").connection
        f = curvature(a, np.array([0.4, -0.9]), 0, 1, CFG).matrix[0, 0]
        assert abs(f - (-1.0)) <= 1e-9

    def test_reconstructed_matches_input(self, sec6):
        h_map, psi, _ = sec6
        a_rec = reconstructed_connection(h_map, psi, CFG)
        a_in = hf.get_preset("paper-sec6").connection
        for x in ([0.5, 0.5], [-1.0, 1.0]):
            f_rec = curvature(a_rec, np.array(x), 0, 1, CFG).matrix[0, 0]
            f_in = curvature(a_in, np.array(x), 0, 1, CFG).matrix[0, 0]
            assert abs(f_rec - f_in) <= 1e-4
            assert abs(f_rec - (-1.0)) <= 1e-4

    def test_constant_abelian_field_is_flat(self):
        const = ConnectionField.from_polynomial(
            2, MULTIPLICATIVE_REALS, [[(0.7, (0, 0), 0)], [(1.3, (0, 0), 0)]]
        )
        a = const
        assert curvature(a, np.array([0.2, 0.4]), 0, 1, CFG).norm() <= 1e-12

    def test_antisymmetry_exact(self, sec6):
        h_map, psi, _ = sec6
        a = reconstructed_connection(h_map, psi, CFG)
        x = np.array([0.8, 0.3])
        f01 = curvature(a, x, 0, 1, CFG).matrix
        f10 = curvature(a, x, 1, 0, CFG).matrix
        assert np.array_equal(f01, -f10)

    def test_su2_shear_field_strength(self):
        sh = hf.get_preset("su2-shear")
        a = sh.connection
        f = curvature(a, np.array([0.4, -0.2]), 0, 1, CFG).matrix
        assert np.linalg.norm(f - su2_basis()[2].matrix) <= 1e-9

    def test_commutator_term_enters(self):
        # A_1 = X1, A_2 = x1 X3: F = X3 + x1 [X1, X3] = X3 + x1 X2
        x1b, x2b, x3b = (b.matrix for b in su2_basis())
        field = ConnectionField.from_polynomial(
            2, SU2, [[(1.0, (0, 0), 0)], [(1.0, (1, 0), 2)]]
        )
        a = field
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

    def test_nan_transport_defect_is_reported(self, monkeypatch):
        # The transport defects fold with np.max, which keeps a nan that
        # Python's max(0.0, nan) drops.
        import holonomy_forge.reconstruction as reconstruction

        real, seen = reconstruction.group_distance, []

        def distance(a, b):
            seen.append(a)
            return math.nan if len(seen) == 1 else real(a, b)

        monkeypatch.setattr(reconstruction, "group_distance", distance)
        report = round_trip_report(
            hf.get_preset("zero-connection").connection,
            radial_family(ORIGIN),
            GridSpec(-1.0, 1.0, 3),
            CFG,
            steps_per_segment=16,
            tolerances={"curvature": 1e-10, "gauge": 1e-10, "transport": 1e-10},
            transport_paths=4,
            transport_steps=8,
        )
        assert len(seen) == 4
        assert math.isnan(report.max_transport_defect)
        assert not report.failures and not report.within()

    @pytest.mark.parametrize("steps", [0, -2, 2.7])
    def test_bad_transport_step_count_raises(self, steps):
        # 0 and -2 used to come out as a failure of every sample path.
        with pytest.raises(ValueError, match="steps per segment"):
            round_trip_report(
                hf.get_preset("zero-connection").connection, radial_family(ORIGIN), GridSpec(-1.0, 1.0, 2), CFG,
                transport_steps=steps,
            )

    @pytest.mark.parametrize("paths", [-3, 2.5, True, None, "3"])
    def test_bad_transport_path_count_raises(self, paths, monkeypatch):
        # -3 used to pass with no check run, and 2.5 to fail with a
        # TypeError after the grid checks.
        calls = count_reconstructions(monkeypatch)
        with pytest.raises(ValueError, match="number of transport paths"):
            round_trip_report(
                hf.get_preset("zero-connection").connection, radial_family(ORIGIN), GridSpec(-1.0, 1.0, 2), CFG,
                transport_paths=paths,
            )
        assert calls == []

    @staticmethod
    def recorded_cross_check(monkeypatch, fail_at=None, preset="abelian-ydx", **kwargs):
        """Round trip on grid 3 that records, in call order, the sample
        paths of the holonomy-only transport, every path of each call, batch
        or single, and the transport defects; a holonomy-only transport call
        whose paths include one starting at ``fail_at`` raises."""
        from holonomy_forge import reconstruction

        paths, defects = [], []
        real_transport, real_distance = reconstruction.horizontal_transport, reconstruction.group_distance

        def transport(h_map, psi, p, g0, i):
            batch = [p] if isinstance(p, PathNd) else list(p)
            paths.extend(batch)
            if fail_at is not None and any(np.array_equal(q.point(0.0), fail_at) for q in batch):
                raise IntegrationError("transport failed on purpose")
            return real_transport(h_map, psi, p, g0, i)

        def distance(a, b):
            defects.append(real_distance(a, b))
            return defects[-1]

        monkeypatch.setattr(reconstruction, "horizontal_transport", transport)
        monkeypatch.setattr(reconstruction, "group_distance", distance)
        p = hf.get_preset(preset)
        args = dict(steps_per_segment=16, transport_paths=5, transport_steps=16, seed=3) | kwargs
        report = round_trip_report(p.connection, p.frame(), GridSpec(-1.0, 1.0, 3), CFG, **args)
        monkeypatch.undo()
        return report, paths, defects

    @pytest.mark.parametrize("preset", ["abelian-ydx", "su2-shear"])
    def test_cross_check_equals_the_per_path_loop(self, preset, monkeypatch):
        # All paths on one plan give, bit for bit, the defects of one
        # holonomy-only and one ODE transport per path.
        p = hf.get_preset(preset)
        h_map, psi, ident = p.holonomy_map(), p.frame(), GroupElement.identity(p.spec)
        report, paths, defects = self.recorded_cross_check(
            monkeypatch, preset=preset, steps_per_segment=h_map.steps, transport_paths=10
        )
        A_drive = reconstructed_connection(h_map, psi, FdConfig(h=CFG.h, richardson=False, curvature_h=CFG.curvature_h))
        expected = [
            group_distance(horizontal_transport(h_map, psi, path, ident, 1.0), transport_along(A_drive, path, ident, 16))
            for path in paths
        ]
        assert len(paths) == 10 and not report.failures
        assert defects == expected
        assert report.max_transport_defect == max(expected)

    def test_one_failing_path_is_named_and_the_others_keep_their_defects(self, monkeypatch):
        _, paths, defects = self.recorded_cross_check(monkeypatch)
        start = paths[2].point(0.0)
        report, _, kept = self.recorded_cross_check(monkeypatch, fail_at=start)
        assert report.failures == ((start.tolist(), "IntegrationError", "transport failed on purpose"),)
        assert kept == defects[:2] + defects[3:]
        assert report.max_transport_defect == max(kept)

    def test_cross_check_reads_the_drive_in_one_batch(self, monkeypatch):
        # However many paths, the transport equations read the reconstruction
        # driving them as one 1-form batch, over every lattice sample of
        # their 2 pieces at 16 steps, and reconstruct no potential component.
        from holonomy_forge import reconstruction

        def counting(*args):
            A = real(*args)
            form = A.form
            A.form = lambda pts, vs: reads.append(len(pts)) or form(pts, vs)
            return A

        p, counts, real = hf.get_preset("abelian-ydx"), [], reconstruction.reconstructed_connection
        for n in (0, 1, 4, 10):
            calls, reads = count_reconstructions(monkeypatch), []
            monkeypatch.setattr(reconstruction, "reconstructed_connection", counting)
            round_trip_report(
                p.connection, p.frame(), GridSpec(-1.0, 1.0, 3), CFG, steps_per_segment=16, transport_paths=n
            )
            monkeypatch.undo()
            counts.append(len(calls))
            assert reads == ([2 * 33 * n] if n else [])
        assert counts == [counts[0]] * 4

    def test_holonomy_only_transport_is_one_batch(self, monkeypatch):
        # However many paths, the holonomy-only transport evaluates their
        # frame loops, one per path, as one eval_holonomy batch.
        from holonomy_forge import reconstruction

        p, real = hf.get_preset("abelian-ydx"), reconstruction.eval_holonomy
        for n in (0, 1, 4, 10):
            batches = []
            monkeypatch.setattr(reconstruction, "eval_holonomy", lambda h, loops: batches.append(len(loops)) or real(h, loops))
            round_trip_report(
                p.connection, p.frame(), GridSpec(-1.0, 1.0, 3), CFG, steps_per_segment=16, transport_paths=n
            )
            monkeypatch.undo()
            assert batches == ([n] if n else [])

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
    # The reconstructed potential field: the ConnectionField returned by
    # reconstructed_connection, whose rule memoizes reconstruct_potential.
    def test_evaluator_receives_point_arrays(self, sec6, monkeypatch):
        # One reconstruction per batch, of the points not yet memoized.
        h_map, psi, _ = sec6
        calls = count_reconstructions(monkeypatch)
        A = reconstructed_connection(h_map, psi, CFG)
        xs = np.array(GridSpec(-1.0, 1.0, 3).nodes(2))
        A.rule(xs, 0)
        assert calls == [9]
        A.component(np.array([0.3, 0.4]), 1)
        assert calls == [9, 1]
        A.rule(np.concatenate([xs, [[0.3, 0.4]]]), 0)
        A.rule(np.concatenate([xs[:2], [[0.3, 0.4]]]), 1)
        assert calls == [9, 1, 1, 2]

    def test_memoization(self, sec6, monkeypatch):
        # Repeated points, in one batch or across calls, hit the memo.
        h_map, psi, _ = sec6
        calls = count_reconstructions(monkeypatch)
        A = reconstructed_connection(h_map, psi, CFG)
        x = np.array([0.5, 0.25])
        A.component(x, 0)
        A.component(x, 0)
        A.component(np.array([0.5, 0.25]), 0)
        values = A.rule(np.array([x, x, [0.5, 0.25]]), 0)
        assert calls == [1]
        assert np.array_equal(values[0], values[2])

    def test_rule_is_a_connection_rule_of_unknown_degree(self, sec6):
        # Each call returns a new array (the integrators scale it in place),
        # and a single-point read is the row of the rule, bit for bit.
        h_map, psi, _ = sec6
        A = reconstructed_connection(h_map, psi, CFG)
        assert A.degree is None and (A.dim, A.spec) == (2, MULTIPLICATIVE_REALS)
        xs = np.array([[0.7, 0.2], [-0.4, 0.9]])
        first = A.rule(xs, 1)
        first *= 0.0
        again = A.rule(xs, 1)
        for x, row in zip(xs, again):
            assert row[0, 0] != 0.0
            assert np.array_equal(A.component(x, 1).matrix, row)

    @pytest.mark.parametrize("preset", ["paper-sec6", "su2-shear"])
    def test_transport_twice_gives_equal_values(self, preset):
        # Transport scales the rule's values in place; the memo must not
        # share memory with them, or the second transport reads them scaled.
        p = hf.get_preset(preset)
        A = reconstructed_connection(p.holonomy_map(16), p.frame(), CFG)
        path = straight_segment([0.2, 0.1], [0.9, -0.4])
        ident = GroupElement.identity(p.spec)
        first, second = (transport_along(A, path, ident, 8).matrix for _ in range(2))
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("x", [[0.5, 0.2, 9.0], [0.5], [[0.5, 0.2, 9.0]]])
    def test_point_of_the_wrong_length_rejected(self, sec6, x, monkeypatch):
        h_map, psi, _ = sec6
        calls = count_reconstructions(monkeypatch)
        with pytest.raises(ValueError, match="expected a point of R\\^2"):
            reconstructed_connection(h_map, psi, CFG).component(np.array(x), 0)
        assert calls == []

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 1, 2)])
    def test_points_of_the_wrong_dimension_raise(self, sec6, shape, monkeypatch):
        # The public entry points check shapes before anything is evaluated.
        h_map, psi, _ = sec6
        reconstructions = count_reconstructions(monkeypatch)
        samples, gauge_calls = [], []
        sampled = lambda pts, mu: samples.append(pts) or h_map.field.rule(pts, mu)
        closed = ConnectionField(2, MULTIPLICATIVE_REALS, sampled)
        gfield = lambda pts: gauge_calls.append(pts) or np.ones((len(pts), 1, 1))
        for A in (reconstructed_connection(h_map, psi, CFG), closed):
            for call in (
                lambda: A.component(np.zeros(shape), 0),
                lambda: curvature(A, np.zeros(shape), 0, 1, CFG),
                lambda: gauge_transform_potential(A, gfield, np.zeros(shape), 0, CFG),
            ):
                with pytest.raises(ValueError, match="shape"):
                    call()
        assert reconstructions == samples == gauge_calls == []

    @pytest.mark.parametrize("shape", [(3, 3), (2, 2, 2), (3,), (2, 1)])
    def test_point_shape_errors_name_the_callers_shape(self, sec6, shape):
        # (3, 3) used to be reported as the shape (5, 3) of the distinct
        # points inside, (2, 2, 2) as a numpy broadcast error, and (3, 3)
        # by transition_function as (3,).
        h_map, psi, _ = sec6
        message = re.escape(f"got shape {shape}")
        with pytest.raises(ValueError, match=message):
            reconstruct_potential(h_map, psi, np.zeros(shape), 0, CFG)
        with pytest.raises(ValueError, match=message):
            transition_function(h_map, psi, axis_dogleg_family(ORIGIN), np.zeros(shape))

    @pytest.mark.parametrize("bad", [[np.nan, np.nan], [np.inf, 0.0]])
    def test_non_finite_frame_target_raises(self, bad):
        # Unchecked, a NaN target's loop thins away and gives the zero potential.
        with pytest.raises(ValueError, match="finite"):
            reconstruct_potential(hf.get_preset("su2-shear").holonomy_map(), radial_family([0.0, 0.0]), bad, 0)

    def test_invariants_of_reconstructed_values(self, sec6):
        h_map, psi, _ = sec6
        reconstructed_connection(h_map, psi, CFG).component(np.array([0.7, 0.2]), 0).validate()

    def test_csv_header_and_precision(self, sec6):
        h_map, psi, _ = sec6
        grid = GridSpec(-1.0, 1.0, 2)
        text = potential_grid_csv([reconstruct_potential(h_map, psi, grid.nodes(2), mu, CFG)[0] for mu in (0, 1)], grid)
        lines = text.strip().split("\n")
        assert lines[0] == "x1,x2,mu,re_0_0,im_0_0"
        assert len(lines) == 1 + 4 * 2
        value = lines[1].split(",")[3]
        assert len(value.replace("-", "").replace(".", "").split("e")[0]) >= 15


# Signed zero, the least subnormal, tiny and huge normals, and values that
# need all 17 significant digits.
EDGE_VALUES = [-0.0, 5e-324, 1e-300, 1.7e308, 0.1 + 0.2, -1.0 / 3.0, 2.0 / 3.0 * 1e-17, 123456789.12345678]


class EdgeAxisGrid(GridSpec):
    """A grid whose axis is ``EDGE_VALUES``."""

    def axis(self) -> np.ndarray:
        return np.array(EDGE_VALUES)


class TestPotentialCsv:
    # One template of a node's rows, filled from Python floats in one call,
    # gives the text of one f-string per numpy scalar
    # (reference_potential_grid_csv), byte for byte.
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("d, kind", [(1, "real"), (2, "complex")])
    def test_matches_per_entry_formatting(self, dim, d, kind, rng):
        for grid in (GridSpec(-1.0 / 3.0, 0.7, 5), EdgeAxisGrid(-1.0, 1.0, len(EDGE_VALUES))):
            shape = (dim, len(grid.nodes(dim)), d, d)
            parts = [rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape) for _ in range(2)]
            for part in parts:
                part.reshape(-1)[: len(EDGE_VALUES)] = EDGE_VALUES[: part.size]
            values = parts[0] if kind == "real" else parts[0] + 1j * parts[1][::-1]
            assert potential_grid_csv(values, grid) == reference_potential_grid_csv(values, grid)
            assert potential_grid_csv(list(values), grid) == reference_potential_grid_csv(values, grid)

    @pytest.mark.parametrize("shape", [(2, 24, 1, 1), (1, 25, 1, 1), (2, 25, 2, 1), (3, 25, 2, 2)])
    def test_wrong_shape_raises_the_same_error(self, shape):
        grid = GridSpec(-1.0, 1.0, 5)
        with pytest.raises(ValueError) as got:
            potential_grid_csv(np.zeros(shape), grid)
        with pytest.raises(ValueError) as want:
            reference_potential_grid_csv(np.zeros(shape), grid)
        assert str(got.value) == str(want.value) == f"values of shape {shape} for {5 ** shape[0]} nodes in R^{shape[0]}"


X3 = su2_basis()[2].matrix
# The closed forms as they were written for one point, with numpy scalar
# arithmetic: the presets' point-or-batch forms are held to them bit for bit.
SCALAR_CLOSED_FORMS = {
    "paper-sec6": lambda x, mu: np.array([[x[1] / 2.0]]) if mu == 0 else np.array([[-x[0] / 2.0]]),
    "abelian-ydx": lambda x, mu: np.array([[x[1] / 2.0]]) if mu == 0 else np.array([[-x[0] / 2.0]]),
    "zero-connection": lambda x, mu: np.array([[0.0]]),
    "su2-shear": lambda x, mu: (-x[1] / 2.0) * X3 if mu == 0 else (x[0] / 2.0) * X3,
    "abelian-quartic": lambda x, mu: (
        np.array([[x[0] ** 4 * x[1] / 6.0]]) if mu == 0 else np.array([[-x[0] ** 5 / 6.0]])
    ),
}


class TestPresetClosedForms:
    # One call on an (m, dim) batch gives, bit for bit, the m per-point
    # calls; numpy's SIMD power on arrays differs from the scalar pow of the
    # point forms in the last bit for a few percent of arguments.
    def test_every_closed_form_is_listed(self):
        assert sorted(SCALAR_CLOSED_FORMS) == sorted(p.name for p in hf.iter_presets() if p.closed_form is not None)

    @pytest.mark.parametrize("name", sorted(SCALAR_CLOSED_FORMS))
    @pytest.mark.parametrize("m", [1, 7, 169])
    def test_batch_matches_point_calls(self, name, m, rng):
        p, scalar = hf.get_preset(name), SCALAR_CLOSED_FORMS[name]
        xs = rng.uniform(-2.0, 2.0, size=(m, 2))
        xs.reshape(-1)[:4] = [-0.0, 1e-160, -1e-160, 0.0][: xs.size]
        for mu in (0, 1):
            batch = p.closed_form(xs, mu)
            assert batch.shape == (m, p.spec.matrix_dim, p.spec.matrix_dim)
            for x, got in zip(xs, batch):
                single, want = p.closed_form(x, mu), scalar(x, mu)
                assert single.shape == got.shape == want.shape and single.dtype == got.dtype == want.dtype
                assert single.tobytes() == got.tobytes() == want.tobytes()


class TestConnectionForm:
    # The reconstructed connection's 1-form, which transport reads at every
    # lattice sample: |v| times one difference quotient along v / |v|, not
    # one quotient per axis contracted with v.
    NAMES = ["abelian-ydx", "su2-shear", "su2-3d"]
    # A polynomial SU(2) field on R^3 with terms along every basis element.
    FIELD_3D = [
        [(0.7, (0, 1, 0), 0), (0.3, (0, 0, 1), 2)],
        [(0.5, (1, 0, 0), 1), (0.2, (0, 0, 0), 2)],
        [(0.4, (1, 1, 0), 0)],
    ]

    @staticmethod
    def reconstruction(name, cfg=CFG, tol=None, steps=None):
        if name == "su2-3d":
            field = ConnectionField.from_polynomial(3, SU2, TestConnectionForm.FIELD_3D)
            h_map, psi = HolonomyMap.transport(field, np.zeros(3), steps or 64), radial_family(np.zeros(3))
        else:
            p = hf.get_preset(name)
            h_map, psi = p.holonomy_map(steps), p.frame()
        return reconstructed_connection(h_map, psi, cfg, tol)

    @pytest.mark.parametrize("richardson", [True, False])
    @pytest.mark.parametrize("name", NAMES)
    def test_axis_vectors_give_the_rule(self, name, richardson, rng):
        A = self.reconstruction(name, FdConfig(richardson=richardson))
        xs = rng.uniform(-0.8, 0.8, size=(7, A.dim))
        for mu in range(A.dim):
            assert np.array_equal(A.form(xs, np.tile(np.eye(A.dim)[mu], (len(xs), 1))), A.rule(xs, mu))

    @pytest.mark.parametrize("richardson", [True, False])
    @pytest.mark.parametrize("name", NAMES)
    def test_any_vector_gives_the_contracted_rule(self, name, richardson, rng):
        # The 1-form is linear in the vector within the difference scheme's
        # error, bounded here by h^2 |v| (the largest seen is 3e-11 |v|);
        # a zero vector gives exact zeros.
        cfg = FdConfig(richardson=richardson)
        A = self.reconstruction(name, cfg)
        xs = rng.uniform(-0.8, 0.8, size=(12, A.dim))
        vs = rng.normal(size=(12, A.dim)) * np.repeat([1e-3, 1.0, 7.0], 4)[:, None]
        vs[[3, 8]] = 0.0
        got = A.form(xs, vs)
        contracted = sum(A.rule(xs, mu) * vs[:, mu, None, None] for mu in range(A.dim))
        assert (np.abs(got - contracted).max(axis=(1, 2)) <= cfg.h**2 * np.linalg.norm(vs, axis=1)).all()
        assert got.shape == contracted.shape and not got[[3, 8]].any()

    @pytest.mark.parametrize("name", ["abelian-ydx", "su2-shear"])
    def test_batch_equals_points_alone(self, name, rng):
        # 299 live points of 4 loops each are 3 blocks, and one zero vector.
        A = self.reconstruction(name, steps=32)
        xs = rng.uniform(-0.8, 0.8, size=(300, 2))
        vs = rng.normal(size=(300, 2))
        vs[7] = 0.0
        for x, v, value in zip(xs, vs, A.form(xs, vs)):
            assert np.array_equal(A.form(x[None], v[None])[0], value)

    def test_controlled_form_keeps_every_estimate_within_tol(self, rng, monkeypatch):
        from holonomy_forge import reconstruction

        seen, real = [], reconstruction._difference_quotients
        monkeypatch.setattr(
            reconstruction, "_difference_quotients", lambda *args: seen.append(real(*args)) or seen[-1]
        )
        xs, vs = GridSpec(-1.0, 1.0, 5).nodes(2), rng.uniform(-1.0, 1.0, size=(25, 2))
        got = self.reconstruction("su2-twist", tol=1e-8, steps=128).form(xs, vs)
        ((_, steps, estimates),) = seen
        assert 0.0 < estimates.max() and (estimates <= 1e-8).all()
        assert set(steps.tolist()) <= {8, 16, 32, 64, 128} and len(set(steps.tolist())) > 1
        fixed = self.reconstruction("su2-twist", steps=1024).form(xs, vs)
        assert (np.abs(got - fixed).max(axis=(1, 2)) <= 10.0 * 1e-8 * np.linalg.norm(vs, axis=1)).all()

    def test_point_above_tol_at_the_cap_is_named_with_its_vector(self):
        # Near the base point every piece is accepted by the probe, so its
        # estimate is 0; the far point misses even at the cap, unless its
        # vector is zero, which builds no loop.
        A = self.reconstruction("su2-shear", tol=1e-17, steps=32)
        xs = np.array([[0.01, -0.02], [0.6, -0.4], [0.6, -0.4]])
        vs = np.array([[1.0, 0.5], [0.0, 0.0], [0.5, 2.0]])
        message = r"^point \[0\.6, -0\.4\], vector \[0\.5, 2\.0\]: step-doubling estimate \S+ exceeds 1e-17 at 32 steps"
        with pytest.raises(IntegrationError, match=message):
            A.form(xs, vs)
        assert A.form(xs[:2], vs[:2]).shape == (2, 2, 2)

    @pytest.mark.parametrize("name", ["su2-shear", "su2-3d"])
    def test_two_loops_per_lattice_sample(self, name, monkeypatch):
        # Transport along 2 pieces at 8 steps samples 2 x 17 lattice points,
        # 2 difference loops each in any dimension; a constant path's zero
        # velocities build none.
        from holonomy_forge import reconstruction

        A = self.reconstruction(name, FdConfig(richardson=False))
        loops, chains = [], reconstruction.reconstruction_chains
        monkeypatch.setattr(
            reconstruction, "reconstruction_chains", lambda psi, a, b: loops.append(len(a)) or chains(psi, a, b)
        )
        ident = GroupElement.identity(SU2)
        vertices = np.array([[0.1, 0.2, -0.1], [0.5, -0.3, 0.2], [0.2, 0.4, 0.3]])[:, : A.dim]
        transport_along(A, polyline(vertices), ident, 8)
        assert loops == [2 * 2 * 17]
        loops.clear()
        assert np.array_equal(transport_along(A, constant_path(vertices[0]), ident, 8).matrix, ident.matrix)
        assert loops == []


class TestRichardson:
    def test_gain_and_order(self):
        # the quartic field keeps fifth-order structure in its difference
        # quotients, so the extrapolated scheme's order is measurable
        q = hf.get_preset("abelian-quartic")
        h_map, psi = q.holonomy_map(), q.frame()
        x = np.array([1.1, 0.7])
        errors = []
        for h in (0.04, 0.02, 0.01):
            got = reconstruct_potential(h_map, psi, x, 0, FdConfig(h=h, curvature_h=0.05))[0].matrix[0, 0]
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
        return p, h_map, lambda: reconstructed_connection(h_map, p.frame(), CFG)

    @pytest.mark.parametrize("name", ["paper-sec6", "su2-twist"])
    def test_curvature(self, name):
        _, _, fresh = self.setting(name)
        batched = curvature(fresh(), self.POINTS, 0, 1, CFG)
        assert batched.shape[0] == len(self.POINTS)
        for x, f in zip(self.POINTS, batched):
            assert np.array_equal(f, curvature(fresh(), x, 0, 1, CFG).matrix)

    @pytest.mark.parametrize("name", ["paper-sec6", "su2-twist"])
    def test_transition_function_and_gauge_transform(self, name):
        p, h_map, fresh = self.setting(name)
        dogleg = axis_dogleg_family(ORIGIN)
        batched = transition_function(h_map, p.frame(), dogleg, self.POINTS)
        for x, t in zip(self.POINTS, batched):
            assert np.array_equal(t, transition_function(h_map, p.frame(), dogleg, x).matrix)
        # transition_function is itself a batch gauge field.
        relating = lambda pts: transition_function(h_map, p.frame(), dogleg, pts)
        for mu in (0, 1):
            batched = gauge_transform_potential(fresh(), relating, self.POINTS, mu, CFG)
            for x, a in zip(self.POINTS, batched):
                assert np.array_equal(a, gauge_transform_potential(fresh(), relating, x, mu, CFG).matrix)

    @pytest.mark.parametrize("name", ["paper-sec6", "su2-shear"])
    def test_no_points_give_an_empty_stack(self, name):
        # As curvature of a polynomial field and transition_function do.
        p, h_map, fresh = self.setting(name)
        d, none = p.spec.matrix_dim, np.zeros((0, 2))
        per_point = ConnectionField.from_matrix_rule(2, p.spec, lambda x, mu: p.connection.rule(x[None], mu)[0])
        identity = lambda pts: np.broadcast_to(np.eye(d, dtype=p.spec.dtype), (len(pts), d, d))
        values, steps, estimates = reconstruct_potential(h_map, p.frame(), none, 0, CFG)
        assert steps.shape == estimates.shape == (0,)
        for got in (
            values,
            fresh().rule(none, 1),
            curvature(fresh(), none, 0, 1, CFG),
            per_point.rule(none, 0),
            gauge_transform_potential(p.connection, identity, none, 0, CFG),
            transition_function(h_map, p.frame(), axis_dogleg_family(ORIGIN), none),
        ):
            assert got.shape == (0, d, d) and got.dtype == p.spec.dtype

    def test_round_trip_checks_all_nodes_in_one_batch(self, monkeypatch):
        # A failure-free round trip makes one curvature call per pair of
        # directions and potential, one gauge transform per direction, and
        # no single-point fallback reconstructions: every reconstruction
        # is of more than one point.
        from holonomy_forge import reconstruction

        counts = {"curvature": 0, "gauge_transform_potential": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapped

        for key in counts:
            monkeypatch.setattr(reconstruction, key, counting(key, getattr(reconstruction, key)))
        reconstructions = count_reconstructions(monkeypatch)
        field = ConnectionField.from_polynomial(
            3, MULTIPLICATIVE_REALS, [[(1.0, (0, 1, 0), 0)], [(0.5, (0, 0, 1), 0)], [(-0.3, (1, 0, 0), 0)]]
        )
        report = round_trip_report(
            field, radial_family(np.zeros(3)), GridSpec(-0.5, 0.5, 2), CFG,
            steps_per_segment=8, transport_paths=2, transport_steps=4,
        )
        assert not report.failures
        assert counts == {"curvature": 2 * 3, "gauge_transform_potential": 3}
        assert reconstructions and min(reconstructions) > 1


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
                got = reconstruct_potential(h_map, psi, self.POINTS, mu, cfg)[0]
                assert got.shape == (len(self.POINTS), spec.matrix_dim, spec.matrix_dim)
                for x, a in zip(self.POINTS, got):
                    expected = reference_potential(field, psi, x, mu, cfg.h, richardson, 8)
                    assert np.linalg.norm(a - expected) <= 1e-9, (x, mu)
                    assert np.array_equal(a, reconstruct_potential(h_map, psi, x, mu, cfg)[0].matrix)

    @pytest.mark.parametrize("preset", ["paper-sec6", "su2-shear"])
    def test_single_point_is_the_batch_of_one(self, preset):
        p = hf.get_preset(preset)
        h_map, psi = p.holonomy_map(32), p.frame()
        xs = GridSpec(-1.0, 1.0, 4).nodes(2)
        for mu in (0, 1):
            batch = reconstruct_potential(h_map, psi, np.array(xs), mu, CFG)[0]
            for x, a in zip(xs, batch):
                single = reconstruct_potential(h_map, psi, x, mu, CFG)[0]
                assert np.array_equal(a, single.matrix)
                assert np.linalg.norm(a - p.closed_form(x, mu)) <= 1e-3

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
            reconstructed_connection(sec6[0], psi, CFG).rule(points, 1)

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

    def test_memo_hits_match_single_point_calls(self, sec6, monkeypatch):
        # Batch and single-point reads key the memo alike: once one way has
        # read every point, the other reconstructs nothing more.
        h_map, psi, _ = sec6
        xs = np.array(GridSpec(-1.0, 1.0, 3).nodes(2))
        xs = np.concatenate([xs, xs[::2]])  # repeated points
        batched = reconstructed_connection(h_map, psi, CFG)
        single = reconstructed_connection(h_map, psi, CFG)
        calls = count_reconstructions(monkeypatch)
        for mu in (0, 1):
            values = batched.rule(xs, mu)
            assert values.shape == (len(xs), 1, 1)
            for x, v in zip(xs, values):
                assert np.array_equal(single.component(x, mu).matrix, v)
        assert calls == 2 * ([9] + [1] * 9)
        for x in xs:
            batched.component(x, 0)
        single.rule(xs, 1)
        assert len(calls) == 20

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
        from holonomy_forge import reconstruction

        real = reconstruction.reconstructed_connection

        def serial_connection(h_map, psi, cfg):
            # The same reconstruction, its rule and its 1-form read one point
            # at a time.
            A = real(h_map, psi, cfg)
            serial = ConnectionField(A.dim, A.spec, lambda pts, mu: np.stack([A.rule(x[None], mu)[0] for x in pts]))
            serial.form = lambda pts, vs: np.stack([A.form(x[None], v[None])[0] for x, v in zip(pts, vs)])
            return serial

        monkeypatch.setattr(reconstruction, "reconstructed_connection", serial_connection)
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
            assert np.array_equal(g, gfield(x[None])[0])

    def test_su2_twist_curvature_is_gauge_covariant(self):
        # non-commuting field: the reconstructed curvature equals the input
        # curvature only after conjugation by the relating gauge field
        tw = hf.get_preset("su2-twist")
        report = round_trip_report(
            tw.connection, tw.frame(), GridSpec(-0.5, 0.5, 3), CFG, steps_per_segment=64, transport_paths=0
        )
        assert not report.failures
        assert report.max_curvature_defect <= 1e-3


class TestErrorControl:
    # reconstruct_potential(..., tol): every point takes the fewest RK4
    # steps per piece, doubled from 8 up to the map's steps as the cap,
    # whose step-doubling estimate |D_n - D_{n/2}| / 15 is at most tol.
    NODES = GridSpec(-1.0, 1.0, 5).nodes(2)

    @staticmethod
    def values(h_map, psi, xs, mu, **kw) -> np.ndarray:
        return reconstruct_potential(h_map, psi, xs, mu, CFG, **kw)[0]

    @pytest.mark.parametrize("tol", [1e-4, 1e-7])
    @pytest.mark.parametrize("name", ["su2-shear", "su2-twist", "abelian-ydx"])
    def test_every_value_within_ten_times_tol(self, name, tol):
        p = hf.get_preset(name)
        psi = p.frame()
        for mu in (0, 1):
            got, steps, estimates = reconstruct_potential(p.holonomy_map(128), psi, self.NODES, mu, CFG, tol=tol)
            if p.closed_form is not None:
                ref = np.array([p.closed_form(x, mu) for x in self.NODES])
            else:
                ref = self.values(p.holonomy_map(1024), psi, self.NODES, mu)
            assert np.abs(got - ref).max() <= 10.0 * tol
            assert 0.0 < estimates.max() and (estimates <= tol).all()
            assert set(steps.tolist()) <= {8, 16, 32, 64, 128}

    @pytest.mark.parametrize("name", ["su2-twist", "abelian-ydx"])
    def test_only_points_that_miss_run_again(self, name, monkeypatch):
        # The n/2-step values come from the n-step lattice and equal a
        # fixed n/2-step run, so fixed runs predict every estimate.
        from holonomy_forge import holonomy, reconstruction

        p = hf.get_preset(name)
        psi, xs, mu, cap = p.frame(), self.NODES, 0, 64
        fixed = {n: self.values(p.holonomy_map(n), psi, xs, mu) for n in (4, 8, 16, 32, 64)}
        est = {n: np.abs(fixed[n] - fixed[n // 2]).max(axis=(1, 2)) / 15.0 for n in (8, 16, 32, 64)}
        levels = np.unique(est[8])
        tol = math.sqrt(levels[len(levels) // 2 - 1] * levels[len(levels) // 2])
        expected_passes, rows, expected = [], np.arange(len(xs)), np.empty_like(fixed[8])
        for n in (8, 16, 32, 64):
            expected_passes.append((n, {tuple(x) for x in xs[rows]}))
            done = est[n][rows] <= tol
            expected[rows[done]] = fixed[n][rows[done]]
            rows = rows[~done]
            if not rows.size:
                break
        assert len(expected_passes) >= 2

        # The difference loops are built once, before the passes; each pass
        # integrates the loops of the points still above tol.
        passes, built = [], []
        chains, holonomies = reconstruction.reconstruction_chains, holonomy._holonomy_matrices
        monkeypatch.setattr(
            reconstruction, "reconstruction_chains", lambda psi, a, b: built.append(len(a)) or chains(psi, a, b)
        )
        monkeypatch.setattr(
            holonomy, "_holonomy_matrices",
            lambda h_map, plan, steps=None, quantities=None, half=False: passes.append(
                (steps, {tuple(x) for x in xs[quantities]})
            ) or holonomies(h_map, plan, steps, quantities, half),
        )
        got = self.values(p.holonomy_map(cap), psi, xs, mu, tol=tol)
        assert passes == expected_passes
        assert built == [4 * len(xs)]
        assert np.array_equal(got, expected)

    def test_target_below_the_rounding_floor_raises_naming_the_point(self):
        p = hf.get_preset("su2-shear")
        points = np.array([[0.2, 0.1], [0.6, -0.4]])
        message = r"point \[0\.6, -0\.4\], direction 1: step-doubling estimate \S+ exceeds 1e-17 at 32 steps"
        with pytest.raises(IntegrationError, match=message):
            reconstruct_potential(p.holonomy_map(32), p.frame(), points[1], 1, CFG, tol=1e-17)
        with pytest.raises(IntegrationError, match="point \\[0\\.2, 0\\.1\\], direction 1"):
            reconstructed_connection(p.holonomy_map(32), p.frame(), CFG, 1e-17).rule(points, 1)

    def test_point_in_a_later_block_is_named(self):
        # 290 points of 4 loops each are 3 blocks of 96, 97 and 97 points.
        # Near the base point every piece is accepted by the probe, so its
        # estimate is 0; the one far point misses even at the cap.
        p = hf.get_preset("su2-shear")
        xs = GridSpec(-0.05, 0.05, 17).nodes(2)
        xs = np.concatenate([xs[:250], [[0.6, -0.4]], xs[250:]])
        message = r"^point \[0\.6, -0\.4\], direction 1: step-doubling estimate \S+ exceeds 1e-17 at 32 steps"
        with pytest.raises(IntegrationError, match=message):
            reconstruct_potential(p.holonomy_map(32), p.frame(), xs, 1, CFG, tol=1e-17)
        near = np.delete(xs, 250, axis=0)
        _, steps, estimates = reconstruct_potential(p.holonomy_map(32), p.frame(), near, 1, CFG, tol=1e-17)
        assert (estimates == 0.0).all() and (steps == 8).all()

    @pytest.mark.parametrize("name", ["su2-twist", "abelian-ydx"])
    def test_steps_and_estimates_do_not_depend_on_the_batch(self, name):
        # 290 points are 3 blocks; at tol 1e-8 they settle at 8, 16 and 32 steps.
        p = hf.get_preset(name)
        h_map, psi = p.holonomy_map(128), p.frame()
        xs = np.concatenate([GridSpec(-1.0, 1.0, 17).nodes(2), [[0.3, -0.2]]])
        values, steps, estimates = reconstruct_potential(h_map, psi, xs, 1, CFG, tol=1e-8)
        assert set(steps.tolist()) == {8, 16, 32}
        for x, value, n, est in zip(xs, values, steps, estimates):
            single = reconstruct_potential(h_map, psi, x, 1, CFG, tol=1e-8)
            assert np.array_equal(single[0].matrix, value) and single[1:] == (n, est)
            assert type(single[1]) is int and type(single[2]) is float

    @pytest.mark.parametrize("name", ["paper-sec6", "su2-shear"])
    def test_without_tol_the_fixed_map(self, name):
        p = hf.get_preset(name)
        h_map, psi = p.holonomy_map(16), p.frame()
        for mu in (0, 1):
            fixed, steps, estimates = reconstruct_potential(h_map, psi, self.NODES, mu, CFG)
            assert (steps == (h_map.steps or 0)).all() and np.isnan(estimates).all()
            assert np.array_equal(self.values(h_map, psi, self.NODES, mu, tol=None), fixed)
            assert np.array_equal(reconstructed_connection(h_map, psi, CFG, None).rule(self.NODES, mu), fixed)
            if h_map.steps is None:
                # An exact map has no step count to control.
                assert np.array_equal(self.values(h_map, psi, self.NODES, mu, tol=1e-9), fixed)

    @pytest.mark.parametrize("steps, tol", [(1, 1e-6), (3, 1e-6), (7, 1e-6), (64, 0.0), (64, -1.0), (64, np.nan)])
    def test_unusable_cap_or_tol_raises_before_evaluating(self, steps, tol, monkeypatch):
        from holonomy_forge import holonomy

        p = hf.get_preset("su2-shear")
        monkeypatch.setattr(holonomy, "_holonomy_matrices", None)
        with pytest.raises(ValueError, match="step doubling"):
            reconstruct_potential(p.holonomy_map(steps), p.frame(), self.NODES, 0, CFG, tol=tol)

    @pytest.mark.parametrize("steps, largest", [(2, 2), (4, 4), (6, 6), (9, 8)])
    def test_small_caps(self, steps, largest):
        # Passes start at min(8, N): an even N below 8 is the only pass,
        # and an N that 8 does not divide caps at the last doubling below it.
        p = hf.get_preset("su2-shear")
        got, taken, _ = reconstruct_potential(p.holonomy_map(steps), p.frame(), self.NODES[:3], 0, CFG, tol=1.0)
        assert (taken == largest).all()
        assert np.array_equal(got, self.values(p.holonomy_map(largest), p.frame(), self.NODES[:3], 0))
