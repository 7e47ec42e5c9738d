import json
import math
import warnings

import numpy as np
import pytest

import holonomy_forge as hf
from holonomy_forge.lie_core import MULTIPLICATIVE_REALS, SU2, U1, AlgebraElement, GroupElement, gln, group_distance
from holonomy_forge.holonomy import (
    AxiomReport,
    BasepointMismatch,
    ConnectionField,
    DimMismatch,
    HolonomyMap,
    IntegrationError,
    _transport_products,
    audit_axioms,
    check_axiom1,
    check_axiom2,
    check_axiom3,
    eval_holonomies,
    eval_holonomy,
    transport_along,
)
from holonomy_forge.path_algebra import (
    LoopAtBase,
    PathNd,
    Segment,
    axis_dogleg_family,
    compose_paths,
    constant_path,
    invert_path,
    piecewise_power_map,
    power_map,
    radial_family,
    random_polygon_loop,
    random_polyline,
    reconstruction_loop,
    reparametrize,
    straight_segment,
    thin_reduce,
)
from holonomy_forge.presets import PRESETS
from holonomy_forge.segment_table import stack_tables

from _oracles import (
    loop_axiom3,
    polyline_vertices,
    polyline_ydx_integral,
    sequential_rk4_transport,
    serial_audit,
    shoelace_area,
)
from conftest import random_affine_field

ORIGIN = np.zeros(2)


def ydx_field() -> ConnectionField:
    return hf.get_preset("paper-sec6").connection


def analytic_map() -> HolonomyMap:
    return HolonomyMap.analytic_abelian(ydx_field(), ORIGIN)


def polygon_loop(vertices) -> LoopAtBase:
    chain = [np.asarray(v, float) for v in vertices]
    segs = [Segment("line", np.stack([a, b])) for a, b in zip(chain[:-1], chain[1:])]
    return LoopAtBase(PathNd.from_segments(segs), chain[0])


def unit_square() -> LoopAtBase:
    return polygon_loop([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])


class TestEvalAnalytic:
    def test_quadrature_rule_is_scipys_bit_for_bit(self):
        from scipy.special import roots_legendre

        from holonomy_forge import holonomy

        nodes, weights = roots_legendre(32)
        assert np.array_equal(holonomy._nodes, nodes)
        assert np.array_equal(holonomy._weights, weights)

    def test_constant_loop_is_identity_exactly(self):
        loop = LoopAtBase(constant_path(ORIGIN), ORIGIN)
        g = eval_holonomy(analytic_map(), loop)
        assert g.matrix[0, 0] == 1.0

    def test_unit_square_against_green_oracle(self):
        sq = unit_square()
        verts = polyline_vertices(sq)
        integral = polyline_ydx_integral(verts)
        assert integral == -1.0
        assert abs(integral - (-shoelace_area(verts[:-1]))) < 1e-15
        g = eval_holonomy(analytic_map(), sq)
        assert abs(g.matrix[0, 0] - math.exp(integral)) < 1e-14

    def test_random_polygons_against_oracle(self, rng):
        h_map = analytic_map()
        for _ in range(25):
            loop = random_polygon_loop(rng, ORIGIN, n_vertices=5, radius=1.2)
            expected = math.exp(polyline_ydx_integral(polyline_vertices(loop)))
            got = eval_holonomy(h_map, loop).matrix[0, 0]
            assert abs(got - expected) < 1e-12 * abs(expected)

    def test_u1_backend(self, rng):
        field = ConnectionField.from_polynomial(2, U1, [[(1.0, (0, 1), 0)], []])
        h_map = HolonomyMap.analytic_abelian(field, ORIGIN)
        loop = random_polygon_loop(rng, ORIGIN, n_vertices=4, radius=1.0)
        expected = np.exp(1j * polyline_ydx_integral(polyline_vertices(loop)))
        got = eval_holonomy(h_map, loop).matrix[0, 0]
        assert abs(got - expected) < 1e-12
        assert abs(abs(got) - 1.0) < 1e-12

    def test_non_abelian_spec_rejected(self):
        su2 = hf.get_preset("su2-twist")
        with pytest.raises(ValueError):
            HolonomyMap.analytic_abelian(su2.connection, ORIGIN)

    def test_u1_transport_agrees_with_analytic(self, rng):
        field = ConnectionField.from_polynomial(2, U1, [[(1.0, (0, 1), 0)], []])
        loop = random_polygon_loop(rng, ORIGIN, n_vertices=4, radius=1.0)
        analytic = eval_holonomy(HolonomyMap.analytic_abelian(field, ORIGIN), loop)
        transported = eval_holonomy(HolonomyMap.transport(field, ORIGIN, 64), loop)
        assert group_distance(analytic, transported) <= 1e-8
        assert abs(abs(transported.matrix[0, 0]) - 1.0) <= 1e-12


class TestEvalTransport:
    def test_constant_loop_identity_within_tolerance(self):
        h_map = HolonomyMap.transport(ydx_field(), ORIGIN, 16)
        loop = LoopAtBase(constant_path(ORIGIN), ORIGIN)
        assert check_axiom2(h_map, loop) <= 1e-12

    def test_unit_square_64_steps(self):
        h_map = HolonomyMap.transport(ydx_field(), ORIGIN, 64)
        got = eval_holonomy(h_map, unit_square()).matrix[0, 0]
        assert abs(got - math.exp(-1.0)) < 1e-8

    def test_with_steps_rebinds_transport_resolution(self):
        h_map = HolonomyMap.transport(ydx_field(), ORIGIN, 8)
        finer = h_map.with_steps(64)
        assert finer.backend.steps_per_segment == 64
        assert analytic_map().with_steps(64).kind == "analytic_abelian"

    def test_backend_agreement_order(self):
        # error against the analytic backend must shrink at order >= 3.5
        reference = eval_holonomy(analytic_map(), unit_square()).matrix[0, 0]
        errors = []
        for steps in (4, 8, 16, 32):
            h_map = HolonomyMap.transport(ydx_field(), ORIGIN, steps)
            errors.append(abs(eval_holonomy(h_map, unit_square()).matrix[0, 0] - reference))
        orders = [math.log2(a / b) for a, b in zip(errors[:-1], errors[1:])]
        assert min(orders) >= 3.5, (errors, orders)


def kernel_test_paths(rng):
    """Polygon loops plus the special shapes: a lazily reparametrized
    out-and-back, a path with a zero-length piece, and a single piece."""
    paths = [random_polygon_loop(rng, ORIGIN, n_vertices=4, radius=0.8).path for _ in range(3)]
    p = random_polyline(rng, ORIGIN, n_segments=2, radius=0.7)
    paths.append(reparametrize(compose_paths(invert_path(p), p), piecewise_power_map(3, 0.5)))
    a, b = rng.uniform(-0.8, 0.8, size=(2, 2))
    segs = [Segment("line", np.stack(pair)) for pair in ((ORIGIN, a), (a, a), (a, b))]
    paths.append(PathNd.from_segments(segs))
    paths.append(straight_segment(a, b))
    return paths


class TestTransportKernel:
    # The batched propagator-product kernel against a plain sequential
    # RK4 with per-step projection; the two differ only in rounding.
    @pytest.mark.parametrize(
        "spec", [MULTIPLICATIVE_REALS, U1, SU2, gln(2), gln(3)], ids=lambda s: f"{s.name.value}{s.matrix_dim}"
    )
    def test_matches_sequential_oracle(self, spec, rng):
        field = random_affine_field(spec, rng)
        for path in kernel_test_paths(rng):
            got = _transport_products(field, stack_tables([path]), 16)[0]
            expected = sequential_rk4_transport(field, path, 16)
            assert got.shape == (spec.matrix_dim, spec.matrix_dim)
            assert np.linalg.norm(got - expected) <= 1e-12 * max(1.0, np.linalg.norm(expected))

    def test_oracle_keeps_end_velocities_in_short_pieces(self):
        # Pieces of span 4e-5 and 1e-5 just below parameter 1, where a
        # nudge of 1e-12 of the span is below one ulp.
        field = hf.get_preset("su2-twist").connection
        verts = [ORIGIN, np.array([0.6, 0.1]), np.array([0.2, 0.7]), ORIGIN]
        segs = [Segment("line", np.stack(pair)) for pair in zip(verts[:-1], verts[1:])]
        path = PathNd.from_segments(segs, [0.0, 0.99995, 0.99999, 1.0])
        got = _transport_products(field, stack_tables([path]), 16)[0]
        assert np.linalg.norm(got - sequential_rk4_transport(field, path, 16)) <= 1e-12

    def test_negative_propagator_raises(self):
        # A = 20 x^2 - 10 x vanishes at the start and middle of the single
        # step and is 10 at its end, so P = 1 - 10/6 < 0.
        field = ConnectionField.from_polynomial(1, MULTIPLICATIVE_REALS, [[(20.0, (2,), 0), (-10.0, (1,), 0)]])
        path = straight_segment([0.0], [1.0])
        ident = GroupElement.identity(MULTIPLICATIVE_REALS)
        with pytest.raises(IntegrationError):
            transport_along(field, path, ident, 1)
        assert issubclass(IntegrationError, ArithmeticError)
        assert transport_along(field, path, ident, 4).matrix[0, 0] > 0


def batch_test_loops(rng):
    """Polygon loops interleaved with the special shapes: reparametrized
    out-and-back loops, a loop with a zero-length piece, a constant loop,
    and unreduced dogleg reconstruction loops at nodes sharing a
    coordinate with the base point (degenerate legs, exact reversals)."""
    dogleg = axis_dogleg_family(ORIGIN)
    phi = piecewise_power_map(3, 0.5)
    loops = []
    for k in range(6):
        loops.append(random_polygon_loop(rng, ORIGIN, n_vertices=3 + k % 3, radius=0.8))
        p = random_polyline(rng, ORIGIN, n_segments=2, radius=0.7)
        loops.append(LoopAtBase(reparametrize(compose_paths(invert_path(p), p), phi), ORIGIN))
    a = rng.uniform(-0.8, 0.8, size=2)
    loops.append(polygon_loop([ORIGIN, a, a, ORIGIN - a, ORIGIN]))
    loops.append(LoopAtBase(constant_path(ORIGIN), ORIGIN))
    for x, y in (([0.5, 0.0], [0.5, 0.1]), ([0.0, 0.6], [0.1, 0.6]), ([0.4, 0.0], [0.3, 0.0])):
        loops.append(reconstruction_loop(dogleg, np.array(x), np.array(y)))
    return loops


class TestEvalHolonomies:
    # The batch API against one eval_holonomy call per loop.  The batch
    # spans several kernel calls and mixes segment-backed and lazily
    # reparametrized loops.
    @pytest.mark.parametrize(
        "spec, backend",
        [
            (MULTIPLICATIVE_REALS, "analytic"),
            (U1, "analytic"),
            (MULTIPLICATIVE_REALS, "transport"),
            (U1, "transport"),
            (SU2, "transport"),
            (gln(2), "transport"),
            (gln(3), "transport"),
        ],
        ids=lambda v: getattr(getattr(v, "name", None), "value", v),
    )
    def test_matches_single_loop_evaluation(self, spec, backend, rng):
        field = random_affine_field(spec, rng)
        if backend == "analytic":
            h_map = HolonomyMap.analytic_abelian(field, ORIGIN)
        else:
            h_map = HolonomyMap.transport(field, ORIGIN, 16)
        loops = batch_test_loops(rng)
        batch = eval_holonomies(h_map, loops)
        assert len(batch) == len(loops)
        for loop, got in zip(loops, batch):
            expected = eval_holonomy(h_map, loop)
            assert got.spec == spec
            assert np.linalg.norm(got.matrix - expected.matrix) <= 1e-12 * max(1.0, np.linalg.norm(expected.matrix))

    def test_transport_batch_matches_sequential_oracle(self, rng):
        field = random_affine_field(SU2, rng)
        h_map = HolonomyMap.transport(field, ORIGIN, 16)
        loops = batch_test_loops(rng)
        for loop, got in zip(loops, eval_holonomies(h_map, loops)):
            expected = np.linalg.inv(sequential_rk4_transport(field, loop.path, 16))
            assert np.linalg.norm(got.matrix - expected) <= 1e-12

    def test_checks_every_loop(self):
        shifted = polygon_loop([(1, 1), (2, 1), (2, 2), (1, 1)])
        with pytest.raises(BasepointMismatch):
            eval_holonomies(analytic_map(), [unit_square(), shifted])
        assert eval_holonomies(analytic_map(), []) == []

    def test_integration_error_raised_from_inside_a_batch(self):
        # A_1 = 20 x^2 - 10 x: the single step along (0,0) -> (1,0) has
        # P = 1 - 10/6 < 0 (see TestTransportKernel).
        field = ConnectionField.from_polynomial(
            2, MULTIPLICATIVE_REALS, [[(20.0, (2, 0), 0), (-10.0, (1, 0), 0)], []]
        )
        h_map = HolonomyMap.transport(field, ORIGIN, 1)
        bad = polygon_loop([(0, 0), (1, 0), (1, 1), (0, 0)])
        good = polygon_loop([(0, 0), (0, 1), (-1, 1), (0, 0)])
        with pytest.raises(IntegrationError):
            eval_holonomies(h_map, [good] * 40 + [bad] + [good] * 5)


def shared_piece_loops(rng):
    """A batch whose loops share smooth pieces: a loop twice, alpha, beta
    and alpha o beta, a reversed loop, a lazily reparametrized loop beside
    the segment-backed loop it reparametrizes, twin loops differing only
    in the sign of a zero control point, and enough further loops for the
    distinct pieces to span several kernel calls."""
    alpha = random_polygon_loop(rng, ORIGIN, n_vertices=4, radius=0.8)
    beta = random_polygon_loop(rng, ORIGIN, n_vertices=3, radius=0.8)
    p = random_polyline(rng, ORIGIN, n_segments=2, radius=0.7)
    out_and_back = LoopAtBase(compose_paths(invert_path(p), p), ORIGIN)
    loops = [
        alpha,
        alpha,
        beta,
        LoopAtBase(compose_paths(alpha.path, beta.path), ORIGIN),
        LoopAtBase(invert_path(alpha.path), ORIGIN),
        out_and_back,
        LoopAtBase(reparametrize(out_and_back.path, piecewise_power_map(3, 0.5)), ORIGIN),
        polygon_loop([(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.0, 0.0)]),
        polygon_loop([(0.0, 0.0), (0.5, -0.0), (0.5, 0.5), (0.0, 0.0)]),
    ]
    loops += [random_polygon_loop(rng, ORIGIN, n_vertices=5, radius=0.8) for _ in range(30)]
    return loops + [beta, alpha]


class TestSharedPieces:
    # Each distinct piece is integrated once per batch, and a piece's
    # result is computed by the same elementwise operations whatever
    # batch it sits in, so batch and single-loop values agree bit for bit.
    @pytest.mark.parametrize(
        "spec, backend",
        [
            (MULTIPLICATIVE_REALS, "analytic"),
            (U1, "analytic"),
            (MULTIPLICATIVE_REALS, "transport"),
            (U1, "transport"),
            (SU2, "transport"),
            (gln(3), "transport"),
        ],
        ids=lambda v: getattr(getattr(v, "name", None), "value", v),
    )
    def test_batch_is_bitwise_single_loop_evaluation(self, spec, backend, rng):
        field = random_affine_field(spec, rng)
        if backend == "analytic":
            h_map = HolonomyMap.analytic_abelian(field, ORIGIN)
        else:
            h_map = HolonomyMap.transport(field, ORIGIN, 16)
        loops = shared_piece_loops(rng)
        for loop, got in zip(loops, eval_holonomies(h_map, loops)):
            assert np.array_equal(got.matrix, eval_holonomy(h_map, loop).matrix)

    def test_batch_spans_several_kernel_calls(self, rng, monkeypatch):
        calls = count_sampled_pieces(monkeypatch)
        h_map = HolonomyMap.transport(random_affine_field(SU2, rng), ORIGIN, 16)
        eval_holonomies(h_map, shared_piece_loops(rng))
        assert len(calls) >= 3

    def test_composed_loop_integrates_no_new_piece(self, rng, monkeypatch):
        calls = count_sampled_pieces(monkeypatch)
        alpha = random_polygon_loop(rng, ORIGIN, n_vertices=4, radius=0.8)
        beta = random_polygon_loop(rng, ORIGIN, n_vertices=3, radius=0.8)
        composed = LoopAtBase(compose_paths(alpha.path, beta.path), ORIGIN)
        for h_map in (analytic_map(), HolonomyMap.transport(ydx_field(), ORIGIN, 16)):
            calls.clear()
            eval_holonomies(h_map, [alpha, beta, composed])
            assert sum(calls) == alpha.path.n_pieces + beta.path.n_pieces

    def test_reparametrized_pieces_are_shared(self, rng, monkeypatch):
        # A reparametrized loop given twice and the same reparametrization
        # built again: the time map is part of the piece key, so each
        # reparametrized piece is integrated once.
        calls = count_sampled_pieces(monkeypatch)
        p = random_polyline(rng, ORIGIN, n_segments=2, radius=0.7)
        out_and_back = compose_paths(invert_path(p), p)
        phi = piecewise_power_map(3, 0.5)
        warped = LoopAtBase(reparametrize(out_and_back, phi), ORIGIN)
        again = LoopAtBase(reparametrize(out_and_back, phi), ORIGIN)
        for h_map in (analytic_map(), HolonomyMap.transport(ydx_field(), ORIGIN, 16)):
            calls.clear()
            values = eval_holonomies(h_map, [warped, again, warped])
            assert sum(calls) == warped.path.n_pieces == 5
            assert all(np.array_equal(v.matrix, values[0].matrix) for v in values)

    def test_signed_zero_twins_are_distinct_pieces(self, monkeypatch):
        calls = count_sampled_pieces(monkeypatch)
        plus = polygon_loop([(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.0, 0.0)])
        minus = polygon_loop([(0.0, 0.0), (0.5, -0.0), (0.5, 0.5), (0.0, 0.0)])
        eval_holonomies(analytic_map(), [plus, minus])
        assert sum(calls) == 5


def count_sampled_pieces(monkeypatch) -> list:
    """Record the number of pieces sampled by each kernel call."""
    import holonomy_forge.holonomy as holonomy

    calls = []
    real = holonomy.sample_pieces

    def counting(cubic, ctrl, tmap, u):
        samples = real(cubic, ctrl, tmap, u)
        calls.append(len(samples[0]))
        return samples

    monkeypatch.setattr(holonomy, "sample_pieces", counting)
    return calls


class TestRelativeDeterminantCheck:
    # A = c y dx around the counter-clockwise unit square has flux -c, so
    # the holonomy exp(-c) is a valid, tiny positive real.
    @pytest.mark.parametrize("flux", [-30.0, -300.0])
    def test_analytic_holonomy_of_strong_flux(self, flux):
        field = ConnectionField.from_polynomial(2, MULTIPLICATIVE_REALS, [[(-flux, (0, 1), 0)], []])
        got = eval_holonomy(HolonomyMap.analytic_abelian(field, ORIGIN), unit_square()).matrix[0, 0]
        assert abs(got - math.exp(flux)) <= 1e-12 * math.exp(flux)

    @pytest.mark.parametrize("flux", [-800.0, 800.0])
    def test_analytic_holonomy_a_double_cannot_hold_raises(self, flux):
        # exp(-800) underflows to 0 and exp(800) overflows: a named error
        # that names the loop, and no RuntimeWarning on the way.
        field = ConnectionField.from_polynomial(2, MULTIPLICATIVE_REALS, [[(-flux, (0, 1), 0)], []])
        small = polygon_loop([(0, 0), (0.1, 0), (0.1, 0.1), (0, 0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="holonomy of loop 1 is (0.0|inf),"):
                eval_holonomies(HolonomyMap.analytic_abelian(field, ORIGIN), [small, unit_square()])

    @pytest.mark.parametrize("flux", [-8000.0, 8000.0])
    def test_transport_value_a_double_cannot_hold_raises(self, flux):
        # At 64 steps the RK4 propagators of either sign grow so large that
        # their product overflows.
        field = ConnectionField.from_polynomial(2, MULTIPLICATIVE_REALS, [[(-flux, (0, 1), 0)], []])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="u\\(1\\) of loop 0 is inf,"):
                eval_holonomy(HolonomyMap.transport(field, ORIGIN, 64), unit_square())

    def test_su2_holonomy_a_double_cannot_hold_raises(self):
        # The RK4 products of a 1e300 coefficient overflow; unchecked, they
        # gave an all-nan GroupElement that every later check let through.
        field = ConnectionField.from_polynomial(2, SU2, [[(1e300, (0, 1), 0)], []])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="u\\(1\\) of loop 0 has entries that are not finite"):
                eval_holonomy(HolonomyMap.transport(field, ORIGIN, 64), unit_square())
            with pytest.raises(IntegrationError):
                transport_along(field, unit_square().path, GroupElement.identity(SU2))

    def test_scaled_elements_are_invertible(self):
        assert GroupElement(MULTIPLICATIVE_REALS, [[math.exp(-300.0)]]).matrix[0, 0] > 0
        GroupElement(gln(2), 1e-7 * np.eye(2))
        with pytest.raises(ValueError):
            GroupElement(gln(2), 1e-7 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]))


class TestConnectionField:
    # One batch rule per field; a single point is the batch of one.
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_component_is_the_batch_of_one(self, name, rng):
        field = hf.get_preset(name).connection
        for x in rng.uniform(-1.0, 1.0, size=(4, field.dim)):
            for mu in range(field.dim):
                expected = AlgebraElement.from_matrix(field.spec, field.rule(x[None], mu)[0])
                assert np.array_equal(field.component(x, mu).matrix, expected.matrix)

    def test_matrix_rule_rows_are_per_point_elements(self, rng):
        spec = SU2
        mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2)]
        anti = [m - m.conj().T for m in mats]
        matrix_rule = lambda x, mu: (x[0] - x[1] ** 2) * anti[mu] + 1e-13 * mats[mu]
        field = ConnectionField.from_matrix_rule(2, spec, matrix_rule)
        xs = rng.uniform(-1.0, 1.0, size=(5, 2))
        for mu in (0, 1):
            rows = field.rule(xs, mu)
            for x, row in zip(xs, rows):
                assert np.array_equal(row, AlgebraElement.from_matrix(spec, matrix_rule(x, mu)).matrix)


    @pytest.mark.parametrize("coeff", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_rejected(self, coeff):
        with pytest.raises(ValueError, match="malformed term"):
            ConnectionField.from_polynomial(2, SU2, [[(coeff, (0, 1), 0)], []])

    @pytest.mark.parametrize("x", [[0.5, 0.2, 9.0], [0.5], [[0.5, 0.2, 9.0]]])
    def test_component_needs_one_point_of_the_field_dimension(self, x):
        # The rule reads only the first dim coordinates; a longer point was
        # evaluated as if its extra coordinates were not there.
        with pytest.raises(ValueError, match="expected a point of R\\^2"):
            hf.get_preset("su2-shear").connection.component(x, 1)


class TestGeneralLinearTransport:
    # constant coefficient matrix along a straight path: the transport
    # operator is a plain matrix exponential, checkable against the
    # series oracle
    @pytest.mark.parametrize("n", [2, 3])
    def test_constant_field_matches_exponential(self, n, rng):
        from holonomy_forge.lie_core import GroupElement, gln
        from holonomy_forge.holonomy import transport_along
        from holonomy_forge.path_algebra import straight_segment
        from _oracles import taylor_expm

        spec = gln(n)
        mats = [0.4 * rng.normal(size=(n, n)) for _ in range(2)]
        field = ConnectionField.from_matrix_rule(2, spec, lambda x, mu: mats[mu])
        start, end = np.zeros(2), np.array([1.0, -0.5])
        got = transport_along(field, straight_segment(start, end), GroupElement.identity(spec), 64)
        exponent = -sum(m * (e - s) for m, e, s in zip(mats, end, start))
        expected = taylor_expm(exponent, terms=25)
        assert np.linalg.norm(got.matrix - expected) <= 1e-9

    def test_gln_loop_holonomy_inverse_convention(self, rng):
        from holonomy_forge.lie_core import gln
        from _oracles import taylor_expm

        spec = gln(2)
        mat = 0.3 * rng.normal(size=(2, 2))
        # A_1 = x2 * M: same field shape as the plane preset but matrix valued
        field = ConnectionField.from_matrix_rule(2, spec, lambda x, mu: x[1] * mat if mu == 0 else np.zeros((2, 2)))
        h_map = HolonomyMap.transport(field, ORIGIN, 64)
        got = eval_holonomy(h_map, unit_square())
        # commuting integrand: holonomy is exp of the loop integral, and
        # the x2 dx1 integral around the square is -1
        expected = taylor_expm(-mat, terms=25)
        assert np.linalg.norm(got.matrix - expected) <= 1e-6


class TestAxiom1:
    def test_constant_alpha_has_zero_defect(self, rng):
        h_map = analytic_map()
        alpha = LoopAtBase(constant_path(ORIGIN), ORIGIN)
        beta = random_polygon_loop(rng, ORIGIN)
        assert check_axiom1(h_map, alpha, beta) <= 1e-14

    def test_analytic_additivity(self, rng):
        h_map = analytic_map()
        for _ in range(20):
            alpha = random_polygon_loop(rng, ORIGIN, n_vertices=4, radius=1.2)
            beta = random_polygon_loop(rng, ORIGIN, n_vertices=5, radius=1.2)
            assert check_axiom1(h_map, alpha, beta) <= 1e-12

    def test_su2_transport(self, rng):
        h_map = hf.get_preset("su2-twist").holonomy_map()
        for _ in range(5):
            alpha = random_polygon_loop(rng, ORIGIN, n_vertices=4, radius=0.75)
            beta = random_polygon_loop(rng, ORIGIN, n_vertices=4, radius=0.75)
            assert check_axiom1(h_map, alpha, beta) <= 1e-6


class TestAxiom2:
    def test_out_and_back_analytic(self, rng):
        h_map = analytic_map()
        for _ in range(10):
            p = random_polyline(rng, ORIGIN, n_segments=2, radius=1.0)
            loop = LoopAtBase(compose_paths(invert_path(p), p), ORIGIN)
            assert check_axiom2(h_map, loop) <= 1e-12

    def test_reparametrized_out_and_back_transport(self, rng):
        h_map = hf.get_preset("su2-twist").holonomy_map()
        phi = piecewise_power_map(3, 0.5)
        p = random_polyline(rng, ORIGIN, n_segments=2, radius=0.75)
        loop = LoopAtBase(reparametrize(compose_paths(invert_path(p), p), phi), ORIGIN)
        assert check_axiom2(h_map, loop) <= 1e-8

    def test_spur_insertion_is_invisible(self):
        h_map = analytic_map()
        plain = unit_square()
        chain = [(0, 0), (1, 0), (1.7, 0.4), (1, 0), (1, 1), (0, 1), (0, 0)]
        spurred = polygon_loop(chain)
        d = group_distance(eval_holonomy(h_map, plain), eval_holonomy(h_map, spurred))
        assert d <= 1e-10
        reduced = LoopAtBase(thin_reduce(spurred.path), ORIGIN)
        d2 = group_distance(eval_holonomy(h_map, reduced), eval_holonomy(h_map, spurred))
        assert d2 <= 1e-12

    def test_reparametrization_invariance_analytic(self, rng):
        h_map = analytic_map()
        loop = random_polygon_loop(rng, ORIGIN, n_vertices=4, radius=1.0)
        for phi in (power_map(2), piecewise_power_map(3, 0.5)):
            warped = LoopAtBase(reparametrize(loop.path, phi), ORIGIN)
            d = group_distance(eval_holonomy(h_map, loop), eval_holonomy(h_map, warped))
            assert d <= 1e-12


class TestAxiom3:
    def test_constant_family_is_flat(self):
        h_map = analytic_map()
        loop = unit_square()
        assert check_axiom3(h_map, lambda u: loop, grid=11) == 0.0

    def test_straight_shift_family_matches_closed_form(self):
        # holonomy along the family is exp(u * anchor_y / 2)
        h_map = analytic_map()
        psi = radial_family(ORIGIN)
        anchor = np.array([1.0, 1.0])
        family = lambda u: reconstruction_loop(psi, anchor, anchor + np.array([u, 0.0]))
        for u in (0.0, 0.3, 1.0):
            got = eval_holonomy(h_map, family(u)).matrix[0, 0]
            assert abs(got - math.exp(u / 2.0)) < 1e-13
        proxy = check_axiom3(h_map, family, grid=21)
        bound = math.exp(0.5) / 4.0  # max |f''| of exp(u/2) on [0, 1]
        assert proxy <= 2.0 * bound
        assert proxy >= 0.5 * bound  # sanity: proxy tracks the curvature scale

    def test_family_crossing_frame_corner_stays_bounded(self):
        # dogleg frame corners sweep through the second axis; recorded
        # reference proxy is 1.369, asserted with headroom
        h_map = analytic_map()
        fam = axis_dogleg_family(ORIGIN)
        anchor = np.array([-0.5, 0.8])
        family = lambda u: reconstruction_loop(fam, anchor, anchor + np.array([u, 0.0]))
        assert check_axiom3(h_map, family, grid=21) <= 1.5

    def test_two_parameter_family(self):
        # holonomy over the family is exp(u1 * (anchor + u2 shift) area term),
        # smooth in both parameters; the proxy stays at curvature scale
        h_map = analytic_map()
        psi = radial_family(ORIGIN)

        def family(u):
            anchor = np.array([1.0, 0.5 + 0.5 * u[1]])
            return reconstruction_loop(psi, anchor, anchor + np.array([u[0], 0.0]))

        proxy = check_axiom3(h_map, family, grid=7, k=2)
        assert 0.0 < proxy <= 1.0

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            check_axiom3(analytic_map(), lambda u: unit_square(), grid=2)

    @pytest.mark.parametrize("name", ["su2-twist", "paper-sec6"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_node_by_node_oracle_bitwise(self, name, k):
        preset = hf.get_preset(name)
        h_map, psi = preset.holonomy_map(), preset.frame()
        anchor = np.array(preset.axiom3_anchor, dtype=float)
        if k == 1:
            family = lambda u: reconstruction_loop(psi, anchor, anchor + np.array([u, 0.0]))
        else:
            family = lambda u: reconstruction_loop(psi, anchor, anchor + np.array([u[0], 0.5 * u[1]]))
        grid = 21 if k == 1 else 5
        assert check_axiom3(h_map, family, grid, k) == loop_axiom3(h_map, family, grid, k)


class TestInverseLoop:
    def test_inverse_property_both_backends(self, rng):
        loop = random_polygon_loop(rng, ORIGIN, n_vertices=4, radius=1.0)
        inv = LoopAtBase(invert_path(loop.path), ORIGIN)
        for h_map, tol in ((analytic_map(), 1e-12), (HolonomyMap.transport(ydx_field(), ORIGIN, 64), 1e-9)):
            lhs = eval_holonomy(h_map, inv)
            rhs = eval_holonomy(h_map, loop).inverse()
            assert group_distance(lhs, rhs) <= tol


class TestPinning:
    def test_basepoint_mismatch_rejected(self):
        shifted = polygon_loop([(1, 1), (2, 1), (2, 2), (1, 1)])
        with pytest.raises(BasepointMismatch):
            eval_holonomy(analytic_map(), shifted)

    def test_dim_mismatch_rejected(self):
        field3 = ConnectionField.zero(3, MULTIPLICATIVE_REALS)
        h_map = HolonomyMap.analytic_abelian(field3, np.zeros(3))
        with pytest.raises(DimMismatch):
            eval_holonomy(h_map, unit_square())


class TestAssociativity:
    def test_holonomy_blind_to_association(self, rng):
        h_map = analytic_map()
        a = random_polygon_loop(rng, ORIGIN, 3, 1.0)
        b = random_polygon_loop(rng, ORIGIN, 4, 1.0)
        c = random_polygon_loop(rng, ORIGIN, 5, 1.0)
        left = thin_reduce(compose_paths(compose_paths(a.path, b.path), c.path))
        right = thin_reduce(compose_paths(a.path, compose_paths(b.path, c.path)))
        d = group_distance(
            eval_holonomy(h_map, LoopAtBase(left, ORIGIN)),
            eval_holonomy(h_map, LoopAtBase(right, ORIGIN)),
        )
        assert d <= 1e-12


class TestAudit:
    def test_deterministic_and_passing(self):
        h_map = analytic_map()
        kwargs = dict(samples=25, seed=11, tolerances=(1e-10, 1e-10, 10.0))
        r1 = audit_axioms(h_map, **kwargs)
        r2 = audit_axioms(h_map, **kwargs)
        assert r1 == r2
        assert r1.all_passed
        assert r1.samples == 25

    @pytest.mark.parametrize("preset", ["su2-twist", "paper-sec6"])
    def test_batched_audit_equals_serial_checks(self, preset):
        h_map = hf.get_preset(preset).holonomy_map()
        kwargs = dict(samples=12, seed=5, tolerances=(1e-6, 1e-8, 10.0))
        assert audit_axioms(h_map, **kwargs) == serial_audit(h_map, **kwargs)

    def test_needs_a_sample(self):
        with pytest.raises(ValueError):
            audit_axioms(analytic_map(), samples=0, seed=0, tolerances=(1.0, 1.0, 1.0))

    def test_builds_and_evaluates_its_loops_as_tables(self, monkeypatch):
        # Every loop of the audit is built and sampled from segment tables:
        # no Segment object is made on the way.
        h_map = hf.get_preset("su2-twist").holonomy_map()

        def refuse(self):
            raise AssertionError("a Segment object was built")

        monkeypatch.setattr(Segment, "__post_init__", refuse)
        assert audit_axioms(h_map, samples=4, seed=3, tolerances=(1e-6, 1e-8, 10.0)).all_passed

    def test_report_json_keys(self):
        report = AxiomReport(1e-12, 2e-12, 0.1, 7, (True, True, False))
        d = report.to_json_dict()
        assert list(d.keys()) == [
            "axiom1_max_defect",
            "axiom2_max_defect",
            "axiom3_max_second_difference",
            "samples",
            "pass",
        ]
        assert d["pass"] == [True, True, False]
        json.dumps(d)
