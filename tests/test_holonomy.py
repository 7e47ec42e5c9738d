import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holonomy_forge as hf
from holonomy_forge.lie_core import MULTIPLICATIVE_REALS, SU2, U1, AlgebraElement, GroupElement, gln, group_distance
from holonomy_forge.holonomy import (
    AxiomReport,
    BasepointMismatch,
    ConnectionField,
    DimMismatch,
    HolonomyMap,
    IntegrationError,
    _distinct_pieces,
    _gauss_legendre,
    _loop_holonomies,
    _Plan,
    _rk4_products,
    audit_axioms,
    check_axiom1,
    check_axiom2,
    check_axiom3,
    eval_holonomy,
    transport_along,
)
from holonomy_forge.path_algebra import (
    LoopAtBase,
    PathFamily,
    PathNd,
    _check_loops,
    _composition_triples,
    _thin_loops,
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
from holonomy_forge.segment_table import sample_pieces, stack_tables

from _oracles import (
    complex_connection_along,
    loop_axiom3,
    per_loop_audit_batches,
    polyline_vertices,
    polyline_ydx_integral,
    reference_keyed_line_integrals,
    reference_line_integrals,
    reference_transport_products,
    sequential_rk4_transport,
    serial_audit,
    serial_controlled_audit,
    shoelace_area,
)
from conftest import polyline, random_affine_field

ORIGIN = np.zeros(2)


def ydx_field() -> ConnectionField:
    return hf.get_preset("paper-sec6").connection


def analytic_map() -> HolonomyMap:
    return HolonomyMap.analytic_abelian(ydx_field(), ORIGIN)


def polygon_loop(vertices) -> LoopAtBase:
    return LoopAtBase(polyline(vertices), np.asarray(vertices[0], dtype=float))


def unit_square() -> LoopAtBase:
    return polygon_loop([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])


class TestEvalAnalytic:
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
        assert finer.steps == 64
        assert analytic_map().with_steps(64).steps is None

    @pytest.mark.parametrize("steps", [0, -2, 2.7, 8.0, True, None])
    def test_with_steps_checks_the_count_on_every_backend(self, steps):
        # The analytic map ignores the count, but used to accept any.
        for h_map in (analytic_map(), HolonomyMap.transport(ydx_field(), ORIGIN, 8)):
            with pytest.raises(ValueError, match="steps per segment must be an integer"):
                h_map.with_steps(steps)

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
    """Polygon loops plus the special shapes: a reparametrized
    out-and-back, a path with a zero-length piece, and a single piece."""
    paths = [random_polygon_loop(rng, ORIGIN, n_vertices=4, radius=0.8).path for _ in range(3)]
    p = random_polyline(rng, ORIGIN, n_segments=2, radius=0.7)
    paths.append(reparametrize(compose_paths(invert_path(p), p), piecewise_power_map(3, 0.5)))
    a, b = rng.uniform(-0.8, 0.8, size=(2, 2))
    paths.append(polyline([ORIGIN, a, a, b]))
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
            got = _Plan(field, stack_tables([path])).products(16)[0]
            expected = sequential_rk4_transport(field, path, 16)
            assert got.shape == (spec.matrix_dim, spec.matrix_dim)
            assert np.linalg.norm(got - expected) <= 1e-12 * max(1.0, np.linalg.norm(expected))

    @pytest.mark.parametrize("n", [2, 4, 6, 16])
    @pytest.mark.parametrize("spec", [MULTIPLICATIVE_REALS, SU2, gln(2)], ids=lambda s: f"{s.name.value}{s.matrix_dim}")
    def test_half_value_is_the_half_step_pass(self, spec, n, rng):
        # The n/2-step value read from every other lattice point equals an
        # n/2-step pass bit for bit, and the n-step value the fixed pass;
        # the 1e-4 pieces are accepted by the 2-step probe.
        field = random_affine_field(spec, rng, scale=0.3)
        a = rng.uniform(-0.8, 0.8, size=2)
        paths = [loop.path for loop in shared_piece_loops(rng)] + kernel_test_paths(rng)
        paths += [straight_segment(a, a + [1e-4, 0.0]), straight_segment(a, a + [0.0, -1e-4])]
        batch = stack_tables(paths)
        both = _Plan(field, batch).products(n, half=True)
        assert both.shape == (2, len(paths), spec.matrix_dim, spec.matrix_dim)
        assert np.array_equal(both[0], _Plan(field, batch).products(n))
        assert np.array_equal(both[1], _Plan(field, batch).products(n // 2))

    @pytest.mark.parametrize("half", [False, True])
    @pytest.mark.parametrize("spec", [MULTIPLICATIVE_REALS, U1, SU2, gln(3)], ids=lambda s: f"{s.name.value}{s.matrix_dim}")
    def test_entry_major_coefficient_gives_the_c_order_products(self, spec, half, rng):
        # The field's 1-form is stored entry-major, and every kernel
        # temporary inherits that layout; the values do not depend on it.
        import holonomy_forge.holonomy as holonomy

        field = random_affine_field(spec, rng)
        pts, vels = sample_pieces(*stack_tables(kernel_test_paths(rng))[:3], np.linspace(0.0, 1.0, 33))
        m = -holonomy._connection_along(field, pts, vels)
        assert m.transpose(2, 3, 0, 1).flags.c_contiguous
        c_order = np.ascontiguousarray(m)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _rk4_products(spec, m, 16, half), _rk4_products(spec, c_order, 16, half)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_oracle_keeps_end_velocities_in_short_pieces(self):
        # Pieces of span 4e-5 and 1e-5 just below parameter 1, where a
        # nudge of 1e-12 of the span is below one ulp.
        field = hf.get_preset("su2-twist").connection
        verts = [ORIGIN, np.array([0.6, 0.1]), np.array([0.2, 0.7]), ORIGIN]
        path = polyline(verts, [0.0, 0.99995, 0.99999, 1.0])
        got = _Plan(field, stack_tables([path])).products(16)[0]
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
        batch = eval_holonomy(h_map, loops)
        assert batch.shape == (len(loops), spec.matrix_dim, spec.matrix_dim) and batch.dtype == spec.dtype
        for loop, got in zip(loops, batch):
            expected = eval_holonomy(h_map, loop)
            assert expected.spec == spec
            assert np.linalg.norm(got - expected.matrix) <= 1e-12 * max(1.0, np.linalg.norm(expected.matrix))

    def test_transport_batch_matches_sequential_oracle(self, rng):
        field = random_affine_field(SU2, rng)
        h_map = HolonomyMap.transport(field, ORIGIN, 16)
        loops = batch_test_loops(rng)
        for loop, got in zip(loops, eval_holonomy(h_map, loops)):
            expected = np.linalg.inv(sequential_rk4_transport(field, loop.path, 16))
            assert np.linalg.norm(got - expected) <= 1e-12

    def test_checks_every_loop(self):
        shifted = polygon_loop([(1, 1), (2, 1), (2, 2), (1, 1)])
        with pytest.raises(BasepointMismatch):
            eval_holonomy(analytic_map(), [unit_square(), shifted])
        empty = eval_holonomy(analytic_map(), [])
        assert empty.shape == (0, 1, 1) and empty.dtype == analytic_map().spec.dtype

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
            eval_holonomy(h_map, [good] * 40 + [bad] + [good] * 5)


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
    # Difference loops, whose length-1e-4 shift pieces the 2-step probe
    # accepts while it sends their frame legs to the full step count.
    shifts = [reconstruction_loop(radial_family(ORIGIN), x, x + [1e-4, 0.0]) for x in rng.uniform(-0.8, 0.8, (2, 2))]
    return loops + shifts + [beta, alpha]


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
    def test_batch_is_bitwise_single_loop_evaluation(self, spec, backend, rng, monkeypatch):
        field = random_affine_field(spec, rng)
        if backend == "analytic":
            h_map = HolonomyMap.analytic_abelian(field, ORIGIN)
        else:
            h_map = HolonomyMap.transport(field, ORIGIN, 16)
        loops = shared_piece_loops(rng)
        calls = count_sampled_pieces(monkeypatch)
        for loop, got in zip(loops, eval_holonomy(h_map, loops)):
            assert np.array_equal(got, eval_holonomy(h_map, loop).matrix)
        if backend == "transport":
            # The shift pieces are probed and accepted at 2 steps.
            assert chord_lengths(calls, 5).min() <= 1e-4 < chord_lengths(calls, 33).min()

    def test_batch_spans_several_kernel_calls(self, rng, monkeypatch):
        calls = count_sampled_pieces(monkeypatch)
        h_map = HolonomyMap.transport(random_affine_field(SU2, rng), ORIGIN, 16)
        eval_holonomy(h_map, shared_piece_loops(rng))
        assert len(calls) >= 3

    def test_composed_loop_integrates_no_new_piece(self, rng, monkeypatch):
        # Per lattice, since a transport map probes every piece at 2 steps
        # before integrating the ones the probe does not accept at n.  The
        # exact map keys no piece: it integrates every row, each at one
        # node (y dx has degree 1 along a line).
        calls = count_sampled_pieces(monkeypatch)
        alpha = random_polygon_loop(rng, ORIGIN, n_vertices=4, radius=0.8)
        beta = random_polygon_loop(rng, ORIGIN, n_vertices=3, radius=0.8)
        composed = LoopAtBase(compose_paths(alpha.path, beta.path), ORIGIN)
        exact = eval_holonomy(analytic_map(), [alpha, beta, composed])
        assert pieces_per_lattice(calls) == {1: alpha.path.n_pieces + beta.path.n_pieces + composed.path.n_pieces}
        assert np.array_equal(exact, [eval_holonomy(analytic_map(), loop).matrix for loop in (alpha, beta, composed)])
        calls.clear()
        eval_holonomy(HolonomyMap.transport(ydx_field(), ORIGIN, 16), [alpha, beta, composed])
        per_lattice = pieces_per_lattice(calls)
        assert set(per_lattice) == {5, 33}
        assert all(k == alpha.path.n_pieces + beta.path.n_pieces for k in per_lattice.values())

    def test_reparametrized_pieces_are_shared(self, rng, monkeypatch):
        # A reparametrized loop given twice and the same reparametrization
        # built again: the time map is part of the piece key, so each
        # reparametrized piece is transported once.  (y dx has degree 5
        # along a time-mapped line: the transport map does not probe them,
        # and the exact map, which keys no piece, integrates each of the 15
        # rows at 3 nodes.)
        calls = count_sampled_pieces(monkeypatch)
        p = random_polyline(rng, ORIGIN, n_segments=2, radius=0.7)
        out_and_back = compose_paths(invert_path(p), p)
        phi = piecewise_power_map(3, 0.5)
        warped = LoopAtBase(reparametrize(out_and_back, phi), ORIGIN)
        again = LoopAtBase(reparametrize(out_and_back, phi), ORIGIN)
        assert warped.path.n_pieces == 5
        for h_map, lattices, pieces in (
            (analytic_map(), {3}, 3 * warped.path.n_pieces),
            (HolonomyMap.transport(ydx_field(), ORIGIN, 16), {33}, warped.path.n_pieces),
        ):
            calls.clear()
            values = eval_holonomy(h_map, [warped, again, warped])
            per_lattice = pieces_per_lattice(calls)
            assert set(per_lattice) == lattices
            assert all(k == pieces for k in per_lattice.values())
            assert all(np.array_equal(v, values[0]) for v in values)

    def test_signed_zero_twins_are_distinct_pieces(self, monkeypatch):
        # The twins share one piece of three; a transport map probes each
        # of the 5 distinct lines once.
        calls = count_sampled_pieces(monkeypatch)
        plus = polygon_loop([(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.0, 0.0)])
        minus = polygon_loop([(0.0, 0.0), (0.5, -0.0), (0.5, 0.5), (0.0, 0.0)])
        rep, where = _distinct_pieces(stack_tables([plus.path, minus.path]))
        assert len(rep) == 5 and where.tolist() == [0, 1, 2, 3, 4, 2]
        eval_holonomy(HolonomyMap.transport(ydx_field(), ORIGIN, 16), [plus, minus])
        assert pieces_per_lattice(calls)[5] == 5


def count_keyings(monkeypatch) -> list:
    """Record the batch of each ``_distinct_pieces`` call."""
    import holonomy_forge.holonomy as holonomy

    calls = []
    real = holonomy._distinct_pieces

    def counting(batch):
        calls.append(batch)
        return real(batch)

    monkeypatch.setattr(holonomy, "_distinct_pieces", counting)
    return calls


class TestPlanKeying:
    # Only transport keys pieces: the exact map integrates every row of
    # its batch, and a transport plan keys its batch once, on its first
    # pass, however many passes follow.
    def test_exact_map_keys_no_piece(self, rng, monkeypatch):
        from holonomy_forge.reconstruction import reconstruct_potential

        calls = count_keyings(monkeypatch)
        h_map = HolonomyMap.analytic_abelian(random_affine_field(U1, rng), ORIGIN)
        eval_holonomy(h_map, shared_piece_loops(rng))
        eval_holonomy(h_map, unit_square())
        for mu in (0, 1):
            reconstruct_potential(h_map, radial_family(ORIGIN), rng.uniform(-0.8, 0.8, (6, 2)), mu, tol=1e-9)
        assert calls == []

    @pytest.mark.parametrize("spec", [MULTIPLICATIVE_REALS, SU2], ids=lambda s: s.name.value)
    def test_transport_plan_keys_once(self, spec, rng, monkeypatch):
        calls = count_keyings(monkeypatch)
        field = random_affine_field(spec, rng, scale=0.3)
        batch = stack_tables(plan_test_paths(rng))
        plan = _Plan(field, batch)
        assert calls == []
        for n, half in ((2, False), (16, True), (8, False), (32, False)):
            plan.products(n, half=half)
        assert calls == [batch]
        calls.clear()
        steps = _loop_holonomies(HolonomyMap.transport(field, ORIGIN, 1024), batch, tol=1e-9)[1]
        assert steps.max() >= 32 and len(calls) == 1

    @pytest.mark.parametrize("degree", ["field", None], ids=["polynomial", "unknown"])
    @pytest.mark.parametrize("spec", [MULTIPLICATIVE_REALS, U1], ids=lambda s: s.name.value)
    def test_unkeyed_sums_are_the_keyed_sums(self, spec, degree, rng):
        # Repeated and shared pieces, integrated once per row, sum to the
        # keyed integrals and to each loop's own value, bit for bit.
        field = random_affine_field(spec, rng)
        if degree is None:
            field = ConnectionField(2, spec, field.rule)
        loops = shared_piece_loops(rng)
        batch = stack_tables([loop.path for loop in loops])
        assert len(_distinct_pieces(batch)[0]) < len(batch.cubic)
        got = _Plan(field, batch).line_integrals()
        assert np.array_equal(got, reference_keyed_line_integrals(field, batch))
        h_map = HolonomyMap.analytic_abelian(field, ORIGIN)
        singles = [eval_holonomy(h_map, loop).matrix for loop in loops]
        assert np.array_equal(eval_holonomy(h_map, loops), singles)


class TestQuadratureOrder:
    # The exact map integrates each piece with the fewest Gauss-Legendre
    # nodes exact for its integrand's degree, and with the 32-node rule
    # when that degree is unknown or above 63; every rule is computed.
    def test_rules_match_scipy(self):
        from scipy.special import roots_legendre

        for n in range(1, 33):
            u, w = _gauss_legendre(n)
            nodes, weights = roots_legendre(n)
            assert np.abs(2.0 * u - 1.0 - nodes).max() <= 1e-15
            # SciPy scales its weights to sum to 2, which leaves them up to
            # 4.8e-15 from the 50-digit rule (ours stay within 3.1e-16), so
            # they are compared at 1e-14; the monomial test pins ours.
            assert np.abs(2.0 * w - weights).max() <= 1e-14

    def test_rules_integrate_monomials_to_rounding(self):
        eps = np.finfo(float).eps
        for n in range(1, 33):
            u, w = _gauss_legendre(n)
            for j in range(2 * n):
                assert abs((w * u**j).sum() - 1.0 / (j + 1)) <= 4.0 * eps, (n, j)

    def test_32_node_rule_is_more_accurate_than_scipys(self):
        # The computed rule replaced SciPy's roots_legendre(32) as the rule
        # of unknown and high degrees; over the monomials it is exact for,
        # its worst error is below SciPy's (2 eps against 5.78 eps).
        from scipy.special import roots_legendre

        def worst_error(u, w):
            return max(abs((w * u**j).sum() - 1.0 / (j + 1)) for j in range(64))

        nodes, weights = roots_legendre(32)
        assert worst_error(*_gauss_legendre(32)) < worst_error(0.5 * (nodes + 1.0), 0.5 * weights)

    @pytest.mark.parametrize(
        "kind, nodes", [("line", 2), ("cubic", 5), ("time-mapped line", 5), ("time-mapped cubic", 14)]
    )
    def test_node_count_follows_the_piece_degree(self, monkeypatch, kind, nodes):
        # A quadratic field: degree 2, 8, 8 and 26 along the four kinds.
        field = ConnectionField.from_polynomial(2, MULTIPLICATIVE_REALS, [[(1.0, (0, 2), 0)], [(1.0, (1, 1), 0)]])
        calls = count_sampled_pieces(monkeypatch)
        _Plan(field, stack_tables([piece_of_kind(kind, np.eye(4, 2))])).line_integrals()
        assert pieces_per_lattice(calls) == {nodes: 1}

    @pytest.mark.parametrize("degree", [None, 7, 10**30], ids=["unknown", "7", "huge"])
    def test_32_node_rule_agrees_with_the_reference(self, rng, degree):
        # An unknown degree puts every piece on the 32-node rule; so does a
        # degree above 63 on a time-mapped cubic (9 * 7 + 8 = 71), and a
        # degree past int64 on every piece.  Both rules are exact for these
        # affine fields, so they agree to rounding, relative to the integral
        # of the absolute integrand, as in the property test below.
        from scipy.special import roots_legendre

        nodes, weights = roots_legendre(32)
        for spec in (MULTIPLICATIVE_REALS, U1):
            field = random_affine_field(spec, rng)
            field = ConnectionField(2, spec, field.rule, degree)
            paths = plan_test_paths(rng)
            if degree == 7:
                paths = [p for p in paths if p.tmap is not None and p.cubic.all()]
            batch = stack_tables(paths)
            got = _Plan(field, batch).line_integrals()
            want = reference_line_integrals(field, batch)
            pts, vels = sample_pieces(*batch[:3], 0.5 * (nodes + 1.0))
            a = [np.abs(field.rule(pts.reshape(-1, 2), mu)[:, 0, 0]).reshape(pts.shape[:2]) for mu in (0, 1)]
            integrand = a[0] * np.abs(vels[..., 0]) + a[1] * np.abs(vels[..., 1])
            absolute = np.zeros(len(batch.counts))
            np.add.at(absolute, np.repeat(np.arange(len(batch.counts)), batch.counts), integrand @ (0.5 * weights))
            assert np.all(np.abs(got - want) <= 1e-13 * absolute)


def piece_of_kind(kind: str, ctrl: np.ndarray) -> PathNd:
    """A one-piece path through control points ``ctrl`` (4, dim): the line
    from the first to the last or the cubic, time-mapped by i -> i**3 for
    the time-mapped kinds."""
    cubic = "cubic" in kind
    pts = ctrl if cubic else ctrl[[0, 0, 3, 3]]
    path = PathNd(np.array([cubic]), pts[None], np.array([0.0, 1.0]))
    return reparametrize(path, power_map(3)) if kind.startswith("time-mapped") else path


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    degree=st.integers(0, 6),
    kind=st.sampled_from(["line", "cubic", "time-mapped line", "time-mapped cubic"]),
)
def test_per_piece_rule_agrees_with_the_32_node_rule_property(seed, degree, kind):
    # Every monomial of total degree <= D in both directions, so the field
    # has degree D; the integrand then has degree <= 9 * 6 + 8 = 62, where
    # both rules are exact.  Relative to the integral of the absolute terms
    # c x^a y^b dx_mu/du, whose rounding both rules sample: the value
    # itself can cancel to far below them.
    from scipy.special import roots_legendre

    rng = np.random.default_rng(seed)
    monomials = [(a, k - a) for k in range(degree + 1) for a in range(k + 1)]
    terms = [[(rng.normal(), exps, 0) for exps in monomials] for _ in range(2)]
    field = ConnectionField.from_polynomial(2, MULTIPLICATIVE_REALS, terms)
    assert field.degree == degree
    batch = stack_tables([piece_of_kind(kind, rng.uniform(-1.0, 1.0, size=(4, 2)))])
    got = _Plan(field, batch).line_integrals()
    want = reference_line_integrals(field, batch)
    nodes, weights = roots_legendre(32)
    pts, vels = (s[0] for s in sample_pieces(*batch[:3], 0.5 * (nodes + 1.0)))
    absolute = sum(abs(c) * np.abs(pts**exps).prod(axis=1) * np.abs(vels[:, mu]) for mu in (0, 1) for c, exps, _ in terms[mu])
    assert np.abs(got - want).max() <= 1e-13 * (0.5 * weights * absolute).sum()


def count_sampled_pieces(monkeypatch) -> list:
    """Record (samples per piece, control points of the pieces) of each
    kernel call."""
    import holonomy_forge.holonomy as holonomy

    calls = []
    real = holonomy.sample_pieces

    def counting(cubic, ctrl, tmap, u):
        calls.append((len(u), ctrl.copy()))
        return real(cubic, ctrl, tmap, u)

    monkeypatch.setattr(holonomy, "sample_pieces", counting)
    return calls


def pieces_per_lattice(calls) -> dict:
    """Pieces sampled per lattice size, summed over the recorded calls."""
    out: dict = {}
    for samples, ctrl in calls:
        out[samples] = out.get(samples, 0) + len(ctrl)
    return out


def chord_lengths(calls, samples: int) -> np.ndarray:
    """Chord lengths of the pieces sampled on the lattice of that size."""
    ctrl = [c for k, c in calls if k == samples]
    return np.concatenate([np.linalg.norm(c[:, 3] - c[:, 0], axis=1) for c in ctrl]) if ctrl else np.zeros(0)


def plan_test_paths(rng):
    """Lines, cubics, time-mapped lines and cubics, shared and repeated
    pieces, and length-1e-4 pieces that the 2-step probe accepts."""
    paths = [loop.path for loop in shared_piece_loops(rng)] + kernel_test_paths(rng)
    for _ in range(3):
        pts = np.cumsum(0.25 * rng.normal(size=(7, 2)), axis=0)
        cubic = PathNd(np.ones(2, dtype=bool), np.stack([pts[:4], pts[3:]]), np.linspace(0.0, 1.0, 3))
        paths += [cubic, reparametrize(cubic, piecewise_power_map(3, 0.5))]
    a = rng.uniform(-0.8, 0.8, size=2)
    return paths + [straight_segment(a, a + [1e-4, 0.0]), straight_segment(a, a + [0.0, -1e-4])]


class TestIntegrationPlan:
    # A batch's plan holds its distinct pieces, the chains of each
    # quantity and the probe's verdict; every pass equals the single-pass
    # kernel it replaced (``reference_transport_products``) bit for bit.
    SPECS = [MULTIPLICATIVE_REALS, SU2, gln(2)]

    @pytest.mark.parametrize("half", [False, True])
    @pytest.mark.parametrize("n", [2, 4, 16])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.name.value}{s.matrix_dim}")
    def test_single_pass_is_the_reference_kernel(self, spec, n, half, rng):
        field = random_affine_field(spec, rng, scale=0.3)
        batch = stack_tables(plan_test_paths(rng))
        got = _Plan(field, batch).products(n, half=half)
        assert np.array_equal(got, reference_transport_products(field, batch, n, half))
        if n > 2:
            # Some pieces keep the probe's 2-step value.
            plan = _Plan(field, batch)
            plan.products(n)
            assert np.isfinite(plan._probe()).all(axis=(1, 2)).any()

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.name.value}{s.matrix_dim}")
    def test_passes_over_some_quantities_probe_once(self, spec, rng, monkeypatch):
        field = random_affine_field(spec, rng, scale=0.3)
        paths = plan_test_paths(rng)
        paths = paths[: len(paths) - len(paths) % 3]
        plan, full = _Plan(field, stack_tables(paths), per=3), {}
        calls = count_sampled_pieces(monkeypatch)
        for n in (8, 16, 32):
            full[n] = reference_transport_products(field, stack_tables(paths), n, half=True)
        calls.clear()
        for k, n in enumerate((8, 16, 32)):
            quantities = np.sort(rng.choice(plan.quantities, size=4, replace=False))
            chains = (quantities[:, None] * 3 + np.arange(3)).ravel()
            got = plan.products(n, quantities, half=n == 8)
            assert np.array_equal(got, full[n][:, chains] if n == 8 else full[n][0, chains])
            if n > 8:
                # The n/2-step value of a later pass is the previous pass's value.
                assert np.array_equal(full[n][1], full[n // 2][0])
            sampled = pieces_per_lattice(calls)
            # Only the first pass probes; each samples the chosen chains' pieces.
            assert 5 in sampled if k == 0 else 5 not in sampled
            assert sampled[2 * n + 1] <= len(_distinct_pieces(stack_tables([paths[c] for c in chains]))[0])
            calls.clear()


class TestRealArithmeticKernel:
    # The positive reals and real GL(n) are integrated in float64: a
    # complex product or sum whose imaginary parts are 0 rounds like the
    # real one, so the values are those of the complex kernel bit for bit.
    # A 1x1 kernel call holds up to 8192 lattice samples, four times SU(2)'s.
    @pytest.mark.parametrize(
        "spec, steps",
        [(MULTIPLICATIVE_REALS, None), (MULTIPLICATIVE_REALS, 16), (gln(2), 16), (gln(3), 16)],
        ids=["reals-exact", "reals-transport", "GL2", "GL3"],
    )
    def test_real_kernel_is_the_complex_kernel(self, spec, steps, rng, monkeypatch):
        import holonomy_forge.holonomy as holonomy

        field = random_affine_field(spec, rng, scale=0.3)
        h_map = HolonomyMap(field, ORIGIN, steps)
        pts = np.cumsum(np.vstack([ORIGIN, 0.25 * rng.normal(size=(6, 2))]), axis=0)
        cubic = PathNd(np.ones(2, dtype=bool), np.stack([pts[:4], pts[3:]]), [0.0, 0.5, 1.0])
        loop = compose_paths(invert_path(cubic), cubic)
        loops = shared_piece_loops(rng) + [
            LoopAtBase(loop, ORIGIN),
            LoopAtBase(reparametrize(loop, piecewise_power_map(3, 0.5)), ORIGIN),
        ]
        pts, vels = sample_pieces(*stack_tables([x.path for x in loops])[:3], np.linspace(0.0, 1.0, 5))
        assert holonomy._connection_along(field, pts, vels).dtype == np.float64
        got = eval_holonomy(h_map, loops)
        monkeypatch.setattr(holonomy, "_connection_along", complex_connection_along)
        assert np.array_equal(got, eval_holonomy(h_map, loops).real)

    def test_batch_across_chunks_is_bitwise_single_loop_evaluation(self, rng, monkeypatch):
        # At 16 steps a 1x1 call takes 8192 // 33 = 248 pieces (8184
        # samples), so 120 pentagons span at least three calls.  (A field
        # of unknown degree, so that no piece is probed.)
        field = ConnectionField(2, MULTIPLICATIVE_REALS, random_affine_field(MULTIPLICATIVE_REALS, rng, 0.3).rule)
        h_map = HolonomyMap.transport(field, ORIGIN, 16)
        loops = [random_polygon_loop(rng, ORIGIN, n_vertices=5, radius=0.8) for _ in range(120)]
        calls = count_sampled_pieces(monkeypatch)
        values = eval_holonomy(h_map, loops)
        samples = [k * len(ctrl) for k, ctrl in calls]
        assert len(calls) >= 3 and max(samples) == 8184
        for loop, got in zip(loops, values):
            assert np.array_equal(got, eval_holonomy(h_map, loop).matrix)


class TestTwoStepProbe:
    # Every distinct piece along which a polynomial field's coefficient has
    # degree <= 4 is first integrated at 2 steps on the 5-sample lattice;
    # only a piece whose 1- and 2-step values differ by more than rounding,
    # or whose coefficient exceeds the probe's scale, is integrated again,
    # on the 2n+1-sample lattice, with every piece the probe cannot fix.
    def test_shift_pieces_take_two_steps(self, monkeypatch):
        # su2-shear's A_2 = x1 X3 is constant along a shift and vanishes
        # along dx1, so every shift piece is exact at 2 steps; along a
        # frame leg to a point with x1 x2 != 0 it grows linearly.
        from holonomy_forge.reconstruction import reconstruct_potential

        preset = PRESETS["su2-shear"]
        h_map = preset.holonomy_map()
        n = h_map.steps
        calls = count_sampled_pieces(monkeypatch)
        for mu in (0, 1):
            reconstruct_potential(h_map, preset.frame(), np.array([[0.6, -0.4], [-0.3, 0.8]]), mu)
        probed, full = chord_lengths(calls, 5), chord_lengths(calls, 2 * n + 1)
        assert set(pieces_per_lattice(calls)) == {5, 2 * n + 1}
        shifts, legs = probed[probed <= 1e-4], probed[probed > 0.1]
        assert len(shifts) + len(legs) == len(probed) and len(shifts) > 0
        assert sorted(full) == sorted(legs)

    @pytest.mark.parametrize("c, at_n", [(3000.0, True), (1.0, False)])
    def test_probe_reads_the_field(self, monkeypatch, c, at_n):
        # A = c y dx on the positive reals around a 1e-5-wide strip of
        # height 0.7: only the top edge sees the field, with coefficient
        # 0.7e-5 c.  At c = 3000 its 2-step truncation is far above
        # rounding and it takes the full n steps; at c = 1 it does not.
        field = ConnectionField.from_polynomial(2, MULTIPLICATIVE_REALS, [[(c, (0, 1), 0)], []])
        strip = polygon_loop([(0.0, 0.0), (0.0, 0.7), (1e-5, 0.7), (1e-5, 0.0), (0.0, 0.0)])
        calls = count_sampled_pieces(monkeypatch)
        got = eval_holonomy(HolonomyMap.transport(field, ORIGIN, 64), strip).matrix[0, 0]
        assert pieces_per_lattice(calls) == ({5: 4, 129: 1} if at_n else {5: 4})
        if at_n:
            assert chord_lengths(calls, 129)[0] == pytest.approx(1e-5)
        exact = eval_holonomy(HolonomyMap.analytic_abelian(field, ORIGIN), strip).matrix[0, 0]
        assert abs(got - exact) <= 1e-14 * exact

    @pytest.mark.parametrize(
        "spec, terms, n, probed",
        [
            # P1 = 1 - 10/6 and the second 2-step propagator are negative.
            (MULTIPLICATIVE_REALS, [(20.0, (2,), 0), (-10.0, (1,), 0)], 4, True),
            # The 1- and 2-step propagators of a 1e78 coefficient overflow;
            # each of the 64 steps is finite and projected to unit modulus.
            (U1, [(1e78, (0,), 0)], 64, True),
            # 2000 x (x - 1/4) (x - 1/2)^2 (x - 3/4) (x - 1) vanishes at all
            # five probe samples; at degree 6 it is not probed.
            (
                MULTIPLICATIVE_REALS,
                [(2000.0 * c, (k,), 0) for k, c in enumerate(np.poly1d([0.25, 0.5, 0.5, 0.75, 1.0, 0.0], True).c[::-1])],
                64,
                False,
            ),
            # A constant coefficient at which the 1- and 2-step propagators
            # agree, both 435.7 against exp(-10.98) = 1.7e-5: above the
            # probe's scale, so their gap is not read.
            (MULTIPLICATIVE_REALS, [(10.982425466293268, (0,), 0)], 64, True),
        ],
        ids=["leaves-positive-reals", "overflows", "aliased", "coincident"],
    )
    def test_unaccepted_piece_takes_n_steps(self, monkeypatch, spec, terms, n, probed):
        field = ConnectionField.from_polynomial(1, spec, [terms])
        path = straight_segment([0.0], [1.0])
        calls = count_sampled_pieces(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = transport_along(field, path, GroupElement.identity(spec), n).matrix
        assert pieces_per_lattice(calls) == ({5: 1, 2 * n + 1: 1} if probed else {2 * n + 1: 1})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = sequential_rk4_transport(field, path, n)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("warp", [False, True])
    def test_pieces_of_high_degree_are_not_probed(self, monkeypatch, warp):
        # A quadratic field has degree 2 along a line but 8 along the same
        # line under a cubic time map.
        field = ConnectionField.from_polynomial(2, MULTIPLICATIVE_REALS, [[(1e-3, (0, 2), 0)], []])
        loop = polygon_loop([(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.0, 0.0)])
        if warp:
            loop = LoopAtBase(reparametrize(loop.path, power_map(2)), ORIGIN)
        calls = count_sampled_pieces(monkeypatch)
        eval_holonomy(HolonomyMap.transport(field, ORIGIN, 16), loop)
        assert 5 not in pieces_per_lattice(calls) if warp else 5 in pieces_per_lattice(calls)

    def test_field_of_unknown_degree_is_not_probed(self, monkeypatch):
        # A reconstructed connection's samples each cost a reconstruction,
        # and its degree is unknown; so is that of this copy of y dx.
        field = ConnectionField(2, ydx_field().spec, ydx_field().rule)
        calls = count_sampled_pieces(monkeypatch)
        eval_holonomy(HolonomyMap.transport(field, ORIGIN, 16), unit_square())
        assert set(pieces_per_lattice(calls)) == {33}


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
                eval_holonomy(HolonomyMap.analytic_abelian(field, ORIGIN), [small, unit_square()])

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


    @pytest.mark.parametrize("degree", [-1, 1.0, np.float64(2.0), True, "2", [2]])
    def test_degree_is_none_or_a_nonnegative_integer(self, degree):
        # The degree sets the quadrature's node counts and the probe.
        rule = ydx_field().rule
        with pytest.raises(ValueError, match="degree must be None or an integer"):
            ConnectionField(2, MULTIPLICATIVE_REALS, rule, degree)
        assert ConnectionField(2, MULTIPLICATIVE_REALS, rule, np.int64(3)).degree == 3
        assert ConnectionField(2, MULTIPLICATIVE_REALS, rule).degree is None

    @pytest.mark.parametrize(
        "values, what",
        [
            (lambda m: np.full((m, 1, 1), 0.1 + 0j), r"complex128 values of shape \(\d+, 1, 1\)"),
            (lambda m: np.zeros((m, 2, 2)), r"float64 values of shape \(\d+, 2, 2\)"),
        ],
        ids=["complex-for-a-real-group", "2x2-for-a-1x1-group"],
    )
    def test_bad_rule_values_are_named(self, values, what):
        # Each used to raise from inside the kernel: numpy's UFuncTypeError
        # (a TypeError, which no caller catches) or a bare broadcast error.
        field = ConnectionField(2, MULTIPLICATIVE_REALS, lambda pts, mu: values(len(pts)))
        message = f"rule gave {what} in direction 0"
        for steps in (None, 8):
            with pytest.raises(ValueError, match=message):
                eval_holonomy(HolonomyMap(field, ORIGIN, steps), unit_square())
        with pytest.raises(ValueError, match=message):
            transport_along(field, straight_segment([0.0, 0.0], [1.0, 0.5]), GroupElement.identity(field.spec), 8)

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

    @pytest.mark.parametrize("grid, k", [(2, 1), (4.5, 1), (True, 1), (5, 0), (5, 1.0)])
    def test_small_grid_rejected(self, grid, k):
        with pytest.raises(ValueError):
            check_axiom3(analytic_map(), lambda u: unit_square(), grid=grid, k=k)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", ["HolonomyMap.transport", "LoopAtBase", "radial_family"])
    def test_non_finite_base_point_rejected(self, entry, bad):
        # Every comparison with nan, and inf's distance to inf, is false, so
        # no loop was ever checked against such a base point.
        base = np.array([bad, 0.0])
        build = {
            "HolonomyMap.transport": lambda: HolonomyMap.transport(hf.get_preset("su2-shear").connection, base, 8),
            "LoopAtBase": lambda: LoopAtBase(unit_square().path, base),
            "radial_family": lambda: radial_family(base),
        }[entry]
        with pytest.raises(ValueError, match="base point must be finite"):
            build()


class TestTransportArguments:
    # Step counts of 0, -2 or 2.7 used to raise ZeroDivisionError, numpy's
    # sample-count error or TypeError, or (HolonomyMap.transport) run 2.7 as
    # 2 steps; a 3-d path or base point on a 2-d field failed inside numpy.
    @pytest.mark.parametrize("entry", ["transport_along", "HolonomyMap.transport", "HolonomyMap"])
    @pytest.mark.parametrize(
        "steps, dim, error",
        [
            (0, 2, ValueError),
            (-2, 2, ValueError),
            (2.7, 2, ValueError),
            (4.0, 2, ValueError),
            (True, 2, ValueError),
            (4, 3, DimMismatch),
            (np.int64(4), 2, None),
        ],
    )
    def test_step_count_and_dimension_checked_where_transport_starts(self, entry, steps, dim, error):
        field, ident = ydx_field(), GroupElement.identity(MULTIPLICATIVE_REALS)
        if entry == "transport_along":
            run = lambda: transport_along(field, straight_segment(np.zeros(dim), np.full(dim, 0.5)), ident, steps)
        elif entry == "HolonomyMap.transport":
            run = lambda: HolonomyMap.transport(field, np.zeros(dim), steps)
        else:
            run = lambda: HolonomyMap(field, np.zeros(dim), steps)
        if error is None:
            run()
            return
        with pytest.raises(error) as info:
            run()
        assert isinstance(info.value, DimMismatch) == (error is DimMismatch)


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

    @pytest.mark.parametrize(
        "bad",
        [
            dict(radius=0.0),
            dict(radius=-0.5),
            dict(radius=float("nan")),
            dict(radius=float("inf")),
            dict(radius=True),
            dict(radius="0.5"),
            dict(axiom3_grid=2),
            dict(axiom3_grid=0),
            dict(axiom3_grid=4.0),
            dict(samples=True),
            dict(samples=2.5),
            dict(samples=3.0),
            dict(samples="3"),
            dict(tolerances=(1.0, 1.0)),
            dict(tolerances=(1.0, 1.0, 1.0, 1.0)),
            dict(tolerances=(1.0, float("nan"), 1.0)),
            dict(tolerances=(1.0, 1.0, -1.0)),
            dict(tolerances=(0.0, 1.0, 1.0)),
            dict(tolerances=(1.0, True, 1.0)),
            dict(tolerances=(1.0, "1", 1.0)),
            dict(axiom3_shift=((0.5, 0.5),)),
            dict(axiom3_shift=((0.5, 0.5), (1.0, 0.0), (0.0, 1.0))),
            dict(axiom3_shift=((0.5, 0.5, 0.5), (1.0, 0.0, 0.0))),
            dict(axiom3_shift=((0.5,), (1.0,))),
            dict(axiom3_shift=((0.5, float("nan")), (1.0, 0.0))),
            dict(axiom3_shift=((0.5, 0.5), (float("inf"), 0.0))),
            dict(axiom3_shift=((0.5, 0.5), 1.0)),
        ],
        ids=lambda bad: "-".join(f"{k}={v!r}" for k, v in bad.items()),
    )
    def test_bad_inputs_refused_before_any_loop_is_drawn(self, bad, monkeypatch):
        # A zero radius would pass vacuously, a non-finite one fail inside
        # numpy, and a small grid, too few or too many gates, a gate that
        # is not positive or a bad shift only after axioms 1 and 2 are
        # evaluated.
        from holonomy_forge import holonomy

        def drawn(*args):
            raise AssertionError("a loop was drawn")

        monkeypatch.setattr(holonomy, "_composition_triples", drawn)
        kwargs = dict(samples=3, seed=0, tolerances=(1.0, 1.0, 1.0)) | bad
        with pytest.raises(ValueError):
            audit_axioms(analytic_map(), **kwargs)

    @pytest.mark.parametrize("gate", [float("nan"), -1.0, 0.0])
    @pytest.mark.parametrize("law", [0, 1, 2])
    def test_bad_gate_refused_before_step_doubling(self, gate, law, monkeypatch):
        # Under error control a NaN or negative gate used to be refused by
        # step doubling, after the laws before it had been evaluated.
        from holonomy_forge import holonomy

        def drawn(*args):
            raise AssertionError("a loop was drawn")

        monkeypatch.setattr(holonomy, "_composition_triples", drawn)
        gates = tuple(gate if k == law else 1.0 for k in range(3))
        with pytest.raises(ValueError, match="three positive gates"):
            audit_axioms(hf.get_preset("su2-twist").holonomy_map(16), samples=3, seed=0, tolerances=gates, error_control=True)

    def test_report_json_keys(self):
        report = AxiomReport(1e-12, 2e-12, 0.1, 7, (True, True, False))
        d = report.to_json_dict()
        assert list(d.keys()) == [
            "axiom1_max_defect",
            "axiom2_max_defect",
            "axiom3_max_second_difference",
            "samples",
            "pass",
            "steps",
            "integration_estimates",
        ]
        assert d["pass"] == [True, True, False]
        assert d["steps"] is None and d["integration_estimates"] is None
        json.dumps(d)


class TestControlledAudit:
    # With error_control each law's loops take per quantity the fewest
    # steps, doubled from 8 up to the map's, whose estimate
    # max|H_n - H_{n/2}| / 15 meets a tenth of the gate (axiom 3: gate d^2
    # / 40 per family loop); a pair's three loops share one count.
    @pytest.mark.parametrize("preset", ["su2-twist", "abelian-ydx"])
    def test_equals_serial_controlled_checks(self, preset):
        p = hf.get_preset(preset)
        h_map, gates = p.holonomy_map(), tuple(p.tolerances[f"axiom{k}"] for k in (1, 2, 3))
        kwargs = dict(samples=6, seed=5, tolerances=gates)
        got = audit_axioms(h_map, error_control=True, **kwargs)
        assert got == serial_controlled_audit(h_map, **kwargs)
        assert got.all_passed
        assert all(n in (8, 16, 32, 64, 128) for n in got.steps)
        per_loop = (gates[0] / 10.0, gates[1] / 10.0, gates[2] / 10.0 / 20.0**2 / 4.0)
        assert all(0.0 < e <= t for e, t in zip(got.integration_estimates, per_loop))

    def test_without_control_or_on_an_analytic_map_the_fixed_audit(self):
        kwargs = dict(samples=5, seed=2, tolerances=(1e-6, 1e-8, 0.2))
        su2 = hf.get_preset("su2-twist").holonomy_map()
        assert audit_axioms(su2, **kwargs) == audit_axioms(su2, error_control=False, **kwargs) == serial_audit(su2, **kwargs)
        fixed = audit_axioms(analytic_map(), **kwargs)
        assert audit_axioms(analytic_map(), error_control=True, **kwargs) == fixed
        assert fixed.steps is None and fixed.integration_estimates is None

    def test_infinite_gate_accepts_the_first_pass(self):
        h_map = hf.get_preset("su2-twist").holonomy_map()
        report = audit_axioms(h_map, samples=4, seed=1, tolerances=(np.inf, 1e-8, np.inf), error_control=True)
        assert report.steps[0] == report.steps[2] == 8
        assert report.integration_estimates[0] > 0.0 and report.integration_estimates[2] > 0.0

    @pytest.mark.parametrize(
        "gates, message",
        [((1e-17, 1.0, np.inf), r"axiom 1, loop pair 0: "), ((1.0, 1e-14, np.inf), r"axiom 2, thin loop \d+: ")],
    )
    def test_above_tol_at_the_cap_raises_naming_the_law(self, gates, message):
        h_map = hf.get_preset("su2-twist").holonomy_map(16)
        with pytest.raises(IntegrationError, match=message + r"step-doubling estimate \S+ exceeds \S+ at 16 steps"):
            audit_axioms(h_map, samples=3, seed=0, tolerances=gates, error_control=True)


class TestAuditBatches:
    # The audit draws each law's random loops as whole arrays, one checked
    # batch per law; they must be the loops of the per-loop construction,
    # bit for bit.
    @staticmethod
    def assert_same_bits(got, want):
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("samples", [1, 2, 7])
    @pytest.mark.parametrize("radius", [0.3, 0.75])
    @pytest.mark.parametrize("seed", [0, 5, 31])
    def test_batches_equal_the_per_loop_construction(self, dim, samples, radius, seed):
        base = 0.25 + 0.5 * np.arange(dim)
        rng = np.random.default_rng(seed)
        triples = _composition_triples(rng, base, samples, radius)
        thin = _thin_loops(rng, base, samples, radius)
        want_triples, want_thin, _ = per_loop_audit_batches(base, samples, seed, radius)
        self.assert_same_bits(triples, want_triples)
        self.assert_same_bits(thin, want_thin)
        assert triples.counts.tolist() == [10, 5, 5] * samples
        assert thin.counts.tolist() == [4 if k % 2 == 0 else 5 for k in range(samples)]

    @staticmethod
    def mutable_batches():
        base = np.array([0.5, -0.25])
        triples, thin, spans = per_loop_audit_batches(base, 4, 7)
        copy = lambda b, **kw: b._replace(ctrl=b.ctrl.copy(), **kw)
        return base, {"composition": (copy(triples), None), "thin": (copy(thin), spans)}

    @pytest.mark.parametrize("law, row", [("composition", 1), ("composition", 23), ("thin", 1), ("thin", 5)])
    def test_batch_check_refuses_a_moved_control_point(self, law, row):
        # Row 5 of the thin batch is the second time-mapped row of loop 1.
        base, batches = self.mutable_batches()
        batch, spans = batches[law]
        _check_loops(batch, base, spans)
        batch.ctrl[row, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="discontinuous"):
            _check_loops(batch, base, spans)

    @pytest.mark.parametrize("law", ["composition", "thin"])
    def test_batch_check_refuses_a_chain_off_the_base_point(self, law):
        # The whole chain moves, so its rows still meet; only its ends are off.
        base, batches = self.mutable_batches()
        batch, spans = batches[law]
        start = batch.counts[0]
        batch.ctrl[start : start + batch.counts[1]] += 1e-6
        with pytest.raises(ValueError, match="base point"):
            _check_loops(batch, base, spans)

    @pytest.mark.parametrize("law", ["composition", "thin"])
    def test_batch_check_refuses_a_nan_control_point(self, law):
        # An inner control point of a line, which no junction test reads.
        base, batches = self.mutable_batches()
        batch, spans = batches[law]
        batch.ctrl[2, 1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            _check_loops(batch, base, spans)

    def test_audit_builds_few_paths(self, monkeypatch):
        # No law builds a path per loop: the one PathNd is the thin law's
        # time map, piecewise_power_map(3, 0.5), and the smoothness family
        # takes one frame table for its anchors and one for its shifts.
        made, tables = [], []
        init, fetch = PathNd.__init__, PathFamily.tables
        monkeypatch.setattr(PathNd, "__init__", lambda self, *args, **kw: made.append(1) or init(self, *args, **kw))
        monkeypatch.setattr(PathFamily, "tables", lambda self, points: tables.append(1) or fetch(self, points))
        h_map = hf.get_preset("su2-twist").holonomy_map()
        audit_axioms(h_map, samples=30, seed=1, tolerances=(1e-6, 1e-8, 0.2), axiom3_grid=21)
        assert (len(made), len(tables)) == (1, 2)


class TestAxiom3Table:
    # The audit builds its smoothness family from (anchor, step) as one
    # checked table; it must give what the family built loop by loop with
    # reconstruction_loop gives (tests/_oracles.serial_audit and
    # serial_controlled_audit), bit for bit in proxy, steps and estimates.
    BASES = {2: (0.3, -0.2), 3: (0.1, -0.2, 0.25)}
    SHIFTS = {2: ((0.4, -0.3), (0.7, 0.2)), 3: ((0.2, 0.5, -0.4), (0.3, -0.6, 0.25))}
    U1_TERMS = {
        2: [[(1.0, (0, 1), 0)], [(-0.5, (1, 0), 0)]],
        3: [[(1.0, (0, 1, 0), 0)], [(-0.5, (1, 0, 0), 0)], [(0.3, (1, 1, 0), 0)]],
    }
    SU2_TERMS = {
        2: [[(1.0, (0, 1), 0)], [(0.7, (1, 0), 1)]],
        3: [[(1.0, (0, 1, 0), 0)], [(0.7, (0, 0, 1), 1)], [(0.5, (1, 0, 0), 2)]],
    }

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["exact", "fixed", "controlled"])
    @pytest.mark.parametrize("explicit", [False, True])
    @pytest.mark.parametrize("grid", [3, 21])
    def test_audit_equals_the_per_loop_family(self, dim, kind, explicit, grid):
        if kind == "exact":
            h_map = HolonomyMap(ConnectionField.from_polynomial(dim, U1, self.U1_TERMS[dim]), self.BASES[dim])
        else:
            h_map = HolonomyMap(ConnectionField.from_polynomial(dim, SU2, self.SU2_TERMS[dim]), self.BASES[dim], 64)
        kwargs = dict(samples=2, seed=3, tolerances=(1e-6, 1e-6, 1.0), axiom3_grid=grid)
        kwargs["axiom3_shift"] = self.SHIFTS[dim] if explicit else None
        if kind == "controlled":
            got, want = audit_axioms(h_map, error_control=True, **kwargs), serial_controlled_audit(h_map, **kwargs)
            assert got.steps[2] in (8, 16, 32, 64) and got.integration_estimates[2] > 0.0
        else:
            got, want = audit_axioms(h_map, **kwargs), serial_audit(h_map, **kwargs)
        assert repr(got) == repr(want)
        assert got.axiom3_max_second_difference > 0.0
