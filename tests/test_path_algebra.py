import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from holonomy_forge.path_algebra import (
    _CONT_TOL,
    EndpointMismatch,
    LoopAtBase,
    NotMonotone,
    PathFamily,
    PathNd,
    _time_breakpoints,
    axis_dogleg_family,
    compose_paths,
    constant_path,
    contract,
    invert_path,
    piecewise_power_map,
    power_map,
    radial_family,
    random_polygon_loop,
    reconstruction_chains,
    reconstruction_loop,
    reparametrize,
    straight_segment,
    thin_reduce,
)

from holonomy_forge.segment_table import bezier_points, bezier_velocities, sample_pieces, thin_keep, time_map

from _oracles import (
    LazyReparametrization,
    brentq_breakpoints,
    reference_thin_keep,
    polyline_vertices,
    segment_compose,
    segment_contract,
    segment_invert,
    segment_thin_reduce,
    shoelace_area,
)
from conftest import polyline


def random_cubic_path(rng, dim=2, n_segments=3):
    pts = [rng.normal(size=dim)]
    for _ in range(3 * n_segments):
        pts.append(pts[-1] + 0.5 * rng.normal(size=dim))
    ctrl = np.stack([pts[3 * k : 3 * k + 4] for k in range(n_segments)])
    return PathNd(np.ones(n_segments, dtype=bool), ctrl, np.linspace(0.0, 1.0, n_segments + 1))


class TestSegment:
    # One row of a segment table, evaluated by bezier_points and
    # bezier_velocities.
    def test_line_endpoints_exact(self):
        a, b = np.array([0.0, 1.0]), np.array([2.0, -3.0])
        row = np.stack([a, a, b, b])
        assert np.array_equal(bezier_points(False, row, 0.0), a)
        assert np.array_equal(bezier_points(False, row, 1.0), b)

    def test_cubic_endpoints_exact(self, rng):
        row = rng.normal(size=(4, 3))
        assert np.array_equal(bezier_points(True, row, 0.0), row[0])
        assert np.array_equal(bezier_points(True, row, 1.0), row[3])

    def test_cubic_velocity_matches_difference_quotient(self, rng):
        row = rng.normal(size=(4, 2))
        for u in (0.2, 0.5, 0.9):
            fd = (bezier_points(True, row, u + 1e-7) - bezier_points(True, row, u - 1e-7)) / 2e-7
            assert np.linalg.norm(bezier_velocities(True, row, u) - fd) < 1e-6

    def test_bad_shapes_rejected(self):
        # The table constructor takes flags (s,), control points (s, 4, dim)
        # and time maps (s, 4), and nothing else.
        bp = [0.0, 1.0]
        line = np.zeros((1, 4, 2))
        for cubic, ctrl in [
            ([False], np.zeros((1, 2, 2))),  # a line given by its two ends
            ([False], np.zeros((1, 3, 2))),
            ([False], np.zeros((4, 2))),
            ([False], np.zeros((1, 4, 0))),
            ([False, False], line),
            ([[False]], line),
        ]:
            with pytest.raises(ValueError, match="a table needs"):
                PathNd(cubic, ctrl, bp)
        for tmap in (np.zeros(4), np.zeros((1, 3)), np.zeros((2, 4))):
            with pytest.raises(ValueError, match="time maps must have shape"):
                PathNd([False], line, bp, tmap)


class TestCompose:
    def test_constant_then_path_is_thin_equivalent(self):
        p = straight_segment([0.0, 0.0], [1.0, 2.0])
        r = thin_reduce(compose_paths(constant_path([1.0, 2.0]), p))
        for i in np.linspace(0, 1, 11):
            assert np.linalg.norm(r.point(i) - p.point(i)) < 1e-12

    def test_l_path_direct_evaluation(self):
        a = straight_segment([0.0, 0.0], [1.0, 0.0])
        b = straight_segment([1.0, 0.0], [1.0, 1.0])
        r = compose_paths(b, a)  # a first, then b
        assert r.breakpoints[1] == 0.5
        expected = {0.0: [0, 0], 0.25: [0.5, 0], 0.5: [1, 0], 0.75: [1, 0.5], 1.0: [1, 1]}
        for i, pt in expected.items():
            assert np.linalg.norm(r.point(i) - np.array(pt, float)) < 1e-15

    def test_out_and_back_reduces_to_constant(self, rng):
        p = random_cubic_path(rng)
        loop = compose_paths(invert_path(p), p)
        reduced = thin_reduce(loop)
        assert reduced.is_constant()
        assert np.linalg.norm(reduced.point(0.5) - p.point(0.0)) < 1e-12

    def test_endpoint_mismatch_rejected(self):
        a = straight_segment([0.0, 0.0], [1.0, 0.0])
        b = straight_segment([5.0, 5.0], [6.0, 5.0])
        with pytest.raises(EndpointMismatch):
            compose_paths(a, b)


class TestInvert:
    def test_constant_unchanged(self):
        c = constant_path([1.0, 2.0])
        assert invert_path(c).is_constant()

    def test_line_endpoint_swap(self):
        p = invert_path(straight_segment([0.0, 0.0], [1.0, 2.0]))
        assert np.array_equal(p.point(0.0), [1.0, 2.0])
        assert np.array_equal(p.point(1.0), [0.0, 0.0])

    def test_involution_is_structural_identity(self, rng):
        p = random_cubic_path(rng)
        q = invert_path(invert_path(p))
        assert np.array_equal(q.cubic, p.cubic) and np.array_equal(q.ctrl, p.ctrl)
        assert np.allclose(q.breakpoints, p.breakpoints, atol=1e-15)

    def test_reflects_parametrization(self, rng):
        p = random_cubic_path(rng)
        q = invert_path(p)
        for i in np.linspace(0, 1, 17):
            assert np.linalg.norm(q.point(i) - p.point(1.0 - i)) < 1e-12


class TestContract:
    def test_full_contraction_is_pointwise_identity(self, rng):
        p = random_cubic_path(rng)
        k = contract(p, 1.0)
        for i in np.linspace(0, 1, 31):
            assert np.linalg.norm(k.point(i) - p.point(i)) < 1e-12

    def test_zero_contraction_is_constant(self, rng):
        p = random_cubic_path(rng)
        k = contract(p, 0.0)
        assert k.is_constant()
        assert np.linalg.norm(k.point(1.0) - p.point(0.0)) < 1e-15

    def test_half_line_example(self):
        p = straight_segment([0.0, 0.0], [2.0, 0.0])
        k = contract(p, 0.5)
        for j in np.linspace(0, 1, 21):
            assert np.linalg.norm(k.point(j) - np.array([j, 0.0])) < 1e-15

    def test_rescaling_oracle_on_random_paths(self, rng):
        # defining property: K(p, i)(j) = p(i * j)
        for _ in range(5):
            p = random_cubic_path(rng)
            i = float(rng.uniform(0.05, 0.99))
            k = contract(p, i)
            grid = np.linspace(0, 1, 101)
            assert np.max(np.linalg.norm(k.point(grid) - p.point(i * grid), axis=1)) <= 1e-12

    def test_endpoint_property_on_grid(self, rng):
        p = random_cubic_path(rng)
        for i in np.linspace(0, 1, 101):
            assert np.linalg.norm(contract(p, i).point(1.0) - p.point(i)) <= 1e-12


class TestStraightSegment:
    def test_degenerate_is_constant(self):
        assert straight_segment([1.0, 1.0], [1.0, 1.0]).is_constant()

    def test_affine_midpoint(self):
        p = straight_segment([1.0, 2.0], [1.001, 2.0])
        assert np.allclose(p.point(0.5), [1.0005, 2.0], atol=1e-15)


class TestRadialFamily:
    def test_scaling_rule(self):
        psi = radial_family([0.0, 0.0])
        assert np.allclose(psi[[1.0, 2.0]].point(0.5), [0.5, 1.0], atol=1e-15)

    def test_base_path_is_constant(self):
        psi = radial_family([0.0, 0.0])
        assert psi[[0.0, 0.0]].is_constant()

    def test_reaches_target(self, rng):
        psi = radial_family([0.3, -0.2])
        for _ in range(100):
            x = rng.uniform(-3, 3, size=2)
            assert np.linalg.norm(psi[x].point(1.0) - x) < 1e-12


class TestReconstructionLoop:
    def test_same_point_reduces_to_constant(self):
        psi = radial_family([0.0, 0.0])
        loop = reconstruction_loop(psi, [1.0, 1.0], [1.0, 1.0])
        assert thin_reduce(loop.path).is_constant()

    def test_triangle_signed_area(self):
        psi = radial_family([0.0, 0.0])
        h = 0.25
        loop = reconstruction_loop(psi, [1.0, 0.0], [1.0, h])
        verts = polyline_vertices(loop)[:-1]  # closed chain, drop repeat
        assert abs(shoelace_area(verts) - h / 2.0) < 1e-15

    def test_swap_is_inverse_up_to_reduction(self):
        psi = radial_family([0.0, 0.0])
        a = thin_reduce(reconstruction_loop(psi, [1.0, 0.2], [0.5, 0.9]).path)
        b = thin_reduce(invert_path(reconstruction_loop(psi, [0.5, 0.9], [1.0, 0.2]).path))
        assert np.array_equal(a.cubic, b.cubic)
        assert np.allclose(a.ctrl, b.ctrl, atol=1e-12)


    @pytest.mark.parametrize("family", [radial_family, axis_dogleg_family])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_equals_the_composed_legs(self, family, dim):
        # One fetch of both frame paths gives the rows and breakpoints of
        # the loop composed leg by leg, bit for bit.
        rng = np.random.default_rng(dim)
        psi = family(rng.uniform(-1.0, 1.0, size=dim))
        for x, y in rng.uniform(-2.0, 2.0, size=(5, 2, dim)):
            loop = reconstruction_loop(psi, x, y)
            want = compose_paths(invert_path(psi[y]), compose_paths(straight_segment(x, y), psi[x]))
            assert np.array_equal(loop.basepoint, psi.basepoint) and loop.path.tmap is None
            for got, ref in zip((loop.path.cubic, loop.path.ctrl, loop.path.breakpoints), (want.cubic, want.ctrl, want.breakpoints)):
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


class TestThinReduce:
    def test_spur_removed(self):
        sq = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]
        spur_tip = (2.0, 2.0)
        reduced = thin_reduce(polyline(sq[:2] + [spur_tip, sq[1]] + sq[2:]))
        assert reduced.n_pieces == 4
        assert np.allclose(polyline_vertices(reduced), sq, atol=1e-15)

    def test_fixed_point_on_reduced_path(self):
        a = straight_segment([0.0, 0.0], [1.0, 0.0])
        b = straight_segment([1.0, 0.0], [1.0, 1.0])
        l_path = compose_paths(b, a)
        r = thin_reduce(l_path)
        assert np.array_equal(r.cubic, l_path.cubic) and np.array_equal(r.ctrl, l_path.ctrl)

    def test_nested_cancellation(self, rng):
        p = random_cubic_path(rng, n_segments=2)
        q = compose_paths(invert_path(p), p)
        loop = compose_paths(invert_path(q), q)
        assert thin_reduce(loop).is_constant()


class TestReparametrize:
    def test_identity_returns_same_path(self):
        p = straight_segment([0.0, 0.0], [1.0, 1.0])
        assert reparametrize(p, polyline([[0.0], [1.0]])) is p

    def test_square_map_on_line(self):
        p = straight_segment([0.0, 0.0], [1.0, 0.0])
        r = reparametrize(p, power_map(2))
        assert np.linalg.norm(r.point(0.5) - p.point(0.25)) < 1e-15

    def test_power_maps_are_exact(self):
        ts = np.linspace(0, 1, 33)
        for k in (1, 2, 3):
            vals = power_map(k).point(ts)[:, 0]
            assert np.max(np.abs(vals - ts**k)) < 1e-15

    def test_piecewise_power_map_values(self):
        phi = piecewise_power_map(3, 0.5)
        for t in (0.1, 0.3, 0.5):
            assert abs(float(phi.point(t)[0]) - t**3) < 1e-15
        assert abs(float(phi.point(1.0)[0]) - 1.0) < 1e-15

    def test_velocity_chain_rule(self, rng):
        p = random_cubic_path(rng)
        r = reparametrize(p, power_map(3))
        for t in (0.21, 0.6, 0.83):
            fd = (r.point(t + 1e-7) - r.point(t - 1e-7)) / 2e-7
            assert np.linalg.norm(r.velocity(t) - fd) < 1e-5

    def test_decreasing_map_rejected(self):
        p = straight_segment([0.0, 0.0], [1.0, 0.0])
        dip = PathNd([True], [[[0.0], [1.5], [-0.5], [1.0]]], [0.0, 1.0])
        with pytest.raises(NotMonotone):
            reparametrize(p, dip)

    def test_dip_between_velocity_samples_rejected(self):
        # True least velocity -2.0e-9 near t = 0.502; sampled at 257 points
        # it reads +4.6e-5.
        p = straight_segment([0.0, 0.0], [1.0, 0.0])
        y = [0.0, 1.0077816275561928, 0.007842657252058238, 1.0]
        dip = PathNd([True], np.array(y)[None, :, None], [0.0, 1.0])
        with pytest.raises(NotMonotone):
            reparametrize(p, dip)
        for phi in (*map(power_map, (1, 2, 3)), piecewise_power_map(2), piecewise_power_map(3, 0.3)):
            reparametrize(p, phi)

    def test_wrong_endpoints_rejected(self):
        p = straight_segment([0.0, 0.0], [1.0, 0.0])
        phi = polyline([[0.0], [0.5]])
        with pytest.raises(NotMonotone):
            reparametrize(p, phi)


def flat_time_map(level: float) -> PathNd:
    """A time map that rises along a cubic to ``level``, stays there, then
    rises along a line to 1."""
    rise = [0.0, 0.0, 0.5 * level, level]
    flat = [level] * 4
    tail = [level, level, 1.0, 1.0]
    return PathNd([True, False, False], np.array([rise, flat, tail])[..., None], [0.0, 0.3, 0.7, 1.0])


def polyline_1d(breakpoints) -> PathNd:
    return polyline(np.arange(len(breakpoints), dtype=float)[:, None], breakpoints)


_time_map = st.one_of(
    st.integers(1, 3).map(power_map),
    st.builds(piecewise_power_map, st.sampled_from([2, 3]), st.floats(0.05, 0.95)),
    st.floats(0.05, 0.95).map(flat_time_map),
)


@settings(max_examples=150, deadline=None)
@given(phi=_time_map, inner=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=6, unique=True))
@example(phi=power_map(3), inner=[1e-6, 0.001, 0.5])
@example(phi=piecewise_power_map(2, 0.5), inner=[0.25, 0.25 + 1e-9, 0.6])
def test_breakpoints_match_brentq_property(phi, inner):
    """The preimages of the base path's breakpoints agree with SciPy's brentq
    to within brentq's own tolerance, 1e-15 + 4 eps |t|.  A breakpoint at
    the level of a flat piece has a whole interval of preimages, of which
    brentq returns any one (see TestBreakpoints)."""
    flat_levels = {float(t[0, 0]) for t in phi.ctrl if np.all(t == t[0])}
    assume(not flat_levels & set(inner))
    path = polyline_1d([0.0, *sorted(inner), 1.0])
    bps = _time_breakpoints(path.breakpoints, phi)
    expected = brentq_breakpoints(path, phi)
    assert bps.shape == expected.shape
    assert np.all(np.abs(bps - expected) <= 1e-15 + 4 * np.finfo(float).eps * np.abs(expected))


_ordinate = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.5]), st.floats(-3.0, 3.0))


@st.composite
def segment_paths(draw):
    """A continuous chain of line and cubic segments in 1-3 dimensions with
    random breakpoints, where some segments retrace the one before them
    exactly and some have zero length."""
    dim = draw(st.integers(1, 3))
    point = st.lists(_ordinate, min_size=dim, max_size=dim).map(np.array)
    cur, rows = draw(point), []
    for step in draw(st.lists(st.sampled_from(["line", "cubic", "back", "still"]), min_size=1, max_size=7)):
        if step == "back" and rows:
            row = (rows[-1][0], rows[-1][1][::-1])
        elif step == "still":
            row = (False, np.stack([cur] * 4))
        elif step == "cubic":
            row = (True, np.stack([cur, draw(point), draw(point), draw(point)]))
        else:
            end = draw(point)
            row = (False, np.stack([cur, cur, end, end]))
        rows.append(row)
        cur = row[1][3]
    cuts = draw(st.lists(st.floats(0.01, 0.99), min_size=len(rows) - 1, max_size=len(rows) - 1, unique=True))
    cubic, ctrl = zip(*rows)
    return PathNd(list(cubic), np.stack(ctrl), [0.0, *sorted(cuts), 1.0])


def assert_same_outcome(op, oracle, *args):
    """Bit for bit the same kind flags, control points and breakpoints, or
    the same error (breakpoints that rescaling makes equal are rejected)."""
    try:
        expected = oracle(*args)
    except ValueError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            op(*args)
        return
    got = op(*args)
    assert got.cubic.tolist() == expected.cubic.tolist()
    assert got.ctrl.shape == expected.ctrl.shape and got.ctrl.tobytes() == expected.ctrl.tobytes()
    assert got.breakpoints.tobytes() == expected.breakpoints.tobytes()


@settings(max_examples=200, deadline=None)
@given(p=segment_paths(), data=st.data())
def test_table_operations_match_segment_oracles_property(p, data):
    """The row operations on segment tables reproduce the operations one
    segment at a time bit for bit."""
    assert_same_outcome(lambda q: PathNd(q.cubic, q.ctrl, q.breakpoints), lambda q: q, p)
    assert_same_outcome(invert_path, segment_invert, p)
    try:
        back = invert_path(p)
    except ValueError:  # 1 - b made two breakpoints equal; both forms refuse
        return
    assert_same_outcome(compose_paths, segment_compose, back, p)
    assert_same_outcome(compose_paths, segment_compose, p, constant_path(p.start))
    assert_same_outcome(thin_reduce, segment_thin_reduce, p)
    assert_same_outcome(thin_reduce, segment_thin_reduce, compose_paths(back, p))
    i = data.draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(p.breakpoints.tolist())), label="i")
    assert_same_outcome(contract, segment_contract, p, i)


@settings(max_examples=150, deadline=None)
@given(p=segment_paths(), phi=_time_map, inner=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=5))
def test_reparametrized_table_matches_lazy_oracle_property(p, phi, inner):
    """A reparametrized table path has the breakpoints of the lazy
    composition p(phi(i)) bit for bit, and its samples agree with the lazy
    ones to rounding.  Both forms get the local parameter of base segment j
    from the time map's value in the base path's global parameter, so both
    round it at eps / (span of j): the bound is 32 eps of the sample scale
    over the smallest base span.  Velocities are compared at interior abscissae: at
    a piece end the lazy sampler moved 1e-12 of the span inside, which can
    round to no move at all and sample the neighbouring piece.

    Breakpoints closer than 1e-12 are merged, so a base segment whose span
    is below 1e-11 (1e-12 times the steepest slope of these maps, under
    5) can fall inside one piece, which no row follows: such a path may
    be refused, and no other is."""
    lazy = LazyReparametrization(p, phi)
    try:
        r = reparametrize(p, phi)
    except ValueError as exc:
        assert "discontinuous" in str(exc)
        short = np.diff(p.breakpoints) < 1e-11
        assert (short & (np.abs(p.ctrl[:, 3] - p.ctrl[:, 0]).max(axis=1) > 0)).any()
        return
    assert r.tmap is not None and r.breakpoints.tobytes() == lazy.breakpoints.tobytes()
    u = np.array([0.0, *inner, 1.0])
    pts, vels = sample_pieces(r.cubic, r.ctrl, r.tmap, u)
    lazy_pts, lazy_vels = lazy.piece_samples(u)
    bound = 32 * np.finfo(float).eps / np.diff(p.breakpoints).min()
    assert np.abs(pts - lazy_pts).max() <= bound * (1.0 + np.abs(p.ctrl).max())
    assert np.abs(vels - lazy_vels)[:, 1:-1].max() <= bound * (1.0 + np.abs(lazy_vels).max())
    ts = np.linspace(0.0, 1.0, 17)
    assert np.abs(r.point(ts) - lazy.point(ts)).max() <= bound * (1.0 + np.abs(p.ctrl).max())


class TestTimeMappedPaths:
    def test_algebra_needs_segment_backed_paths(self):
        p = straight_segment([0.0, 0.0], [1.0, 0.0])
        r = reparametrize(p, power_map(2))
        with pytest.raises(TypeError, match="composition needs segment-backed paths"):
            compose_paths(p, r)
        for op in (invert_path, thin_reduce, lambda q: contract(q, 0.5), lambda q: reparametrize(q, power_map(3))):
            with pytest.raises(TypeError, match="needs segment-backed paths"):
                op(r)

    def test_segment_inside_one_piece_refused(self):
        # The preimages of 0.01 and the next float merge, so the segment
        # from 0 to 1 between them lies inside one piece: the table would
        # jump by 1 there.
        ctrl = np.array([[0.0] * 4, [0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0], [0.0] * 4])[..., None]
        p = PathNd(np.zeros(4, dtype=bool), ctrl, [0.0, 0.01, np.nextafter(0.01, 1.0), 0.5, 1.0])
        with pytest.raises(ValueError, match="discontinuous"):
            reparametrize(p, power_map(1))

    def test_ends_and_samples_of_a_flat_piece(self):
        # The flat piece of the time map sits at a base breakpoint: it stays
        # at that point with zero velocity.
        p = polyline_1d([0.0, 0.5, 1.0])
        r = reparametrize(p, flat_time_map(0.5))
        assert np.array_equal(r.start, [0.0]) and np.array_equal(r.end, [2.0])
        pts, vels = sample_pieces(r.cubic, r.ctrl, r.tmap, np.linspace(0.0, 1.0, 5))
        flat = int(np.searchsorted(r.breakpoints, 0.5)) - 1
        assert np.array_equal(pts[flat], np.ones((5, 1))) and not vels[flat].any()


class TestBreakpoints:
    def test_flat_piece_adds_no_breakpoint(self):
        # Base breakpoints at the flat level, below it and above it: the one
        # at the level maps to the flat piece's start, a breakpoint already.
        phi = flat_time_map(0.5)
        with np.errstate(all="raise"):
            bps = reparametrize(polyline_1d([0.0, 0.25, 0.5, 0.75, 1.0]), phi).breakpoints
        assert bps[[0, 2, 3, 5]].tolist() == [0.0, 0.3, 0.7, 1.0] and len(bps) == 6
        np.testing.assert_allclose(phi.point(bps[[1, 4]])[:, 0], [0.25, 0.75], rtol=0, atol=1e-15)

    def test_line_piece_inverts_in_closed_form(self):
        bps = reparametrize(polyline_1d([0.0, 0.5, 1.0]), piecewise_power_map(2, 0.5)).breakpoints
        # phi(t) = 0.25 + 1.5 (t - 0.5) on the tail, so phi(2/3) = 0.5.
        assert abs(bps[2] - 2.0 / 3.0) <= 1e-15 and bps.tolist()[:2] == [0.0, 0.5]


class TestValidation:
    def test_discontinuous_chain_rejected(self):
        ctrl = np.array([[0.0, 0.0, 1.0, 1.0], [2.0, 2.0, 3.0, 3.0]])[..., None]
        with pytest.raises(ValueError, match="discontinuous"):
            PathNd([False, False], ctrl, [0.0, 0.5, 1.0])

    def test_bad_breakpoints_rejected(self):
        ctrl = np.array([[0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 2.0, 2.0]])[..., None]
        for bp in ([0.0, 0.5, 0.9], [0.0, 1.0], [0.0, np.nan, 1.0], [0.0, 1.0, 1.0], [0.0, 0.7, 0.2, 1.0]):
            with pytest.raises(ValueError, match="breakpoints"):
                PathNd([False, False], ctrl, bp)

    def test_non_finite_values_rejected(self):
        # A nan control point passes the continuity test (nan > tol is
        # False); a loop through it used to fail only at its holonomy.
        line = np.array([[[0.0], [0.0], [1.0], [1.0]]])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="must be finite"):
                straight_segment([bad, 0.0], [1.0, 0.0])
            with pytest.raises(ValueError, match="must be finite"):
                PathNd([False], line, [0.0, 1.0], [[0.0, 0.3, bad, 1.0]])
        with pytest.raises(ValueError, match="must be finite"):
            random_polygon_loop(np.random.default_rng(0), [np.nan, 0.0])

    def test_time_mapped_pieces_checked_at_their_ends(self):
        # Pieces of one segment repeat its control points; their ends are
        # where the time maps put them.
        line = np.array([[[0.0], [0.0], [1.0], [1.0]]] * 2)
        PathNd([False, False], line, [0.0, 0.5, 1.0], [[0.0, 0.1, 0.2, 0.5], [0.5, 0.6, 0.9, 1.0]])
        with pytest.raises(ValueError, match="discontinuous"):
            PathNd([False, False], line, [0.0, 0.5, 1.0], [[0.0, 0.1, 0.2, 0.5], [0.6, 0.7, 0.9, 1.0]])

    def test_loop_must_close(self):
        with pytest.raises(ValueError):
            LoopAtBase(straight_segment([0.0, 0.0], [1.0, 0.0]), np.zeros(2))

    def test_family_rule_checked(self):
        bad = radial_family([0.0, 0.0])
        broken = type(bad)(2, np.zeros(2), radial_family([0.1, 0.0]).table_rule)
        with pytest.raises(ValueError):
            broken[[1.0, 1.0]]

    def test_operation_outputs_validate(self, rng):
        # continuity and breakpoint invariants hold on every produced path
        p = random_cubic_path(rng)
        q = random_cubic_path(rng)
        q = compose_paths(straight_segment(p.end, q.start), p)  # bridge
        outputs = [
            invert_path(p),
            contract(p, 0.37),
            thin_reduce(compose_paths(invert_path(p), p)),
            compose_paths(invert_path(q), q),
            reparametrize(compose_paths(invert_path(p), p), piecewise_power_map(3, 0.5)),
        ]
        for out in outputs:
            PathNd(out.cubic, out.ctrl, out.breakpoints, out.tmap)  # re-validates


class TestDogleg:
    def test_corners(self):
        fam = axis_dogleg_family([0.0, 0.0])
        p = fam[[2.0, 3.0]]
        assert np.allclose(p.point(0.5), [2.0, 0.0], atol=1e-12)
        assert np.allclose(p.point(1.0), [2.0, 3.0], atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), i=st.floats(0.01, 0.99))
def test_contract_matches_rescaling_property(seed, i):
    rng = np.random.default_rng(seed)
    p = random_cubic_path(rng)
    k = contract(p, i)
    grid = np.linspace(0, 1, 23)
    assert np.max(np.linalg.norm(k.point(grid) - p.point(i * grid), axis=1)) <= 1e-12


def curved_family(basepoint) -> PathFamily:
    """A frame whose paths are a cubic and a line, or one line padded at
    the target with a zero-length line, depending on the target."""
    base = np.asarray(basepoint, dtype=float)

    def table_rule(xs):
        mid = 0.5 * (base + xs) + np.array([0.25, -0.5])
        bend = np.stack(np.broadcast_arrays(base, base + [0.1, 0.2], mid - [0.3, 0.0], mid), axis=1)
        line = np.stack(np.broadcast_arrays(base, base, xs, xs), axis=1)
        bent = xs[:, 0] < xs[:, 1]
        curved = np.stack([bend, np.stack([mid, mid, xs, xs], axis=1)], axis=1)
        straight = np.stack([line, np.stack([xs] * 4, axis=1)], axis=1)
        return np.stack([bent, np.zeros_like(bent)], axis=1), np.where(bent[:, None, None, None], curved, straight)

    return PathFamily(2, base, table_rule)


BASE = (0.3, -0.6)
FAMILIES = {"radial": radial_family, "dogleg": axis_dogleg_family, "curved": curved_family}
# Coordinates from a short list that includes the base point's (so frames
# pass through the base point, x == y and the dogleg has zero-length legs)
# and arbitrary floats.
_coord = st.one_of(st.sampled_from([*BASE, 1.2]), st.floats(-2.0, 2.0))
_point = st.tuples(_coord, _coord)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), pairs=st.lists(st.tuples(_point, _point), min_size=1, max_size=6))
@example(family="radial", pairs=[((1.0, 1.0), (1.0, 1.0)), (BASE, (0.5, -0.6)), ((0.5, -0.6), BASE)])
@example(family="dogleg", pairs=[(BASE, (0.3, 0.4)), ((0.3, 0.4), (0.3, 0.5)), ((1.0, -0.6), (1.1, -0.6))])
@example(family="curved", pairs=[((1.0, 0.0), (0.0, 1.0)), ((0.0, 1.0), (0.0, 1.0)), (BASE, (-1.0, 1.0))])
def test_reconstruction_chains_match_reduced_loops_property(family, pairs):
    psi = FAMILIES[family](BASE)
    xs, ys = (np.array(p, dtype=float) for p in zip(*pairs))
    batch = reconstruction_chains(psi, xs, ys)
    assert len(batch.counts) == len(pairs)
    for k, e, x, y in zip(batch.counts, np.cumsum(batch.counts), xs, ys):
        reduced = thin_reduce(reconstruction_loop(psi, x, y).path)
        if reduced.is_constant():  # nothing survives reduction
            assert k == 0
            continue
        assert np.array_equal(batch.cubic[e - k : e], reduced.cubic)
        assert np.array_equal(batch.ctrl[e - k : e], reduced.ctrl)


class TestFamilyTables:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_rows_are_the_paths_of_getitem(self, family, rng):
        psi = FAMILIES[family](BASE)
        xs = np.concatenate([[BASE, [0.3, 1.0]], rng.uniform(-2, 2, size=(5, 2))])
        cubic, ctrl = psi.tables(xs)
        assert cubic.shape == ctrl.shape[:2] and ctrl.shape[0] == len(xs) and ctrl.shape[2:] == (4, 2)
        for c, t, x in zip(cubic, ctrl, xs):
            path_cubic, path_ctrl = psi[x].cubic, psi[x].ctrl
            s = len(path_cubic)
            assert np.array_equal(c[:s], path_cubic) and np.array_equal(t[:s], path_ctrl)
            assert not c[s:].any() and np.array_equal(t[s:], np.broadcast_to(x, t[s:].shape))

    @pytest.mark.parametrize("miss", ["start", "end"])
    def test_table_rule_endpoints_checked(self, miss):
        def table_rule(xs):
            cubic, ctrl = radial_family(BASE).table_rule(xs)
            ctrl[-1:, :, (0 if miss == "start" else 3)] += 1e-6
            return cubic, ctrl

        psi = PathFamily(2, BASE, table_rule=table_rule)
        message = "does not start at the base point" if miss == "start" else "does not end at the target point"
        with pytest.raises(ValueError, match=message):
            psi.tables([[1.0, 1.0], [0.5, 2.0]])
        with pytest.raises(ValueError, match=message):
            psi[[1.0, 1.0]]

    @pytest.mark.parametrize("miss", ["start", "end"])
    def test_ends_off_by_a_tolerance_multiple(self, miss):
        # Ends equal to the base point and target pass without the check;
        # ends that are not still get it: 2 tol off raises, 0.5 tol passes.
        x = np.array([[1.0, 0.5]])
        tol = _CONT_TOL * (1.0 + max(np.abs(x).max(), np.abs(BASE).max()))

        def family(factor):
            def table_rule(xs):
                cubic, ctrl = radial_family(BASE).table_rule(xs)
                ctrl[:, 0, 0, 0] += factor * tol if miss == "start" else 0.0
                ctrl[:, -1, 3, 0] += factor * tol if miss == "end" else 0.0
                return cubic, ctrl

            return PathFamily(2, BASE, table_rule=table_rule)

        _, near = family(0.5).tables(x)
        assert not np.array_equal(near, radial_family(BASE).tables(x)[1])
        message = "does not start at the base point" if miss == "start" else "does not end at the target point"
        with pytest.raises(ValueError, match=message):
            family(2.0).tables(x)

    @pytest.mark.parametrize("bad", [[np.nan, np.nan], [np.inf, 0.0], [0.0, -np.inf]])
    def test_non_finite_targets_raise(self, bad):
        # A NaN target passes the endpoint check (nan > tol is False), and
        # thin reduction would then drop every segment of its loop.
        psi = radial_family(BASE)
        with pytest.raises(ValueError, match="finite"):
            psi.tables([[1.0, 1.0], bad])
        with pytest.raises(ValueError, match="finite"):
            psi[bad]

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (6,), (1, 1, 2)])
    def test_targets_of_the_wrong_dimension_raise(self, shape):
        # reshape(-1, dim) would silently regroup the six numbers of (2, 3).
        with pytest.raises(ValueError, match="shape"):
            radial_family(BASE).tables(np.zeros(shape))


# --- coordinate-major sampling and thin reduction ----------------------------

_coordinate = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0))


@st.composite
def segment_tables(draw):
    """Flags, control points and time maps or None of a table that mixes
    lines, cubics, time-mapped rows, rows without a time map (NaN) and
    signed zeros."""
    rows, dim = draw(st.integers(1, 6), label="rows"), draw(st.integers(1, 3), label="dim")
    cubic = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), dtype=bool)
    ctrl = np.array(draw(st.lists(_coordinate, min_size=4 * rows * dim, max_size=4 * rows * dim))).reshape(rows, 4, dim)
    ctrl[~cubic, 1], ctrl[~cubic, 2] = ctrl[~cubic, 0], ctrl[~cubic, 3]  # a line is [p0, p0, p1, p1]
    if not draw(st.booleans(), label="time-mapped"):
        return cubic, ctrl, None
    ordinates = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).map(sorted)
    nan_row = st.just([np.nan] * 4)
    return cubic, ctrl, np.array(draw(st.lists(st.one_of(ordinates, nan_row), min_size=rows, max_size=rows)))


@settings(max_examples=150, deadline=None)
@given(table=segment_tables(), inner=st.lists(st.floats(0.0, 1.0), max_size=8))
def test_sample_pieces_is_per_row_sampling_property(table, inner):
    """``sample_pieces`` samples in coordinate-major memory and returns
    (rows, len(u), dim) views whose every bit is that of sampling each row
    on its own."""
    cubic, ctrl, tmap = table
    u = np.array([0.0, *inner, 1.0])
    pts, vels = sample_pieces(cubic, ctrl, tmap, u)
    assert pts.shape == vels.shape == (len(cubic), len(u), ctrl.shape[-1])
    assert pts.transpose(2, 0, 1).flags.c_contiguous and vels.transpose(2, 0, 1).flags.c_contiguous
    for r in range(len(cubic)):
        if tmap is None:
            want = bezier_points(cubic[r], ctrl[r], u), bezier_velocities(cubic[r], ctrl[r], u)
        else:
            t, dt = time_map(tmap[r], u)
            want = bezier_points(cubic[r], ctrl[r], t), bezier_velocities(cubic[r], ctrl[r], t) * dt[:, None]
        assert pts[r].tobytes() == want[0].tobytes() and vels[r].tobytes() == want[1].tobytes()


def _row(cubic: bool, *points) -> tuple[bool, np.ndarray]:
    """A table row: a line through two points, or a cubic through four."""
    ctrl = np.array(points, dtype=float)
    return cubic, ctrl if cubic else ctrl[[0, 0, 1, 1]]


def _back(row) -> tuple[bool, np.ndarray]:
    return row[0], row[1][::-1]


_A, _B = _row(True, [0.0, 0.0], [0.3, 0.1], [0.5, -0.2], [1.0, 0.0]), _row(False, [1.0, 0.0], [1.0, 1.0])
_C = _row(False, [1.0, 1.0], [0.0, 1.0])
_POINT = _row(False, [1.0, 1.0], [1.0, 1.0])
_SHORT = _row(False, [1.0, 1.0], [1.0, 1.0 + 1e-14])
_NAN = _row(True, [1.0, 1.0], [np.nan, 1.0], [0.5, 1.0], [0.0, 1.0])
THIN_BATCHES = {
    # Zero-length rows (a point, and one below the tolerance) are dropped,
    # after which B and its reversal meet and cancel.
    "zero-length rows": [[_A, _B, _POINT, _SHORT, _back(_B), _C]],
    # A o B o C o C^-1 o B^-1 o A^-1 cancels to nothing, with a point inside.
    "nested retracings": [[_A, _B, _C, _POINT, _back(_C), _back(_B), _back(_A)], [_C, _back(_C)]],
    # A retracing across a chain boundary belongs to two chains: none cancels.
    "across a chain boundary": [[_A, _B], [_back(_B), _back(_A)], [_C]],
    # A row with a NaN control point is never longer than the tolerance, so
    # it is dropped, after which A and its reversal meet and cancel.
    "NaN control point": [[_A, _NAN, _back(_A)], [_NAN, _back(_NAN), _C]],
}


@pytest.mark.parametrize("chains", THIN_BATCHES.values(), ids=THIN_BATCHES.keys())
def test_thin_keep_is_the_row_major_reduction(chains):
    rows = [row for chain in chains for row in chain]
    cubic, ctrl = np.array([c for c, _ in rows]), np.stack([t for _, t in rows])
    counts = [len(chain) for chain in chains]
    keep = thin_keep(cubic, ctrl, counts, 1e-12)
    assert keep.tolist() == reference_thin_keep(cubic, ctrl, counts, 1e-12).tolist()
    if chains is THIN_BATCHES["across a chain boundary"]:
        assert keep.all()
    if chains is THIN_BATCHES["nested retracings"]:
        assert not keep.any()
    if chains is THIN_BATCHES["NaN control point"]:
        assert keep.tolist() == [False] * 5 + [True]


@settings(max_examples=150, deadline=None)
@given(
    picks=st.lists(st.integers(0, 11), min_size=1, max_size=14),
    cuts=st.lists(st.integers(0, 14), max_size=4),
)
def test_thin_keep_is_the_row_major_reduction_property(picks, cuts):
    """Random chains over a few rows, their reversals, zero-length and NaN
    rows, cut into chains at random: the same mask as the row-major form."""
    vocabulary = [_A, _B, _C, _POINT, _SHORT, _NAN]
    vocabulary += [_back(row) for row in vocabulary]
    rows = [vocabulary[k] for k in picks]
    bounds = sorted({0, len(rows), *(min(c, len(rows)) for c in cuts)})
    counts = np.diff(bounds)
    cubic, ctrl = np.array([c for c, _ in rows]), np.stack([t for _, t in rows])
    assert thin_keep(cubic, ctrl, counts, 1e-12).tolist() == reference_thin_keep(cubic, ctrl, counts, 1e-12).tolist()
