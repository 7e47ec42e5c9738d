import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from holonomy_forge.path_algebra import (
    EndpointMismatch,
    LoopAtBase,
    NotMonotone,
    PathFamily,
    PathNd,
    ReparametrizedPath,
    Segment,
    axis_dogleg_family,
    compose_paths,
    constant_path,
    contract,
    invert_path,
    loop_from_json,
    loop_to_json,
    path_from_json,
    path_to_json,
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

from _oracles import brentq_breakpoints, polyline_vertices, shoelace_area


def random_cubic_path(rng, dim=2, n_segments=3):
    segs = []
    prev = rng.normal(size=dim)
    for _ in range(n_segments):
        pts = [prev]
        for _ in range(3):
            pts.append(pts[-1] + 0.5 * rng.normal(size=dim))
        segs.append(Segment("cubic", np.stack(pts)))
        prev = pts[-1]
    return PathNd.from_segments(segs)


class TestSegment:
    def test_line_endpoints_exact(self):
        s = Segment("line", np.array([[0.0, 1.0], [2.0, -3.0]]))
        assert np.array_equal(s.point(0.0), [0.0, 1.0])
        assert np.array_equal(s.point(1.0), [2.0, -3.0])

    def test_cubic_endpoints_exact(self, rng):
        pts = rng.normal(size=(4, 3))
        s = Segment("cubic", pts)
        assert np.array_equal(s.point(0.0), pts[0])
        assert np.array_equal(s.point(1.0), pts[3])

    def test_cubic_velocity_matches_difference_quotient(self, rng):
        s = Segment("cubic", rng.normal(size=(4, 2)))
        for u in (0.2, 0.5, 0.9):
            fd = (s.point(u + 1e-7) - s.point(u - 1e-7)) / 2e-7
            assert np.linalg.norm(s.velocity(u) - fd) < 1e-6

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            Segment("line", np.zeros((3, 2)))
        with pytest.raises(ValueError):
            Segment("arc", np.zeros((2, 2)))


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
        assert len(q.segments) == len(p.segments)
        for s, t in zip(p.segments, q.segments):
            assert np.array_equal(s.points, t.points)
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
        assert len(a.segments) == len(b.segments)
        for s, t in zip(a.segments, b.segments):
            assert np.allclose(s.points, t.points, atol=1e-12)


class TestThinReduce:
    def test_spur_removed(self):
        sq = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]
        spur_tip = (2.0, 2.0)
        chain = sq[:2] + [spur_tip, sq[1]] + sq[2:]
        segs = [Segment("line", np.array([a, b])) for a, b in zip(chain[:-1], chain[1:])]
        with_spur = PathNd.from_segments(segs)
        reduced = thin_reduce(with_spur)
        assert len(reduced.segments) == 4
        plain = polyline_vertices(PathNd.from_segments(
            [Segment("line", np.array([a, b])) for a, b in zip(sq[:-1], sq[1:])]
        ))
        assert np.allclose(polyline_vertices(reduced), plain, atol=1e-15)

    def test_fixed_point_on_reduced_path(self):
        a = straight_segment([0.0, 0.0], [1.0, 0.0])
        b = straight_segment([1.0, 0.0], [1.0, 1.0])
        l_path = compose_paths(b, a)
        r = thin_reduce(l_path)
        assert len(r.segments) == 2
        for s, t in zip(l_path.segments, r.segments):
            assert np.array_equal(s.points, t.points)

    def test_nested_cancellation(self, rng):
        p = random_cubic_path(rng, n_segments=2)
        q = compose_paths(invert_path(p), p)
        loop = compose_paths(invert_path(q), q)
        assert thin_reduce(loop).is_constant()


class TestReparametrize:
    def test_identity_returns_same_path(self):
        p = straight_segment([0.0, 0.0], [1.0, 1.0])
        phi = PathNd.from_segments([Segment("line", np.array([[0.0], [1.0]]))])
        assert reparametrize(p, phi) is p

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
        dip = PathNd.from_segments([Segment("cubic", np.array([[0.0], [1.5], [-0.5], [1.0]]))])
        with pytest.raises(NotMonotone):
            reparametrize(p, dip)

    def test_wrong_endpoints_rejected(self):
        p = straight_segment([0.0, 0.0], [1.0, 0.0])
        phi = PathNd.from_segments([Segment("line", np.array([[0.0], [0.5]]))])
        with pytest.raises(NotMonotone):
            reparametrize(p, phi)


def flat_time_map(level: float) -> PathNd:
    """A time map that rises along a cubic to ``level``, stays there, then
    rises along a line to 1."""
    rise = Segment("cubic", np.array([[0.0], [0.0], [0.5 * level], [level]]))
    flat = Segment("line", np.array([[level], [level]]))
    tail = Segment("line", np.array([[level], [1.0]]))
    return PathNd(1, (rise, flat, tail), np.array([0.0, 0.3, 0.7, 1.0]))


def polyline_1d(breakpoints) -> PathNd:
    segs = [Segment("line", np.array([[float(k)], [k + 1.0]])) for k in range(len(breakpoints) - 1)]
    return PathNd(1, tuple(segs), np.asarray(breakpoints, dtype=float))


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
    flat_levels = {float(s.points[0, 0]) for s in phi.segments if s.is_degenerate(0.0)}
    assume(not flat_levels & set(inner))
    path = polyline_1d([0.0, *sorted(inner), 1.0])
    bps = ReparametrizedPath(path, phi).breakpoints
    expected = brentq_breakpoints(path, phi)
    assert bps.shape == expected.shape
    assert np.all(np.abs(bps - expected) <= 1e-15 + 4 * np.finfo(float).eps * np.abs(expected))


class TestBreakpoints:
    def test_flat_piece_adds_no_breakpoint(self):
        # Base breakpoints at the flat level, below it and above it: the one
        # at the level maps to the flat piece's start, a breakpoint already.
        phi = flat_time_map(0.5)
        with np.errstate(all="raise"):
            bps = ReparametrizedPath(polyline_1d([0.0, 0.25, 0.5, 0.75, 1.0]), phi).breakpoints
        assert bps[[0, 2, 3, 5]].tolist() == [0.0, 0.3, 0.7, 1.0] and len(bps) == 6
        np.testing.assert_allclose(phi.point(bps[[1, 4]])[:, 0], [0.25, 0.75], rtol=0, atol=1e-15)

    def test_line_piece_inverts_in_closed_form(self):
        bps = ReparametrizedPath(polyline_1d([0.0, 0.5, 1.0]), piecewise_power_map(2, 0.5)).breakpoints
        # phi(t) = 0.25 + 1.5 (t - 0.5) on the tail, so phi(2/3) = 0.5.
        assert abs(bps[2] - 2.0 / 3.0) <= 1e-15 and bps.tolist()[:2] == [0.0, 0.5]


class TestValidation:
    def test_discontinuous_chain_rejected(self):
        segs = [
            Segment("line", np.array([[0.0, 0.0], [1.0, 0.0]])),
            Segment("line", np.array([[2.0, 0.0], [3.0, 0.0]])),
        ]
        with pytest.raises(ValueError):
            PathNd.from_segments(segs)

    def test_bad_breakpoints_rejected(self):
        seg = Segment("line", np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError):
            PathNd(1, (seg,), np.array([0.0, 0.5]))

    def test_loop_must_close(self):
        with pytest.raises(ValueError):
            LoopAtBase(straight_segment([0.0, 0.0], [1.0, 0.0]), np.zeros(2))

    def test_family_rule_checked(self):
        bad = radial_family([0.0, 0.0])
        broken = type(bad)(2, np.zeros(2), lambda x: straight_segment([0.1, 0.0], x))
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
        ]
        for out in outputs:
            PathNd(out.dim, out.segments, out.breakpoints)  # re-validates


class TestDogleg:
    def test_corners(self):
        fam = axis_dogleg_family([0.0, 0.0])
        p = fam[[2.0, 3.0]]
        assert np.allclose(p.point(0.5), [2.0, 0.0], atol=1e-12)
        assert np.allclose(p.point(1.0), [2.0, 3.0], atol=1e-15)


class TestSerialization:
    def test_schema_keys(self):
        p = straight_segment([0.0, 0.0], [1.0, 2.0])
        d = path_to_json(p)
        assert set(d.keys()) == {"dim", "segments"}
        assert set(d["segments"][0].keys()) == {"kind", "points"}
        loop = LoopAtBase(compose_paths(invert_path(p), p), np.zeros(2))
        dl = loop_to_json(loop)
        assert set(dl.keys()) == {"dim", "segments", "basepoint"}

    def test_round_trip_pointwise(self, rng):
        p = random_cubic_path(rng)
        q = path_from_json(path_to_json(p))
        for s, t in zip(p.segments, q.segments):
            assert np.allclose(s.points, t.points, atol=0)

    def test_loop_round_trip(self, rng):
        loop = random_polygon_loop(rng, np.zeros(2))
        back = loop_from_json(loop_to_json(loop))
        assert np.array_equal(back.basepoint, loop.basepoint)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), i=st.floats(0.01, 0.99))
def test_contract_matches_rescaling_property(seed, i):
    rng = np.random.default_rng(seed)
    p = random_cubic_path(rng)
    k = contract(p, i)
    grid = np.linspace(0, 1, 23)
    assert np.max(np.linalg.norm(k.point(grid) - p.point(i * grid), axis=1)) <= 1e-12


def curved_family(basepoint) -> PathFamily:
    """A rule-only frame whose paths have one line or a cubic and a line,
    depending on the target."""
    base = np.asarray(basepoint, dtype=float)

    def rule(x):
        if x[0] >= x[1]:
            return straight_segment(base, x)
        mid = 0.5 * (base + x) + np.array([0.25, -0.5])
        bend = Segment("cubic", np.stack([base, base + [0.1, 0.2], mid - [0.3, 0.0], mid]))
        return PathNd.from_segments([bend, Segment("line", np.stack([mid, x]))])

    return PathFamily(2, base, rule)


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
    chains = reconstruction_chains(psi, xs, ys)
    assert len(chains) == len(pairs)
    for chain, x, y in zip(chains, xs, ys):
        reduced = thin_reduce(reconstruction_loop(psi, x, y).path)
        if reduced.is_constant():  # nothing survives reduction
            assert chain.n_pieces == 0
            continue
        cubic, ctrl = chain._table
        assert np.array_equal(cubic, reduced._table[0])
        assert np.array_equal(ctrl, reduced._table[1])


class TestFamilyTables:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_rows_are_the_paths_of_getitem(self, family, rng):
        psi = FAMILIES[family](BASE)
        xs = np.concatenate([[BASE, [0.3, 1.0]], rng.uniform(-2, 2, size=(5, 2))])
        cubic, ctrl = psi.tables(xs)
        assert cubic.shape == ctrl.shape[:2] and ctrl.shape[0] == len(xs) and ctrl.shape[2:] == (4, 2)
        for c, t, x in zip(cubic, ctrl, xs):
            path_cubic, path_ctrl = psi[x]._table
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

    def test_needs_exactly_one_rule(self):
        rule = radial_family(BASE).table_rule
        with pytest.raises(ValueError):
            PathFamily(2, BASE)
        with pytest.raises(ValueError):
            PathFamily(2, BASE, lambda x: straight_segment(BASE, x), rule)
