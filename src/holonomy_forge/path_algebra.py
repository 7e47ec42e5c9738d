"""Piecewise-smooth parametrized paths and loops in R^n.

Paths are chains of line or cubic Bezier segments over [0, 1] together
with the groupoid operations holonomy computations need: composition,
inversion, contraction (truncate-and-rescale), straight segments,
reference-path families, thin reduction and reparametrization.

Two kinds of path object appear:

* ``PathNd``       -- segment-backed, supports all algebraic operations;
* ``ReparametrizedPath`` -- lazy composition with a monotone time map,
  supports evaluation only (point / velocity / breakpoints), which is all
  the holonomy integrators require.

``PathNd`` evaluates through its flat segment table (``segment_table``),
and reconstruction loops skip the path objects altogether:
``reconstruction_chains`` builds them, thin-reduced, as bare segment
tables in traversal order, from one ``PathFamily.tables`` call that
returns the frame tables of many targets at once.  ``radial_family`` and
``axis_dogleg_family`` compute those tables vectorized (``table_rule``);
a family given by a per-point ``rule`` calls it once per target.

Velocities at a breakpoint use the right-hand derivative; holonomy values
are parametrization-independent, so the choice is unobservable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .segment_table import SegmentChain, bezier_points, bezier_velocities, table_rows, thin_keep

__all__ = [
    "EndpointMismatch",
    "NotMonotone",
    "Segment",
    "PathNd",
    "LoopAtBase",
    "PathFamily",
    "ReparametrizedPath",
    "constant_path",
    "compose_paths",
    "invert_path",
    "contract",
    "straight_segment",
    "radial_family",
    "axis_dogleg_family",
    "reconstruction_loop",
    "reconstruction_chains",
    "thin_reduce",
    "reparametrize",
    "power_map",
    "piecewise_power_map",
    "random_polygon_loop",
    "random_polyline",
    "path_to_json",
    "path_from_json",
    "loop_to_json",
    "loop_from_json",
]

_CONT_TOL = 1e-12


class EndpointMismatch(ValueError):
    """Composition requested between paths whose endpoints do not meet."""


class NotMonotone(ValueError):
    """Time map for reparametrization is not monotone on [0, 1]."""


def _scale(points: np.ndarray) -> float:
    return 1.0 + float(np.max(np.abs(points))) if points.size else 1.0


@dataclass(frozen=True, eq=False)
class Segment:
    """A line (2 control points) or cubic Bezier (4) in R^n."""

    kind: str
    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("control points must be a 2-d array")
        expected = {"line": 2, "cubic": 4}.get(self.kind)
        if expected is None:
            raise ValueError(f"unknown segment kind {self.kind!r}")
        if pts.shape[0] != expected:
            raise ValueError(f"{self.kind} segment needs {expected} control points")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def point(self, u):
        return bezier_points(self.kind == "cubic", table_rows(self.kind, self.points), np.asarray(u, dtype=float))

    def velocity(self, u):
        return bezier_velocities(self.kind == "cubic", table_rows(self.kind, self.points), np.asarray(u, dtype=float))

    def reversed_(self) -> "Segment":
        return Segment(self.kind, self.points[::-1])

    def split_left(self, u: float) -> "Segment":
        """The restriction to [0, u], reparametrized back to [0, 1]."""
        p = self.points
        if self.kind == "line":
            return Segment("line", np.stack([p[0], self.point(u)]))
        a = p[0] + u * (p[1] - p[0])
        b = p[1] + u * (p[2] - p[1])
        c = p[2] + u * (p[3] - p[2])
        ab = a + u * (b - a)
        bc = b + u * (c - b)
        return Segment("cubic", np.stack([p[0], a, ab, ab + u * (bc - ab)]))

    def is_degenerate(self, tol: float | None = None) -> bool:
        tol = _CONT_TOL * _scale(self.points) if tol is None else tol
        return bool(np.max(np.abs(self.points - self.points[0])) <= tol)


@dataclass(frozen=True, eq=False)
class PathNd:
    """A continuous chain of segments parametrized over [0, 1]."""

    dim: int
    segments: tuple
    breakpoints: np.ndarray

    def __post_init__(self):
        segs = tuple(self.segments)
        bp = np.array(self.breakpoints, dtype=float)
        bp.setflags(write=False)
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "breakpoints", bp)
        if not segs:
            raise ValueError("a path needs at least one segment")
        if bp.shape != (len(segs) + 1,):
            raise ValueError("breakpoints must have one more entry than segments")
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        for s in segs:
            if s.dim != self.dim:
                raise ValueError("segment dimension mismatch")
        for a, b in zip(segs[:-1], segs[1:]):
            gap = np.linalg.norm(a.points[-1] - b.points[0])
            if gap > _CONT_TOL * max(_scale(a.points), _scale(b.points)):
                raise ValueError(f"adjacent segments are discontinuous (gap {gap:.3e})")

    @classmethod
    def from_segments(cls, segments, breakpoints=None) -> "PathNd":
        segments = list(segments)
        if breakpoints is None:
            breakpoints = np.linspace(0.0, 1.0, len(segments) + 1)
        return cls(segments[0].dim, tuple(segments), np.asarray(breakpoints, dtype=float))

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        cubic = np.array([s.kind == "cubic" for s in self.segments])
        return cubic, np.array([table_rows(s.kind, s.points) for s in self.segments])

    def _local(self, i):
        """Segment index, local parameter and span of global parameters."""
        i = np.clip(np.asarray(i, dtype=float), 0.0, 1.0)
        idx = np.clip(np.searchsorted(self.breakpoints, i, side="right") - 1, 0, len(self.segments) - 1)
        a, b = self.breakpoints[idx], self.breakpoints[idx + 1]
        return idx, (i - a) / (b - a), np.asarray(b - a)

    def point(self, i):
        idx, u, _ = self._local(i)
        cubic, ctrl = self._table
        return bezier_points(cubic[idx], ctrl[idx], u)

    def velocity(self, i):
        """Right-hand derivative with respect to the global parameter."""
        idx, u, span = self._local(i)
        cubic, ctrl = self._table
        return bezier_velocities(cubic[idx], ctrl[idx], u) / span[..., None]

    @property
    def n_pieces(self) -> int:
        return len(self.segments)

    @property
    def start(self) -> np.ndarray:
        return self.segments[0].points[0].copy()

    @property
    def end(self) -> np.ndarray:
        return self.segments[-1].points[-1].copy()

    def is_constant(self, tol: float | None = None) -> bool:
        return all(s.is_degenerate(tol) for s in self.segments)


def _preimage(phi: PathNd, target: float) -> float | None:
    """The least t with phi(t) = target for a nondecreasing 1-d time map,
    or None unless phi(0) < target < phi(1).

    The segment is the first whose end ordinate reaches the target, so a
    flat segment is never inverted.  A line inverts in closed form; a
    cubic is bisected on its Bernstein form until the bracket is two
    adjacent floats.
    """
    cubic, ctrl = phi._table
    y = ctrl[:, :, 0]
    if not y[0, 0] < target < y[-1, 3]:
        return None
    k = int(np.searchsorted(y[:, 3], target))
    a, b = float(phi.breakpoints[k]), float(phi.breakpoints[k + 1])
    y0, y1, y2, y3 = (float(v) for v in y[k])
    if target <= y0:
        return a
    if not cubic[k]:
        return a + (target - y0) / (y3 - y0) * (b - a)
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        v = 1.0 - mid
        if v**3 * y0 + 3.0 * v * v * mid * y1 + 3.0 * v * mid * mid * y2 + mid**3 * y3 < target:
            lo = mid
        else:
            hi = mid
    return a + hi * (b - a)


class ReparametrizedPath:
    """Lazy composition p(phi(i)) of a path with a monotone time map.

    Evaluation is exact: the time map is itself a 1-d piecewise-polynomial
    path, so points and velocities carry no fitting error.  Breakpoints
    are the union of the map's breakpoints and the preimages of the base
    path's breakpoints, so integrators see only smooth pieces.
    """

    def __init__(self, path, phi: PathNd):
        self.path = path
        self.phi = phi
        bps = set(float(b) for b in phi.breakpoints)
        for b in np.asarray(path.breakpoints)[1:-1]:
            t = _preimage(phi, float(b))
            if t is not None:
                bps.add(t)
        merged = [0.0]
        for b in sorted(bps):
            if b - merged[-1] > 1e-12:
                merged.append(b)
        merged[-1] = 1.0
        self.breakpoints = np.array(merged)

    @property
    def dim(self) -> int:
        return self.path.dim

    def point(self, i):
        t = self.phi.point(i)[..., 0]
        return self.path.point(t)

    def velocity(self, i):
        t = self.phi.point(i)[..., 0]
        dphi = self.phi.velocity(i)[..., 0]
        v = self.path.velocity(t)
        return v * (dphi[..., None] if np.ndim(dphi) else dphi)

    @property
    def start(self) -> np.ndarray:
        return self.point(0.0)

    @property
    def end(self) -> np.ndarray:
        return self.point(1.0)

    @property
    def n_pieces(self) -> int:
        return len(self.breakpoints) - 1

    def piece_samples(self, u) -> tuple[np.ndarray, np.ndarray]:
        """Points and velocities d/du at local parameters u in [0, 1] on
        every smooth piece, each (pieces, len(u), dim)."""
        u = np.asarray(u, dtype=float)
        a, b = self.breakpoints[:-1, None], self.breakpoints[1:, None]
        span = b - a
        ts = (1.0 - u) * a + u * b
        # velocity() is right-continuous and piece boundaries sit within
        # root-finding tolerance of the base path's breakpoints, so end
        # abscissae could sample the neighbouring piece's velocity; pull
        # them inside the span.  The perturbation is ~1e-12 * |v'|, far
        # below integrator error.
        tv = np.clip(ts, a + 1e-12 * span, b - 1e-12 * span)
        shape = ts.shape + (self.dim,)
        pts = self.point(ts.reshape(-1)).reshape(shape)
        vels = self.velocity(tv.reshape(-1)).reshape(shape) * span[..., None]
        return pts, vels


@dataclass(frozen=True, eq=False)
class LoopAtBase:
    """A path whose endpoints both sit at a designated base point."""

    path: object
    basepoint: np.ndarray

    def __post_init__(self):
        bp = np.array(self.basepoint, dtype=float)
        bp.setflags(write=False)
        object.__setattr__(self, "basepoint", bp)
        tol = _CONT_TOL * (1.0 + float(np.max(np.abs(bp))) if bp.size else 1.0)
        for end in (self.path.start, self.path.end):
            if np.linalg.norm(end - bp) > tol:
                raise ValueError("loop endpoints must sit at the base point")

    @property
    def dim(self) -> int:
        return self.path.dim


@dataclass(frozen=True)
class PathFamily:
    """Reference frame: a path from the base point to each target point.

    Given by a per-point ``rule`` or by a vectorized ``table_rule`` mapping
    an (m, dim) array of targets to the ``tables`` of their paths; either
    must be a pure function of the target.  Every path is checked to run
    from the base point to the target.
    """

    dim: int
    basepoint: np.ndarray
    rule: Callable[[np.ndarray], PathNd] | None = None
    table_rule: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def __post_init__(self):
        bp = np.array(self.basepoint, dtype=float)
        bp.setflags(write=False)
        object.__setattr__(self, "basepoint", bp)
        if bp.shape != (self.dim,):
            raise ValueError("basepoint dimension mismatch")
        if (self.rule is None) == (self.table_rule is None):
            raise ValueError("a family needs exactly one of rule and table_rule")

    def _check_ends(self, starts, ends, targets):
        tol = _CONT_TOL * (1.0 + np.maximum(np.abs(targets).max(axis=1), np.abs(self.basepoint).max()))
        if np.any(np.linalg.norm(starts - self.basepoint, axis=1) > tol):
            raise ValueError("family path does not start at the base point")
        if np.any(np.linalg.norm(ends - targets, axis=1) > tol):
            raise ValueError("family path does not end at the target point")

    def tables(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Segment tables of the paths to an (m, dim) array of targets: kind
        flags (m, s) and control points (m, s, 4, dim).  A ``rule`` family
        calls its rule once per target and pads shorter paths at their end
        with zero-length segments, which thin reduction drops.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, self.dim)
        if self.table_rule is not None:
            cubic, ctrl = self.table_rule(pts)
        else:
            paths = [self.rule(x) for x in pts]
            if not all(isinstance(p, PathNd) for p in paths):
                raise TypeError("frame tables need segment-backed frame paths")
            s = max((p.n_pieces for p in paths), default=1)
            cubic, ctrl = np.zeros((len(pts), s), dtype=bool), np.empty((len(pts), s, 4, self.dim))
            for k, p in enumerate(paths):
                c, t = p._table
                cubic[k, : len(c)], ctrl[k, : len(c)], ctrl[k, len(c) :] = c, t, t[-1, 3]
        self._check_ends(ctrl[:, 0, 0], ctrl[:, -1, 3], pts)
        return cubic, ctrl

    def __getitem__(self, x) -> PathNd:
        x = np.asarray(x, dtype=float)
        if self.table_rule is None:
            p = self.rule(x)
            self._check_ends(p.start[None], p.end[None], x[None])
            return p
        (cubic,), (ctrl,) = self.tables(x)
        segments = [Segment("cubic", t) if c else Segment("line", t[[0, 3]]) for c, t in zip(cubic, ctrl)]
        return PathNd.from_segments(segments)


def constant_path(x) -> PathNd:
    x = np.asarray(x, dtype=float)
    return PathNd.from_segments([Segment("line", np.stack([x, x]))])


def straight_segment(x, y) -> PathNd:
    """The straight line i -> x + i*(y - x)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return PathNd.from_segments([Segment("line", np.stack([x, y]))])


def compose_paths(alpha: PathNd, beta: PathNd) -> PathNd:
    """Concatenation traversing beta first, then alpha.

    beta occupies parameter range [0, 1/2] and alpha [1/2, 1]; the split
    choice is invisible to holonomy by thin-loop invariance.
    """
    if not isinstance(alpha, PathNd) or not isinstance(beta, PathNd):
        raise TypeError("composition needs segment-backed paths")
    if alpha.dim != beta.dim:
        raise EndpointMismatch("paths live in different dimensions")
    gap = float(np.linalg.norm(beta.end - alpha.start))
    if gap > 1e-10 * (1.0 + max(np.max(np.abs(beta.end)), np.max(np.abs(alpha.start)))):
        raise EndpointMismatch(f"beta ends {gap:.3e} away from where alpha starts")
    bp = np.concatenate([0.5 * beta.breakpoints, 0.5 + 0.5 * alpha.breakpoints[1:]])
    return PathNd(alpha.dim, tuple(beta.segments) + tuple(alpha.segments), bp)


def invert_path(p: PathNd) -> PathNd:
    """Reverse orientation: i -> p(1 - i)."""
    segs = tuple(s.reversed_() for s in reversed(p.segments))
    bp = 1.0 - p.breakpoints[::-1]
    bp = bp.copy()
    bp[0], bp[-1] = 0.0, 1.0
    return PathNd(p.dim, segs, bp)


def contract(p: PathNd, i: float) -> PathNd:
    """The truncation-and-rescale j -> p(i*j)."""
    i = float(i)
    if not -1e-12 <= i <= 1.0 + 1e-12:
        raise ValueError("contraction parameter must lie in [0, 1]")
    i = min(max(i, 0.0), 1.0)
    if i == 0.0:
        return constant_path(p.point(0.0))
    if i == 1.0:
        return PathNd(p.dim, p.segments, p.breakpoints)
    bp = p.breakpoints
    segs, new_bp = [], [0.0]
    for s in range(len(p.segments)):
        a, b = bp[s], bp[s + 1]
        if b <= i:
            segs.append(p.segments[s])
            new_bp.append(b / i)
            if b == i:
                break
        else:
            u = (i - a) / (b - a)
            segs.append(p.segments[s].split_left(u))
            new_bp.append(1.0)
            break
    new_bp[-1] = 1.0
    return PathNd(p.dim, tuple(segs), np.array(new_bp))


def radial_family(basepoint) -> PathFamily:
    """Straight-line frame x -> (i -> * + i*(x - *)); Fock-Schwinger style."""
    basepoint = np.asarray(basepoint, dtype=float)

    def table_rule(xs):
        ctrl = np.stack(np.broadcast_arrays(basepoint, basepoint, xs, xs), axis=1)
        return np.zeros((len(xs), 1), dtype=bool), ctrl[:, None]

    return PathFamily(basepoint.size, basepoint, table_rule=table_rule)


def axis_dogleg_family(basepoint) -> PathFamily:
    """Axis-parallel frame: adjust one coordinate at a time, x1 first."""
    basepoint = np.asarray(basepoint, dtype=float)
    dim = basepoint.size
    from_target = np.tri(dim + 1, dim, -1, dtype=bool)  # corner k takes x1..xk from x

    def table_rule(xs):
        corners = np.where(from_target, xs[:, None, :], basepoint)
        a, b = corners[:, :-1], corners[:, 1:]
        return np.zeros((len(xs), dim), dtype=bool), np.stack([a, a, b, b], axis=2)

    return PathFamily(dim, basepoint, table_rule=table_rule)


def reconstruction_loop(psi: PathFamily, x, y) -> LoopAtBase:
    """The frame-conjugated straight shift: out along psi[x], straight to y,
    back along psi[y]; a loop at the family's base point."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    inner = compose_paths(straight_segment(x, y), psi[x])
    return LoopAtBase(compose_paths(invert_path(psi[y]), inner), psi.basepoint)


def reconstruction_chains(psi: PathFamily, xs, ys) -> list:
    """The loops of ``reconstruction_loop`` for many pairs (x, y) at once,
    thin-reduced, as flat segment chains for the holonomy kernel.

    Each chain is psi[x], the straight segment from x to y, then psi[y]
    reversed, with the semantics of ``thin_reduce``.  The frame paths of
    all distinct points come from one ``PathFamily.tables`` call.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    n, dim = xs.shape
    # Points are distinct by their bytes, as memo keys are.  (A dict, not
    # np.unique, whose first call alone raises peak memory by 0.2-0.5 MB.)
    ids: dict = {}
    where = np.array([ids.setdefault(p.tobytes(), len(ids)) for p in np.concatenate([xs, ys])])
    cubic, ctrl = psi.tables(np.frombuffer(b"".join(ids), dtype=float).reshape(-1, dim))
    ix, iy = where[:n], where[n:]
    ctrl = np.concatenate([ctrl[ix], np.stack([xs, xs, ys, ys], axis=1)[:, None], ctrl[iy, ::-1, ::-1]], axis=1)
    cubic = np.concatenate([cubic[ix], np.zeros((n, 1), dtype=bool), cubic[iy, ::-1]], axis=1)
    counts = [cubic.shape[1]] * n
    cubic, ctrl = cubic.reshape(-1), ctrl.reshape(-1, 4, dim)
    keep = thin_keep(cubic, ctrl, counts, _CONT_TOL)
    kept = np.bincount(np.repeat(np.arange(n), counts)[keep], minlength=n)
    ends = np.cumsum(kept)
    cubic, ctrl = cubic[keep], ctrl[keep]
    return [SegmentChain(cubic[e - k : e], ctrl[e - k : e]) for k, e in zip(kept, ends)]


def thin_reduce(p: PathNd) -> PathNd:
    """Cancel exact adjacent retracings and drop zero-length segments.

    Iterates to a fixed point.  Only exact (control-point level) reversals
    are cancelled; geometrically thin configurations that are not exact
    retracings are left alone and handled behaviorally by holonomy.
    """
    cubic, ctrl = p._table
    keep = np.flatnonzero(thin_keep(cubic, ctrl, [len(cubic)], _CONT_TOL))
    if not keep.size:
        return constant_path(p.point(0.0))
    spans = np.diff(p.breakpoints)[keep]
    bp = np.concatenate([[0.0], np.cumsum(spans)]) / spans.sum()
    bp[-1] = 1.0
    return PathNd(p.dim, tuple(p.segments[k] for k in keep), bp)


def power_map(k: int) -> PathNd:
    """The time map i -> i**k (k = 1, 2, 3) as an exact 1-d path."""
    controls = {1: [0.0, 1.0, 2.0, 3.0], 2: [0.0, 0.0, 1.0, 3.0], 3: [0.0, 0.0, 0.0, 3.0]}
    if k not in controls:
        raise ValueError("only powers 1..3 are exactly representable")
    pts = np.array(controls[k])[:, None] / 3.0
    return PathNd.from_segments([Segment("cubic", pts)])


def piecewise_power_map(k: int, split: float = 0.5) -> PathNd:
    """i -> i**k on [0, split], affine continuation to (1, 1) afterwards."""
    if not 0.0 < split < 1.0:
        raise ValueError("split must be interior to [0, 1]")
    s = float(split)
    if k == 2:
        cubic = Segment("cubic", np.array([[0.0], [0.0], [s**2 / 3.0], [s**2]]))
    elif k == 3:
        cubic = Segment("cubic", np.array([[0.0], [0.0], [0.0], [s**3]]))
    else:
        raise ValueError("only powers 2 and 3 are supported")
    tail = Segment("line", np.array([[s**k], [1.0]]))
    return PathNd(1, (cubic, tail), np.array([0.0, s, 1.0]))


def reparametrize(p, phi: PathNd):
    """Precompose a path with a monotone time map given as a 1-d path.

    phi must run from 0 to 1 and be nondecreasing; violations raise
    ``NotMonotone``.  The identity map returns the path unchanged.
    """
    if phi.dim != 1:
        raise NotMonotone("time map must be one-dimensional")
    if abs(float(phi.point(0.0)[0])) > 1e-12 or abs(float(phi.point(1.0)[0]) - 1.0) > 1e-12:
        raise NotMonotone("time map must fix 0 and 1")
    samples = np.linspace(0.0, 1.0, 257)
    if np.min(phi.velocity(samples)[:, 0]) < -1e-10:
        raise NotMonotone("time map must be nondecreasing")
    if (
        len(phi.segments) == 1
        and phi.segments[0].kind == "line"
        and np.allclose(phi.segments[0].points, [[0.0], [1.0]])
    ):
        return p
    return ReparametrizedPath(p, phi)


def random_polygon_loop(rng: np.random.Generator, basepoint, n_vertices: int = 4, radius: float = 0.75) -> LoopAtBase:
    """Seeded closed polyline through random vertices near the base point."""
    basepoint = np.asarray(basepoint, dtype=float)
    verts = basepoint + rng.uniform(-radius, radius, size=(n_vertices, basepoint.size))
    chain = [basepoint, *verts, basepoint]
    segs = [Segment("line", np.stack([a, b])) for a, b in zip(chain[:-1], chain[1:])]
    return LoopAtBase(PathNd.from_segments(segs), basepoint)


def random_polyline(rng: np.random.Generator, start, n_segments: int = 2, radius: float = 0.75) -> PathNd:
    """Seeded open polyline starting at a given point."""
    start = np.asarray(start, dtype=float)
    chain = [start]
    for _ in range(n_segments):
        chain.append(chain[-1] + rng.uniform(-radius, radius, size=start.size))
    segs = [Segment("line", np.stack([a, b])) for a, b in zip(chain[:-1], chain[1:])]
    return PathNd.from_segments(segs)


def path_to_json(p: PathNd) -> dict:
    """Wire form {"dim", "segments": [{"kind", "points"}]}.

    Breakpoints are not carried; loading assigns uniform ones, which is a
    pure reparametrization and therefore holonomy-invariant.
    """
    return {
        "dim": p.dim,
        "segments": [{"kind": s.kind, "points": s.points.tolist()} for s in p.segments],
    }


def path_from_json(d: dict) -> PathNd:
    segs = [Segment(s["kind"], np.array(s["points"], dtype=float)) for s in d["segments"]]
    p = PathNd.from_segments(segs)
    if p.dim != d["dim"]:
        raise ValueError("declared dimension does not match control points")
    return p


def loop_to_json(loop: LoopAtBase) -> dict:
    d = path_to_json(loop.path)
    d["basepoint"] = np.asarray(loop.basepoint).tolist()
    return d


def loop_from_json(d: dict) -> LoopAtBase:
    return LoopAtBase(path_from_json(d), np.array(d["basepoint"], dtype=float))
