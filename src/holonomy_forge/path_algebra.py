"""Piecewise-smooth parametrized paths and loops in R^n.

Paths are chains of line or cubic Bezier segments over [0, 1] together
with the groupoid operations holonomy computations need: composition,
inversion, contraction (truncate-and-rescale), straight segments,
reference-path families, thin reduction and reparametrization.

The one path type, ``PathNd``, holds a segment table (``segment_table``)
and breakpoints.  Composition concatenates rows, inversion reverses them,
contraction splits the last by de Casteljau and thin reduction keeps what
``thin_keep`` keeps.  ``reparametrize`` returns a path whose rows also
carry a time map, which evaluates exactly but takes no further algebra.

A reference frame (``PathFamily``) is a vectorized ``table_rule`` giving
the segment tables of the paths to many targets at once.  ``_shift_rows``,
the one builder of straight-shift loops psi[y]^{-1} o (x -> y) o psi[x],
gives many as one flat batch (``segment_table.Batch``) for
``reconstruction_loop``, ``reconstruction_chains`` (thin-reduced) and the
audit's smoothness family.  The audit's random loops are drawn as whole
arrays into one batch per law (``_composition_triples``, ``_thin_loops``),
the loops the per-path builders give bit for bit.  Each law's batch is
checked as one (``_check_loops``).

Velocities at a breakpoint use the right-hand derivative; holonomy values
are parametrization-independent, so the choice is unobservable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .segment_table import (
    Batch,
    bezier_points,
    bezier_velocities,
    polyline_rows,
    reversed_rows,
    table_batch,
    thin_keep,
    time_map,
)

__all__ = [
    "EndpointMismatch",
    "NotMonotone",
    "PathNd",
    "LoopAtBase",
    "PathFamily",
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
]

_CONT_TOL = 1e-12


class EndpointMismatch(ValueError):
    """Composition requested between paths whose endpoints do not meet."""


class NotMonotone(ValueError):
    """Time map for reparametrization is not monotone on [0, 1]."""


class PathNd:
    """A continuous chain of smooth pieces parametrized over [0, 1], given
    by its segment table: kind flags ``cubic`` (s,), control points
    ``ctrl`` (s, 4, dim), a line p0 -> p1 stored as [p0, p0, p1, p1],
    ``breakpoints`` (s + 1,) and optionally time maps ``tmap`` (s, 4), the
    Bezier ordinates of a cubic from each piece's local parameter to its
    segment's.  The table is checked for shapes, finite values,
    breakpoints and continuity; a bad one raises ``ValueError``."""

    __slots__ = ("dim", "cubic", "ctrl", "tmap", "breakpoints")

    def __init__(self, cubic, ctrl, breakpoints, tmap=None):
        cubic, ctrl = np.asarray(cubic, dtype=bool), np.asarray(ctrl, dtype=float)
        tmap = None if tmap is None else np.asarray(tmap, dtype=float)
        bp = np.array(breakpoints, dtype=float)
        s = len(cubic) if cubic.ndim == 1 else -1
        if ctrl.ndim != 3 or ctrl.shape[:2] != (s, 4) or not ctrl.shape[2]:
            raise ValueError(f"a table needs flags (s,) and controls (s, 4, dim), not {cubic.shape}, {ctrl.shape}")
        if tmap is not None and tmap.shape != (s, 4):
            raise ValueError(f"time maps must have shape ({s}, 4), got {tmap.shape}")
        if not s:
            raise ValueError("a path needs at least one segment")
        if not (tmap is None or np.isfinite(tmap).all()):
            raise ValueError("control points and time maps must be finite")
        if bp.shape != (s + 1,):
            raise ValueError("breakpoints must have one more entry than segments")
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if not (bp[1:] > bp[:-1]).all():
            raise ValueError("breakpoints must be strictly increasing")
        _check_junctions(cubic, ctrl, tmap, None if tmap is None else np.diff(bp))
        bp.setflags(write=False)
        self.dim, self.cubic, self.ctrl, self.tmap, self.breakpoints = ctrl.shape[2], cubic, ctrl, tmap, bp

    def _local(self, i):
        """Row index, local parameter and span of global parameters."""
        bp = self.breakpoints
        i = np.clip(np.asarray(i, dtype=float), 0.0, 1.0)
        idx = np.clip(np.searchsorted(bp, i, side="right") - 1, 0, len(self.cubic) - 1)
        a, b = bp[idx], bp[idx + 1]
        return idx, (i - a) / (b - a), np.asarray(b - a)

    def point(self, i):
        idx, u, _ = self._local(i)
        if self.tmap is not None:
            u = time_map(self.tmap[idx], u)[0]
        return bezier_points(self.cubic[idx], self.ctrl[idx], u)

    def velocity(self, i):
        """Right-hand derivative with respect to the global parameter."""
        idx, u, span = self._local(i)
        du = 1.0  # exact: a path without time maps keeps its bits
        if self.tmap is not None:
            u, du = time_map(self.tmap[idx], u)
        return bezier_velocities(self.cubic[idx], self.ctrl[idx], u) / span[..., None] * np.asarray(du)[..., None]

    @property
    def n_pieces(self) -> int:
        return len(self.cubic)

    @property
    def start(self) -> np.ndarray:
        c, t = self.ctrl[0], self.tmap
        return c[0].copy() if t is None else bezier_points(self.cubic[0], c, t[0, 0])

    @property
    def end(self) -> np.ndarray:
        c, t = self.ctrl[-1], self.tmap
        return c[3].copy() if t is None else bezier_points(self.cubic[-1], c, t[-1, 3])

    def is_constant(self, tol: float | None = None) -> bool:
        ctrl = self.ctrl
        tol = _CONT_TOL * (1.0 + np.abs(ctrl).max(axis=(1, 2))) if tol is None else tol
        return bool(np.all(np.abs(ctrl - ctrl[:, :1]).max(axis=(1, 2)) <= tol))


def _check_junctions(cubic, ctrl, tmap, spans, inside=None) -> np.ndarray:
    """``ValueError`` unless the control points are finite and the end of
    each row of a table meets the start of the next, at the junctions
    ``inside`` marks (all by default), within ``_CONT_TOL`` of the larger
    scale 1 + max|ctrl| of the two rows; returns the start and end point of
    every row, (rows, 2, dim).

    Rows of one segment repeat its control points, so a row with a time map
    (a row of NaN marks none) ends where its time map starts and ends, and
    time-mapped rows meet to within what moving the junction by the
    tolerance in the global parameter can move them (reparametrize merges
    breakpoints closer than that): a piece moves at most 3 * 2 max|ctrl| *
    3 max|time step| / span, ``spans`` giving each row's range of the
    global parameter.
    """
    scale = 1.0 + np.abs(ctrl).max(axis=(1, 2))  # not finite if a control point is not
    if not math.isfinite(scale.max(initial=1.0)):
        raise ValueError("control points and time maps must be finite")
    if tmap is None:
        ends = ctrl[:, ::3]
    else:
        ends = bezier_points(cubic[:, None], ctrl[:, None], np.where(np.isnan(tmap[:, :1]), [0.0, 1.0], tmap[:, ::3]))
        widen = 18.0 * np.abs(np.diff(tmap, axis=1)).max(axis=1) / spans
        scale = scale * (1.0 + np.where(np.isnan(tmap[:, 0]), 0.0, widen))
    d = ends[:-1, 1] - ends[1:, 0]
    gap = np.sqrt((d * d).sum(axis=1))
    bad = gap > _CONT_TOL * np.maximum(scale[:-1], scale[1:])
    if inside is not None:
        bad &= inside
    if bad.any():
        raise ValueError(f"adjacent segments are discontinuous (gap {gap[bad][0]:.3e})")
    return ends


def _check_loops(batch: Batch, basepoint: np.ndarray, spans=None):
    """``ValueError`` unless every chain of a batch is a loop at the base
    point, by the tests ``PathNd`` and ``LoopAtBase`` make of one: finite
    control points and time maps (a row of NaN marks none), no empty
    chain, rows of a chain that meet (``_check_junctions``, ``spans`` the
    global parameter range of each time-mapped row) and chain ends within
    ``_CONT_TOL`` (1 + max|basepoint|) of the base point."""
    cubic, ctrl, tmap, counts = batch
    if not (tmap is None or np.isfinite(tmap[~np.isnan(tmap[:, 0])]).all()):
        raise ValueError("control points and time maps must be finite")
    if (counts < 1).any():
        raise ValueError("a loop needs at least one segment")
    owner = np.repeat(np.arange(len(counts)), counts)
    ends = _check_junctions(cubic, ctrl, tmap, spans, owner[1:] == owner[:-1])
    last = np.cumsum(counts) - 1
    tol = _CONT_TOL * (1.0 + float(np.max(np.abs(basepoint))) if basepoint.size else 1.0)
    if np.any(np.linalg.norm(np.concatenate([ends[last - counts + 1, 0], ends[last, 1]]) - basepoint, axis=1) > tol):
        raise ValueError("loop endpoints must sit at the base point")


def _segment_backed(*paths, what: str):
    """Operations other than evaluation need paths without a time map."""
    for p in paths:
        if not isinstance(p, PathNd) or p.tmap is not None:
            raise TypeError(f"{what} needs segment-backed paths")


def _preimage(phi: PathNd, target: float) -> float | None:
    """The least t with phi(t) = target for a nondecreasing 1-d time map,
    or None unless phi(0) < target < phi(1).

    The segment is the first whose end ordinate reaches the target, so a
    flat segment is never inverted.  A line inverts in closed form; a
    cubic is bisected on its Bernstein form until the bracket is two
    adjacent floats.
    """
    y = phi.ctrl[:, :, 0]
    if not y[0, 0] < target < y[-1, 3]:
        return None
    k = int(np.searchsorted(y[:, 3], target))
    a, b = float(phi.breakpoints[k]), float(phi.breakpoints[k + 1])
    y0, y1, y2, y3 = (float(v) for v in y[k])
    if target <= y0:
        return a
    if not phi.cubic[k]:
        return a + (target - y0) / (y3 - y0) * (b - a)
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        v = 1.0 - mid
        if v**3 * y0 + 3.0 * v * v * mid * y1 + 3.0 * v * mid * mid * y2 + mid**3 * y3 < target:
            lo = mid
        else:
            hi = mid
    return a + hi * (b - a)


def _time_breakpoints(breakpoints: np.ndarray, phi: PathNd) -> np.ndarray:
    """Breakpoints of p(phi(i)) for a base path p with the given breakpoints:
    the union of the map's breakpoints and the preimages of the base path's,
    each within 1e-12 of the one before it dropped and the last one 1."""
    bps = set(float(b) for b in phi.breakpoints)
    for b in breakpoints[1:-1]:
        t = _preimage(phi, float(b))
        if t is not None:
            bps.add(t)
    merged = [0.0]
    for b in sorted(bps):
        if b - merged[-1] > 1e-12:
            merged.append(b)
    merged[-1] = 1.0
    return np.array(merged)


def _restrict(y: np.ndarray, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """Bezier ordinates (m, 4) of cubics restricted to [s0, s1] (each (m,))
    and reparametrized back to [0, 1].  Ordinate k is the blossom at s0
    taken 3 - k times and s1 taken k times: de Casteljau with s1 at the
    levels l >= 3 - k."""
    t = np.where(np.add.outer(np.arange(4), np.arange(3)) >= 3, s1[:, None, None], s0[:, None, None])
    c = np.broadcast_to(y[:, None, :], (len(y), 4, 4))
    for level in range(3):
        c = c[..., :-1] + t[..., level, None] * (c[..., 1:] - c[..., :-1])
    return c[..., 0]


@dataclass(frozen=True, eq=False)
class LoopAtBase:
    """A path whose endpoints both sit at a designated base point."""

    path: object
    basepoint: np.ndarray

    def __post_init__(self):
        bp = _set_basepoint(self)
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

    Given by a vectorized ``table_rule`` mapping an (m, dim) array of
    targets to the ``tables`` of their paths, a pure function of each
    target.  Every path is checked to run from the base point to the
    target.
    """

    dim: int
    basepoint: np.ndarray
    table_rule: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        if _set_basepoint(self).shape != (self.dim,):
            raise ValueError("basepoint dimension mismatch")

    def tables(self, points) -> tuple[np.ndarray, np.ndarray]:
        """The segment tables of the paths to one target or an (m, dim) array
        of them: kind flags (m, s) and control points (m, s, 4, dim).  A
        target that is not finite raises ``ValueError``.
        """
        pts = _as_points(points, self.dim)
        if not np.isfinite(pts).all():
            raise ValueError("frame targets must be finite")
        cubic, ctrl = self.table_rule(pts)
        tol = _CONT_TOL * (1.0 + np.maximum(np.abs(pts).max(axis=1), np.abs(self.basepoint).max()))
        if np.any(np.linalg.norm(ctrl[:, 0, 0] - self.basepoint, axis=1) > tol):
            raise ValueError("family path does not start at the base point")
        if np.any(np.linalg.norm(ctrl[:, -1, 3] - pts, axis=1) > tol):
            raise ValueError("family path does not end at the target point")
        return cubic, ctrl

    def __getitem__(self, x) -> PathNd:
        (cubic,), (ctrl,) = self.tables(x)
        return PathNd(cubic, ctrl, np.linspace(0.0, 1.0, len(cubic) + 1))


def _set_basepoint(obj) -> np.ndarray:
    """Freeze ``obj.basepoint`` as a read-only float array and return it;
    ``ValueError`` unless it is finite, as no loop could be checked at it."""
    bp = np.array(obj.basepoint, dtype=float)
    if not np.isfinite(bp).all():
        raise ValueError(f"base point must be finite, got {bp.tolist()}")
    bp.setflags(write=False)
    object.__setattr__(obj, "basepoint", bp)
    return bp


def _as_points(points, dim: int) -> np.ndarray:
    """One point of length dim, or an (m, dim) array, as an (m, dim) array;
    any other shape raises ``ValueError`` rather than being regrouped."""
    pts = np.asarray(points, dtype=float)
    if pts.shape != (dim,) and (pts.ndim != 2 or pts.shape[1] != dim):
        raise ValueError(f"expected a point of R^{dim} or an (m, {dim}) array, got shape {pts.shape}")
    return pts.reshape(-1, dim)


def _polyline(vertices: np.ndarray) -> PathNd:
    """The chain of straight segments through an (n + 1, dim) array of
    vertices, with uniform breakpoints."""
    return PathNd(*polyline_rows(vertices), np.linspace(0.0, 1.0, len(vertices)))


def _composed_breakpoints(beta: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Breakpoints of ``compose_paths``: beta's on [0, 1/2], alpha's on [1/2, 1]."""
    return np.concatenate([0.5 * beta, 0.5 + 0.5 * alpha[1:]])


def _reversed_breakpoints(bp: np.ndarray) -> np.ndarray:
    """Breakpoints of ``invert_path``."""
    bp = 1.0 - bp[::-1]
    bp[0], bp[-1] = 0.0, 1.0
    return bp


def constant_path(x) -> PathNd:
    x = np.asarray(x, dtype=float)
    return _polyline(np.stack([x, x]))


def straight_segment(x, y) -> PathNd:
    """The straight line i -> x + i*(y - x)."""
    return _polyline(np.stack([np.asarray(x, dtype=float), np.asarray(y, dtype=float)]))


def compose_paths(alpha: PathNd, beta: PathNd) -> PathNd:
    """Concatenation traversing beta first, then alpha.

    beta occupies parameter range [0, 1/2] and alpha [1/2, 1]; the split
    choice is invisible to holonomy by thin-loop invariance.
    """
    _segment_backed(alpha, beta, what="composition")
    if alpha.dim != beta.dim:
        raise EndpointMismatch("paths live in different dimensions")
    gap = float(np.linalg.norm(beta.end - alpha.start))
    if gap > 1e-10 * (1.0 + max(np.max(np.abs(beta.end)), np.max(np.abs(alpha.start)))):
        raise EndpointMismatch(f"beta ends {gap:.3e} away from where alpha starts")
    bp = _composed_breakpoints(beta.breakpoints, alpha.breakpoints)
    return PathNd(np.concatenate([beta.cubic, alpha.cubic]), np.concatenate([beta.ctrl, alpha.ctrl]), bp)


def invert_path(p: PathNd) -> PathNd:
    """Reverse orientation: i -> p(1 - i)."""
    _segment_backed(p, what="inversion")
    return PathNd(*reversed_rows(p.cubic, p.ctrl), _reversed_breakpoints(p.breakpoints))


def contract(p: PathNd, i: float) -> PathNd:
    """The truncation-and-rescale j -> p(i*j)."""
    _segment_backed(p, what="contraction")
    i = float(i)
    if not -1e-12 <= i <= 1.0 + 1e-12:
        raise ValueError("contraction parameter must lie in [0, 1]")
    i = min(max(i, 0.0), 1.0)
    if i == 0.0:
        return constant_path(p.point(0.0))
    if i == 1.0:
        return p
    bp = p.breakpoints
    m = int(np.searchsorted(bp, i))  # bp[m - 1] < i <= bp[m]
    cubic, ctrl = p.cubic[:m], p.ctrl[:m].copy()
    if bp[m] != i:
        # de Casteljau: the last segment's restriction to [0, u].
        u = (i - bp[m - 1]) / (bp[m] - bp[m - 1])
        p0, p1, p2, p3 = ctrl[-1]
        if cubic[-1]:
            c1, c2, c3 = p0 + u * (p1 - p0), p1 + u * (p2 - p1), p2 + u * (p3 - p2)
            c12, c23 = c1 + u * (c2 - c1), c2 + u * (c3 - c2)
            ctrl[-1] = [p0, c1, c12, c12 + u * (c23 - c12)]
        else:
            ctrl[-1, 2:] = bezier_points(False, ctrl[-1], u)
    return PathNd(cubic, ctrl, np.append(bp[:m] / i, 1.0))


def radial_family(basepoint) -> PathFamily:
    """Straight-line frame x -> (i -> * + i*(x - *)); Fock-Schwinger style."""
    basepoint = np.asarray(basepoint, dtype=float)

    def table_rule(xs):
        return polyline_rows(np.stack(np.broadcast_arrays(basepoint, xs), axis=1))

    return PathFamily(basepoint.size, basepoint, table_rule=table_rule)


def axis_dogleg_family(basepoint) -> PathFamily:
    """Axis-parallel frame: adjust one coordinate at a time, x1 first."""
    basepoint = np.asarray(basepoint, dtype=float)
    dim = basepoint.size
    from_target = np.tri(dim + 1, dim, -1, dtype=bool)  # corner k takes x1..xk from x

    def table_rule(xs):
        return polyline_rows(np.where(from_target, xs[:, None, :], basepoint))

    return PathFamily(dim, basepoint, table_rule=table_rule)


def reconstruction_loop(psi: PathFamily, x, y) -> LoopAtBase:
    """The frame-conjugated straight shift: out along psi[x], straight to y,
    back along psi[y]; a loop at the family's base point, with the
    breakpoints of compose_paths(invert_path(psi[y]),
    compose_paths(straight_segment(x, y), psi[x]))."""
    cubic, ctrl, _, _ = _shift_rows(psi, [x], [y])
    legs = np.linspace(0.0, 1.0, (len(cubic) - 1) // 2 + 1)
    bp = _composed_breakpoints(_composed_breakpoints(legs, np.array([0.0, 1.0])), _reversed_breakpoints(legs))
    return LoopAtBase(PathNd(cubic, ctrl, bp), psi.basepoint)


def _shift_rows(psi: PathFamily, xs, ys, back: PathFamily | None = None) -> Batch:
    """The rows of ``reconstruction_loop`` for the pairs (x, y) of two
    broadcast arrays of points, as one batch, unreduced: psi[x], the
    straight segment from x to y, then back[y] reversed (back is psi by
    default).  The frame paths of all xs, and of all ys, come from one
    ``PathFamily.tables`` call each, a pure vectorized function of each
    target, so a repeated point costs one more row and nothing else.
    """
    xs, ys = np.broadcast_arrays(*np.atleast_2d(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)))
    (cubic, ctrl), ends = psi.tables(xs), (psi if back is None else back).tables(ys)
    shift, rev = polyline_rows(np.stack([xs, ys], axis=1)), reversed_rows(*ends)
    ctrl = np.concatenate([ctrl, shift[1], rev[1]], axis=1)
    return table_batch(np.concatenate([cubic, shift[0], rev[0]], axis=1), ctrl)


def reconstruction_chains(psi: PathFamily, xs, ys, back: PathFamily | None = None) -> Batch:
    """The loops of ``_shift_rows`` thin-reduced, as one batch for the
    holonomy kernel: the surviving rows of every loop in order, and the
    number of rows of each, with the semantics of ``thin_reduce``."""
    cubic, ctrl, _, counts = _shift_rows(psi, xs, ys, back)
    keep = thin_keep(cubic, ctrl, counts, _CONT_TOL)
    n = len(counts)
    return Batch(cubic[keep], ctrl[keep], None, np.bincount(np.repeat(np.arange(n), counts)[keep], minlength=n))


def thin_reduce(p: PathNd) -> PathNd:
    """Cancel exact adjacent retracings and drop zero-length segments.

    Iterates to a fixed point.  Only exact (control-point level) reversals
    are cancelled; geometrically thin configurations that are not exact
    retracings are left alone and handled behaviorally by holonomy.
    """
    _segment_backed(p, what="thin reduction")
    keep = np.flatnonzero(thin_keep(p.cubic, p.ctrl, [p.n_pieces], _CONT_TOL))
    if not keep.size:
        return constant_path(p.point(0.0))
    spans = np.diff(p.breakpoints)[keep]
    bp = np.concatenate([[0.0], np.cumsum(spans)]) / spans.sum()
    bp[-1] = 1.0
    return PathNd(p.cubic[keep], p.ctrl[keep], bp)


def power_map(k: int) -> PathNd:
    """The time map i -> i**k (k = 1, 2, 3) as an exact 1-d path."""
    controls = {1: [0.0, 1.0, 2.0, 3.0], 2: [0.0, 0.0, 1.0, 3.0], 3: [0.0, 0.0, 0.0, 3.0]}
    if k not in controls:
        raise ValueError("only powers 1..3 are exactly representable")
    ctrl = np.array(controls[k])[None, :, None] / 3.0
    return PathNd(np.ones(1, dtype=bool), ctrl, np.array([0.0, 1.0]))


def piecewise_power_map(k: int, split: float = 0.5) -> PathNd:
    """i -> i**k on [0, split], affine continuation to (1, 1) afterwards."""
    if not 0.0 < split < 1.0:
        raise ValueError("split must be interior to [0, 1]")
    s = float(split)
    if k == 2:
        head = [0.0, 0.0, s**2 / 3.0, s**2]
    elif k == 3:
        head = [0.0, 0.0, 0.0, s**3]
    else:
        raise ValueError("only powers 2 and 3 are supported")
    tail = [s**k, s**k, 1.0, 1.0]
    return PathNd(np.array([True, False]), np.array([head, tail])[..., None], np.array([0.0, s, 1.0]))


def reparametrize(p, phi: PathNd):
    """Precompose a path with a monotone time map given as a 1-d path.

    phi must run from 0 to 1 and be nondecreasing; violations raise
    ``NotMonotone``.  The identity map returns the path unchanged; any
    other returns the path p(phi(i)) as a ``PathNd`` with time maps.
    """
    if phi.dim != 1:
        raise NotMonotone("time map must be one-dimensional")
    if abs(float(phi.start[0])) > 1e-12 or abs(float(phi.end[0]) - 1.0) > 1e-12:
        raise NotMonotone("time map must fix 0 and 1")
    # The least derivative of each piece over [0, 1], exactly: a line's
    # chord, or 3 q(t) for a cubic, q the Bernstein quadratic of the steps
    # d0, d1, d2, least at an end or, if d1 < min(d0, d2), at its vertex.
    y = phi.ctrl[:, :, 0]
    d0, d1, d2 = np.diff(y, axis=1).T
    inside = (d1 < d0) & (d1 < d2)
    vertex = np.divide(d0 * d2 - d1 * d1, d0 - 2.0 * d1 + d2, out=np.full_like(d1, np.inf), where=inside)
    least = np.where(phi.cubic, 3.0 * np.minimum(np.minimum(d0, d2), vertex), y[:, 3] - y[:, 0])
    if np.min(least / np.diff(phi.breakpoints)) < -1e-10:
        raise NotMonotone("time map must be nondecreasing")
    if phi.n_pieces == 1 and not phi.cubic[0] and np.allclose(phi.ctrl[0, [0, 3]], [[0.0], [1.0]]):
        return p
    _segment_backed(p, phi, what="reparametrization")
    j, bp, tmap = _time_table(p.breakpoints, phi)
    return PathNd(p.cubic[j], p.ctrl[j], bp, tmap)


def _time_table(breakpoints: np.ndarray, phi: PathNd) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The table part of ``reparametrize`` for a base path with the given
    breakpoints and a time map phi that is not the identity: the base row j
    of each piece of p(phi(i)), the pieces' breakpoints, and their time
    maps.  None of them depends on the base path's control points.

    Each piece is one base segment's row plus one time-map piece (a line
    raised to degree 3), restricted by de Casteljau and mapped into the
    segment's local parameter.  A base segment too short for the merged
    breakpoints to resolve falls inside a piece, and the table then fails
    its continuity check.
    """
    bp = _time_breakpoints(breakpoints, phi)
    lo, hi = bp[:-1], bp[1:]
    # The time-map piece under each piece, as cubic ordinates.
    k = np.clip(np.searchsorted(phi.breakpoints, 0.5 * (lo + hi), side="right") - 1, 0, phi.n_pieces - 1)
    fa, fb = phi.breakpoints[k], phi.breakpoints[k + 1]
    y = phi.ctrl[k, :, 0]
    line = np.stack([y[:, 0], (2.0 * y[:, 0] + y[:, 3]) / 3.0, (y[:, 0] + 2.0 * y[:, 3]) / 3.0, y[:, 3]], axis=1)
    y = _restrict(np.where(phi.cubic[k, None], y, line), (lo - fa) / (fb - fa), (hi - fa) / (fb - fa))
    # The base segment each piece runs along, and its local parameter.
    j = np.clip(np.searchsorted(breakpoints, 0.5 * (y[:, 0] + y[:, 3]), side="right") - 1, 0, len(breakpoints) - 2)
    ba, bb = breakpoints[j, None], breakpoints[j + 1, None]
    return j, bp, (y - ba) / (bb - ba)


def random_polygon_loop(rng: np.random.Generator, basepoint, n_vertices: int = 4, radius: float = 0.75) -> LoopAtBase:
    """Seeded closed polyline through random vertices near the base point."""
    basepoint = np.asarray(basepoint, dtype=float)
    verts = basepoint + rng.uniform(-radius, radius, size=(n_vertices, basepoint.size))
    return LoopAtBase(_polyline(np.concatenate([basepoint[None], verts, basepoint[None]])), basepoint)


def random_polyline(rng: np.random.Generator, start, n_segments: int = 2, radius: float = 0.75) -> PathNd:
    """Seeded open polyline starting at a given point."""
    start = np.asarray(start, dtype=float)
    steps = rng.uniform(-radius, radius, size=(n_segments, start.size))
    return _polyline(np.cumsum(np.concatenate([start[None], steps]), axis=0))


def _composition_triples(rng: np.random.Generator, basepoint: np.ndarray, samples: int, radius: float) -> Batch:
    """The composition law's loops as one checked batch: for each of
    ``samples`` pairs of 4-vertex polygon loops alpha, beta at the base
    point, drawn as ``random_polygon_loop`` draws alpha and then beta, the
    rows of compose_paths(alpha, beta) (beta first), of alpha and of beta."""
    dim = basepoint.size
    verts = basepoint + rng.uniform(-radius, radius, size=(samples, 2, 4, dim))
    ends = np.broadcast_to(basepoint, (samples, 2, 1, dim))
    _, ctrl = polyline_rows(np.concatenate([ends, verts, ends], axis=2))
    alpha, beta = ctrl[:, 0], ctrl[:, 1]
    n = alpha.shape[1]
    ctrl = np.concatenate([beta, alpha, alpha, beta], axis=1).reshape(-1, 4, dim)
    batch = Batch(np.zeros(len(ctrl), dtype=bool), ctrl, None, np.tile([2 * n, n, n], samples))
    _check_loops(batch, basepoint)
    return batch


def _thin_loops(rng: np.random.Generator, basepoint: np.ndarray, samples: int, radius: float) -> Batch:
    """The thin-loop law's loops as one checked batch: for each of
    ``samples`` 2-segment polylines p from the base point, drawn as
    ``random_polyline`` draws them, the rows of compose_paths(invert_path(p),
    p), those of every odd loop reparametrized by piecewise_power_map(3,
    0.5) and the others with time maps of NaN, as ``stack_tables`` gives
    them."""
    dim = basepoint.size
    steps = rng.uniform(-radius, radius, size=(samples, 2, dim))
    verts = np.cumsum(np.concatenate([np.broadcast_to(basepoint, (samples, 1, dim)), steps], axis=1), axis=1)
    cubic, ctrl = polyline_rows(verts)
    ctrl = np.concatenate([ctrl, reversed_rows(cubic, ctrl)[1]], axis=1).reshape(-1, 4, dim)
    # Every loop has the breakpoints of p o p^-1, so one time table serves
    # every reparametrized one.  Loop 2m takes rows 8m + (0, 1, 2, 3) with
    # no time map and loop 2m + 1 rows 8m + 4 + j with the time maps; an odd
    # count of loops drops the last pair's second.
    p_bp = np.linspace(0.0, 1.0, 3)
    j, bp, tmap = _time_table(_composed_breakpoints(p_bp, _reversed_breakpoints(p_bp)), piecewise_power_map(3, 0.5))
    pair, none = np.arange((samples + 1) // 2)[:, None], np.full((4, 4), np.nan)
    counts = np.where(np.arange(samples) % 2, len(j), 4)
    rows = counts.sum()
    take = (np.concatenate([np.arange(4), 4 + j]) + 8 * pair).ravel()[:rows]
    tmaps = np.tile(np.concatenate([none, tmap]), (len(pair), 1))[:rows]
    spans = np.tile(np.concatenate([none[0], np.diff(bp)]), len(pair))[:rows]
    batch = Batch(np.zeros(rows, dtype=bool), ctrl[take], tmaps if samples > 1 else None, counts)
    _check_loops(batch, basepoint, spans)
    return batch
