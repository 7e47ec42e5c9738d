"""Recovering the gauge potential and connection form from a holonomy map.

The central operation differentiates holonomies of frame-conjugated
straight-shift loops: with a reference frame psi and the straight segment
T from x to y,

    A_mu(x) = d/dy_mu  log H( psi[y]^{-1} o T o psi[x] )  at  y = x.

Derivatives are taken as central differences with one optional Richardson
extrapolation step (h and h/2), giving observed order ~4; the error
budget is explicit and owned by ``FdConfig``.  ``reconstruct_potential``
takes many points of one direction at once and sends all their difference
loops through the holonomy kernel as one batch; ``reconstructed_connection``
is the recovered connection, a ``ConnectionField`` whose rule memoizes them
and whose 1-form on a vector v is |v| times the one difference quotient
along v / |v|, which transport in it evaluates on every lattice velocity.

The same difference quotient, applied to a curve over the frame (a foot
point p(i) on a base curve plus a fiber value g(i)), evaluates the
connection 1-form on arbitrary tangent vectors; horizontality and frame
covariance are then checkable properties rather than axioms.

Curvature F_munu = d_mu A_nu - d_nu A_mu + [A_mu, A_nu] serves as the
computable gauge-covariant comparator between an input connection and its
round-trip reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lie_core import (
    AlgebraElement,
    GroupElement,
    GroupSpec,
    _LOG_TRUST_RADIUS,
    _check_algebra,
    _check_group,
    _inverse,
    _norms,
    group_distance,
    log_map,
    project_to_algebra,
    project_to_group,
)
from .holonomy import (
    BasepointMismatch,
    ConnectionField,
    DimMismatch,
    HolonomyMap,
    _check_axis,
    _check_based,
    _check_count,
    _check_steps,
    _Plan,
    _evaluate,
    _loop_holonomies,
    eval_holonomy,
)
from .path_algebra import (
    _CONT_TOL,
    LoopAtBase,
    PathFamily,
    PathNd,
    _as_points,
    constant_path,
    contract,
    random_polyline,
    reconstruction_chains,
    straight_segment,
)
from .segment_table import reversed_rows, stack_tables, table_batch, thin_keep

__all__ = [
    "StepTooLarge",
    "FdConfig",
    "TrivializedCurve",
    "GridSpec",
    "RoundTripReport",
    "reconstruct_potential",
    "reconstructed_connection",
    "connection_form_action",
    "horizontal_transport",
    "transition_function",
    "gauge_transform_potential",
    "curvature",
    "round_trip_report",
    "potential_grid_csv",
]


# Difference loops are built and evaluated at most this many at a time, in
# blocks of equal size, which bounds the segment tables and frame paths held
# at once and leaves no small remainder block; each block costs one plan and
# at least one kernel call.  The round trip on abelian-ydx (grid 5, 16 steps)
# takes its 650 transport points per direction in 3 blocks of 216 or 217
# (not 256 + 256 + 138), 8 blocks in all against 28 at 128 loops, and its
# peak RSS is about 0.08 MB higher (4 launches each, 2-core x86 VM).
_LOOPS_PER_BLOCK = 512


class StepTooLarge(ValueError):
    """Finite-difference step pushed a logarithm outside its trust region."""


@dataclass(frozen=True)
class FdConfig:
    """Finite-difference scheme: step, Richardson toggle, curvature step."""

    h: float = 1e-4
    richardson: bool = True
    curvature_h: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.h < 0.1:
            raise ValueError("h must lie in (0, 0.1)")
        if not self.h <= self.curvature_h < np.inf:
            raise ValueError("curvature_h must be finite and at least h")


def _steps(dim: int, mu: int, h: float, richardson: bool = False) -> np.ndarray:
    """The difference scheme's steps +h, -h and, with Richardson, +h/2, -h/2
    along axis mu of R^dim, as a (k, dim) array; ``ValueError`` unless mu
    is an axis."""
    return np.multiply.outer([h, -h, h / 2.0, -h / 2.0][: 4 if richardson else 2], np.eye(dim)[_check_axis(mu, dim)])


def _central(values, h: float, richardson: bool):
    """Central difference of values taken at the steps of ``_steps`` (first
    axis), Richardson-extrapolated when configured."""
    d = (values[0] - values[1]) / (2.0 * h)
    if richardson:
        d = (4.0 * ((values[2] - values[3]) / (2.0 * (h / 2.0))) - d) / 3.0
    return d


def _logs_for_difference(spec: GroupSpec, hols: np.ndarray) -> np.ndarray:
    """Logarithms of a (..., d, d) stack of holonomies, guarded by the
    difference-quotient trust region.

    Difference quotients are only meaningful for near-identity arguments,
    independent of whether the group's own logarithm happens to extend
    further (it does for the positive reals).
    """
    dist = np.linalg.norm(hols - np.eye(spec.matrix_dim), axis=(-2, -1)).ravel()
    far = np.flatnonzero(dist >= _LOG_TRUST_RADIUS)
    if far.size:
        raise StepTooLarge(f"holonomy is {dist[far[0]]:.3g} from the identity; reduce cfg.h")
    return log_map(hols, spec)


def _difference_quotients(h_map: HolonomyMap, psi: PathFamily, xs, units, cfg: FdConfig, tol, label):
    """``reconstruct_potential``'s values, steps and estimates, with each
    of the (m, dim) points ``xs`` shifted along its own row of ``units``
    instead of one axis; ``label(k)`` names point k in an error."""
    spec, dim = h_map.spec, h_map.field.dim
    _check_based(h_map, psi.dim, psi.basepoint)
    scheme = _steps(1, 0, cfg.h, cfg.richardson)
    k = len(scheme)

    def quotients(h):
        # D at the points whose k difference loops have holonomies h, in order.
        logs = _logs_for_difference(spec, h).reshape((-1, k) + h.shape[-2:])
        return _central(np.moveaxis(logs, 1, 0), cfg.h, cfg.richardson)

    blocks = [(np.zeros((0, spec.matrix_dim, spec.matrix_dim), dtype=spec.dtype), np.zeros(0, dtype=int), np.zeros(0))]
    # The fewest blocks of whole points (_LOOPS_PER_BLOCK is a multiple of
    # every k), with counts that differ by at most one point.
    n_blocks = -(-len(xs) // (_LOOPS_PER_BLOCK // k))
    for b in range(n_blocks):
        a, e = len(xs) * b // n_blocks, len(xs) * (b + 1) // n_blocks
        pts, shifts = xs[a:e], scheme * units[a:e, None, :]
        chains = reconstruction_chains(psi, np.repeat(pts, k, axis=0), (pts[:, None, :] + shifts).reshape(-1, dim))
        blocks.append(_evaluate(h_map, _Plan(h_map.field, chains, k), quotients, tol, lambda j: label(a + j)))
    out, steps, est = (np.concatenate(part) for part in zip(*blocks))
    return _check_algebra(spec, out, project=True), steps, est


def reconstruct_potential(h_map: HolonomyMap, psi: PathFamily, x, mu: int, cfg: FdConfig = FdConfig(), tol=None):
    """Gauge potential component A_mu(x) recovered from holonomies only,
    with the steps per piece and the integration estimate of each value.

    Central difference of log H over straight shifts of x along axis mu,
    with one Richardson step when configured.  ``x`` is one point, giving
    an ``AlgebraElement``, an int and a float, or an (m, dim) array of
    points, giving their (m, d, d) stack and two (m,) arrays; either way
    the difference loops of all points are built as flat segment tables
    and evaluated in batches.  Raises ``StepTooLarge`` if the holonomy of
    any difference loop leaves the logarithm trust region.

    With ``tol`` on a transport map, all loops of a point share the fewest
    steps per piece, doubled from min(8, N) up to the map's N as the cap,
    at which the estimate |D_n - D_{n/2}| / 15 of its difference quotient
    D is at most tol; D_{n/2} costs no field samples.  A point above tol at
    N raises ``IntegrationError``.  Without ``tol``, every piece takes N
    steps (0 on the exact map), as fixed, and the estimates are nan.
    """
    x, dim = np.asarray(x, dtype=float), h_map.field.dim
    xs = _as_points(x, dim)
    axis = np.broadcast_to(np.eye(dim)[_check_axis(mu, dim)], xs.shape)
    label = lambda k: f"point {xs[k].tolist()}, direction {mu}"
    out, steps, est = _difference_quotients(h_map, psi, xs, axis, cfg, tol, label)
    return (out, steps, est) if x.ndim == 2 else (AlgebraElement(h_map.spec, out[0]), int(steps[0]), float(est[0]))


def reconstructed_connection(h_map: HolonomyMap, psi: PathFamily, cfg: FdConfig = FdConfig(), tol=None):
    """The connection recovered from a holonomy map in the frame psi.

    Its rule calls ``reconstruct_potential`` (with ``tol``) once per batch,
    on the points it has not seen, and memoizes the values per (point,
    direction), not their steps and estimates; each call returns a new
    stack.  Its 1-form ``form`` memoizes nothing: at each point it is |v|
    times the difference quotient along v / |v|, 2 or 4 loops in any
    dimension, and exactly zero with no loop for v = 0.  If a batch of
    either raises, its points are evaluated again one at a time, so the
    error raised and the values memoized are those of single-point calls in
    order.  No points give a (0, d, d) stack.  Its degree is unknown (None).
    """
    memo: dict = {}
    spec, d = h_map.spec, h_map.spec.matrix_dim

    def rule(points, mu):
        pts = np.asarray(points, dtype=float)
        keys = [(x.tobytes(), mu) for x in pts]
        missing = {key: x for key, x in zip(keys, pts) if key not in memo}
        if missing:
            args = (mu, cfg, tol)
            try:
                memo.update(zip(missing, reconstruct_potential(h_map, psi, np.array(list(missing.values())), *args)[0]))
            except (ValueError, ArithmeticError):
                for key, x in missing.items():
                    memo[key] = reconstruct_potential(h_map, psi, x[None], *args)[0][0]
        return np.stack([memo[key] for key in keys]) if keys else np.zeros((0, d, d), dtype=spec.dtype)

    def form(points, vectors):
        norms = np.linalg.norm(vectors, axis=1)
        live = np.flatnonzero(norms)
        pts, units = points[live], vectors[live] / norms[live, None]
        label = lambda k: f"point {pts[k].tolist()}, vector {vectors[live[k]].tolist()}"
        try:
            values = _difference_quotients(h_map, psi, pts, units, cfg, tol, label)[0]
        except (ValueError, ArithmeticError):
            for k in range(len(pts)):
                _difference_quotients(h_map, psi, pts[k : k + 1], units[k : k + 1], cfg, tol, lambda j: label(k))
            raise
        out = np.zeros((len(points), d, d), dtype=spec.dtype)
        out[live] = values * norms[live, None, None]
        return out

    field = ConnectionField(h_map.field.dim, spec, rule)
    field.form = form
    return field


def _frame_loops(psi: PathFamily, paths, j: float, params) -> list[LoopAtBase]:
    """The based loops psi[p(i)]^{-1} o K(p,i) o K(p,j)^{-1} o psi[p(j)],
    thin-reduced, for each path p of ``paths`` and each i of ``params``,
    path-major; K(p, t) is p contracted to [0, t].  All frame paths come
    from one ``PathFamily.tables`` call and all rows are thin-reduced as
    one batch.  The legs K(p, 0) and those of a constant p have zero
    length and are left out; a loop that is all thin is the constant path."""
    ts = [j, *params]
    cubic, ctrl = psi.tables(np.concatenate([p.point(np.array(ts)) for p in paths]))
    tables = []
    for k, p in enumerate(paths):
        # The leg of each parameter t: out along psi[p(t)], back along p to p(0).
        legs, moving = [], not p.is_constant()
        for t, c, x in zip(ts, cubic[k * len(ts) :], ctrl[k * len(ts) :]):
            if moving and t:
                q = contract(p, t)
                kc, kx = reversed_rows(q.cubic, q.ctrl)
                c, x = np.concatenate([c, kc]), np.concatenate([x, kx])
            legs.append((c, x))
        (cj, xj), back = legs[0], (reversed_rows(c, x) for c, x in legs[1:])
        tables += [(np.concatenate([cj, c]), np.concatenate([xj, x])) for c, x in back]
    counts = [len(c) for c, _ in tables]
    keep = thin_keep(*(np.concatenate(part) for part in zip(*tables)), counts, _CONT_TOL)
    loops = []
    for (c, x), kept in zip(tables, np.split(keep, np.cumsum(counts)[:-1])):
        n = np.count_nonzero(kept)
        path = PathNd(c[kept], x[kept], np.linspace(0.0, 1.0, n + 1)) if n else constant_path(psi.basepoint)
        loops.append(LoopAtBase(path, psi.basepoint))
    return loops


@dataclass(frozen=True, eq=False)
class TrivializedCurve:
    """A curve in the bundle trivialized by the frame psi: the foot point
    p(i) = ``base_curve``(i), reached along psi[p(i)], and the fiber value
    ``g(i)``.  The parameter interval must sit inside [0, 1] unless the
    base curve is constant (vertical curves)."""

    psi: PathFamily
    base_curve: PathNd
    g: Callable[[float], GroupElement]
    interval: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.interval
        if not lo < hi:
            raise ValueError("empty parameter interval")
        if not self.base_curve.is_constant() and (lo < 0.0 or hi > 1.0):
            raise ValueError("moving curves need a parameter interval inside [0, 1]")

    @classmethod
    def vertical(cls, psi: PathFamily, x, g_of_i, halfwidth: float = 0.25) -> "TrivializedCurve":
        """Curve moving only in the fiber over a fixed point."""
        return cls(psi, constant_path(np.asarray(x, dtype=float)), g_of_i, (-halfwidth, halfwidth))

    @classmethod
    def coordinate_shift(cls, psi: PathFamily, x, mu: int, spec: GroupSpec, span: float = 1.0) -> "TrivializedCurve":
        """Straight motion through x along axis mu with constant fiber value;
        the midpoint parameter 1/2 corresponds to x itself."""
        x = np.asarray(x, dtype=float)
        hi, lo = x + _steps(x.size, mu, 0.5 * span)
        ident = GroupElement.identity(spec)
        return cls(psi, straight_segment(lo, hi), lambda i: ident, (0.0, 1.0))

    @classmethod
    def horizontal_lift(cls, h_map: HolonomyMap, psi: PathFamily, p: PathNd, g0: GroupElement) -> "TrivializedCurve":
        """The lift of p obtained by holonomy-only transport of g0."""
        return cls(psi, p, lambda i: horizontal_transport(h_map, psi, p, g0, i), (0.0, 1.0))

    def right_translated(self, g0: GroupElement) -> "TrivializedCurve":
        """Same curve with fiber values multiplied by g0 on the right."""
        return TrivializedCurve(self.psi, self.base_curve, lambda i: self.g(i) @ g0, self.interval)


def connection_form_action(
    h_map: HolonomyMap, curve: TrivializedCurve, j: float, cfg: FdConfig = FdConfig()
) -> AlgebraElement:
    """Connection 1-form applied to the tangent of a trivialized curve at j.

    Central difference over i of log( g(j)^{-1} H(loop(j, i)) g(i) ), the
    loop that of ``_frame_loops``; the argument is the identity at i = j,
    so the quotient lands in the algebra.  The 2 or 4 loops of the scheme
    are evaluated as one holonomy batch.
    """
    lo, hi = curve.interval
    if not lo < j < hi:
        raise ValueError("evaluation parameter must be interior to the curve interval")
    if j - cfg.h < lo or j + cfg.h > hi:
        raise StepTooLarge("cfg.h exceeds the distance from j to the interval ends")
    spec = h_map.spec
    gj_inv = curve.g(j).inverse().matrix
    ts = j + _steps(1, 0, cfg.h, cfg.richardson)[:, 0]
    hols = eval_holonomy(h_map, _frame_loops(curve.psi, [curve.base_curve], j, ts))
    values = project_to_group(spec, gj_inv @ hols @ np.stack([curve.g(i).matrix for i in ts]))
    logs = _logs_for_difference(spec, _check_group(spec, values))
    return AlgebraElement.from_matrix(spec, _central(logs, cfg.h, cfg.richardson))


def horizontal_transport(h_map: HolonomyMap, psi: PathFamily, p, g0: GroupElement, i: float):
    """Parallel transport of g0 along p expressed purely through holonomies.

    The transported value is H(loop) g0 with the loop of ``_frame_loops``
    from i to 0, psi[p(0)]^{-1} o K(p,i)^{-1} o psi[p(i)]; at i = 0 the
    loop is thin, so the initial value comes out exactly.  ``p`` is one
    path, giving a ``GroupElement``, or a sequence, giving the (m, d, d)
    stack from one ``eval_holonomy`` batch; a path of another dimension
    raises ``DimMismatch`` before any loop is built.
    """
    single = isinstance(p, PathNd)
    paths = [p] if single else list(p)
    for q in paths:
        if q.dim != h_map.field.dim:
            raise DimMismatch(f"path dimension {q.dim} != field dimension {h_map.field.dim}")
    hols = eval_holonomy(h_map, _frame_loops(psi, paths, float(i), [0.0]) if paths else [])
    out = project_to_group(h_map.spec, hols @ g0.matrix)
    return GroupElement(h_map.spec, out[0]) if single else out


def transition_function(h_map: HolonomyMap, psi: PathFamily, psi2: PathFamily, x):
    """Frame-change value H( psi2[x]^{-1} o psi[x] ).

    Multiplying on the left by this value (and adding its logarithmic
    derivative) carries the psi-frame potential into the psi2-frame one;
    swapping the arguments yields the inverse element.  ``x`` is one point,
    giving a ``GroupElement``, or an (m, dim) array of points, giving the
    (m, d, d) stack of their values from one holonomy batch.
    """
    if np.linalg.norm(psi.basepoint - psi2.basepoint) > 1e-12 * (1.0 + np.max(np.abs(psi.basepoint))):
        raise BasepointMismatch("frames must share a base point")
    x = np.asarray(x, dtype=float)
    xs = _as_points(x, h_map.field.dim)
    _check_based(h_map, psi.dim, psi.basepoint)
    # The chains psi[x], x -> x (zero length, so thin reduction drops it), psi2[x] reversed.
    out = _check_group(h_map.spec, _loop_holonomies(h_map, reconstruction_chains(psi, xs, xs, psi2))[0])
    return out if x.ndim == 2 else GroupElement(h_map.spec, out[0])


def gauge_transform_potential(
    A: ConnectionField, gfield: Callable[[np.ndarray], np.ndarray], x, mu: int, cfg: FdConfig = FdConfig()
):
    """Transform a potential by a group-valued field:
    g^{-1} A_mu g + g^{-1} d_mu g, the derivative by central difference.

    ``gfield(points)`` maps an (m, dim) array to an (m, d, d) stack of
    group matrices, which is checked as outside input; it is called once,
    on the points and their shifts along axis mu.  ``x`` is one point,
    giving an ``AlgebraElement``, or an (m, dim) array, giving the stack;
    ``StepTooLarge`` if the field varies too fast at any point.
    """
    x = np.asarray(x, dtype=float)
    xs = _as_points(x, A.dim)
    shifts = _steps(A.dim, mu, cfg.h, cfg.richardson)
    g = _check_group(A.spec, gfield(np.concatenate([xs, *(xs + s for s in shifts)])))
    g = g.reshape((1 + len(shifts), len(xs)) + g.shape[1:])
    if np.any(np.linalg.norm(g[1::2] - g[2::2], axis=(-2, -1)) > 1.0):
        raise StepTooLarge("gauge field varies too fast at the difference scale")
    g_inv = _inverse(A.spec, g[0])
    out = g_inv @ A.rule(xs, mu) @ g[0] + g_inv @ _central(g[1:], cfg.h, cfg.richardson)
    out = _check_algebra(A.spec, out, project=True)
    return out if x.ndim == 2 else AlgebraElement(A.spec, out[0])


def curvature(A: ConnectionField, x, mu: int, nu: int, cfg: FdConfig = FdConfig()):
    """Field strength F_munu = d_mu A_nu - d_nu A_mu + [A_mu, A_nu].

    Central differences with step ``cfg.curvature_h``; the formula is
    literally antisymmetric, so swapping (mu, nu) negates the value
    exactly.  ``x`` is one point, giving an ``AlgebraElement``, or an
    (m, dim) array, giving the (m, d, d) stack; A is evaluated in one
    ``rule`` call per direction.
    """
    x = np.asarray(x, dtype=float)
    xs = _as_points(x, A.dim)
    ch = cfg.curvature_h
    # A_nu at x + ch e_mu, x - ch e_mu and x, then A_mu likewise along nu.
    around = [np.concatenate([*(xs + _steps(xs.shape[1], a, ch)[:, None]), xs]) for a in (mu, nu)]
    (*nu_along_mu, a_nu), (*mu_along_nu, a_mu) = (np.split(A.rule(pts, b), 3) for pts, b in zip(around, (nu, mu)))
    f = _central(nu_along_mu, ch, False) - _central(mu_along_nu, ch, False) + a_mu @ a_nu - a_nu @ a_mu
    out = _check_algebra(A.spec, f, project=True)
    return out if x.ndim == 2 else AlgebraElement(A.spec, out[0])


@dataclass(frozen=True)
class GridSpec:
    """Uniform lattice over a shared per-axis box."""

    lo: float
    hi: float
    resolution: int

    def __post_init__(self):
        _check_count(self.resolution, "the grid resolution", 2)
        if not -np.inf < self.lo < self.hi < np.inf:
            raise ValueError(f"the box must be finite with lo < hi, got {self.lo!r},{self.hi!r}")

    def axis(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.resolution)

    def nodes(self, dim: int) -> np.ndarray:
        mesh = np.meshgrid(*[self.axis()] * dim, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def describe(self, dim: int) -> dict:
        return {"box": [self.lo, self.hi], "resolution": self.resolution, "dim": dim}


@dataclass(frozen=True)
class RoundTripReport:
    """Worst-case defects of a connection -> holonomy -> connection trip."""

    grid: dict
    max_curvature_defect: float
    max_gauge_defect: float
    max_transport_defect: float
    tolerances: dict
    failures: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "grid": self.grid,
            "max_curvature_defect": self.max_curvature_defect,
            "max_gauge_defect": self.max_gauge_defect,
            "max_transport_defect": self.max_transport_defect,
            "tolerances": dict(self.tolerances),
            "failures": [list(f) for f in self.failures],
        }

    def within(self) -> bool:
        checks = {
            "curvature": self.max_curvature_defect,
            "gauge": self.max_gauge_defect,
            "transport": self.max_transport_defect,
        }
        return not self.failures and all(
            checks[k] <= tol for k, tol in self.tolerances.items() if k in checks
        )


def _relating_gauge_field(A_in: ConnectionField, psi: PathFamily, steps: int):
    """The group-valued field carrying the input potential into its
    radial-frame reconstruction, as a batch function from an (m, dim) array
    of points to an (m, d, d) stack: transport of the identity along the
    frame paths (closed-form quadrature in the abelian case)."""
    spec = A_in.spec

    def gfield(points) -> np.ndarray:
        batch = table_batch(*psi.tables(points))
        if spec.is_abelian:
            u = np.exp(project_to_algebra(spec, -_Plan(A_in, batch).line_integrals()[:, None, None]))
        else:
            u = _Plan(A_in, batch).products(steps)
        return project_to_group(spec, u)

    return gfield


def round_trip_report(
    A_in: ConnectionField,
    psi: PathFamily,
    grid: GridSpec,
    cfg: FdConfig = FdConfig(),
    *,
    steps_per_segment: int = 64,
    tolerances: dict | None = None,
    transport_paths: int = 10,
    transport_steps: int = 16,
    seed: int = 0,
) -> RoundTripReport:
    """Drive a connection through its holonomy map and back, and report
    curvature, gauge and transport defects over a grid.

    Curvature is compared entry by entry against the input curvature
    conjugated by the relating gauge field, F_rec = g^{-1} F_in g.  The
    gauge defect compares the reconstruction against the explicitly
    transformed input; the transport defect compares holonomy-only
    transport with solving the transport equation in the reconstructed
    potential along ``transport_paths`` (an integer >= 0) sample paths.
    The frame loops of all paths are one ``eval_holonomy`` batch, and their
    transport equations are solved on one integration plan, which reads
    the reconstruction driving them as its 1-form on the lattice
    velocities, one batch per kernel call, 2 difference loops per sample in
    any dimension (no Richardson step).  The nodes, and the paths, are
    checked as one batch; only if it raises are they checked one at a
    time, so that each failure names its node, or the start of its path.
    """
    tolerances = dict(tolerances or {})
    dim = A_in.dim
    _check_steps(transport_steps)  # raised here, not recorded as a failure of every sample path
    _check_count(transport_paths, "the number of transport paths", 0)
    h_map = HolonomyMap.transport(A_in, psi.basepoint, steps_per_segment)
    A_rec = reconstructed_connection(h_map, psi, cfg)
    gfield = _relating_gauge_field(A_in, psi, steps_per_segment)
    nodes = grid.nodes(dim)
    failures: list[tuple] = []

    def node_defects(xs):
        """Worst curvature and gauge defects at each of an (m, dim) array of nodes."""
        g = _check_group(A_in.spec, gfield(xs))
        g_inv = _inverse(A_in.spec, g)
        curv = gauge = np.zeros(len(xs))
        for mu in range(dim):
            for nu in range(mu + 1, dim):
                diff = curvature(A_rec, xs, mu, nu, cfg) - g_inv @ curvature(A_in, xs, mu, nu, cfg) @ g
                curv = np.maximum(curv, _norms(diff))
        for mu in range(dim):
            diff = A_rec.rule(xs, mu) - gauge_transform_potential(A_in, gfield, xs, mu, cfg)
            gauge = np.maximum(gauge, _norms(diff))
        return curv, gauge

    # All nodes in one batch; only if that raises, node by node, so that
    # each failure names its node.
    try:
        curv, gauge = node_defects(nodes)
    except (ValueError, ArithmeticError):
        curv, gauge = np.zeros((2, len(nodes)))
        for k, x in enumerate(nodes):
            try:
                (curv[k],), (gauge[k],) = node_defects(x[None])
            except (ValueError, ArithmeticError) as exc:
                failures.append((x.tolist(), type(exc).__name__, str(exc)))
    max_curv, max_gauge = float(np.max(curv)), float(np.max(gauge))

    # Transport cross-check on sample paths; the reconstruction used to
    # drive the transport equation skips Richardson (its h^2 bias is far
    # below the comparison tolerance and it halves the holonomy count).
    A_drive = reconstructed_connection(h_map, psi, FdConfig(h=cfg.h, richardson=False, curvature_h=cfg.curvature_h))
    rng = np.random.default_rng(seed)
    ident = GroupElement.identity(A_in.spec)
    span = 0.25 * (grid.hi - grid.lo)
    starts, paths = [], []
    for _ in range(transport_paths):
        starts.append(rng.uniform(grid.lo + span, grid.hi - span, size=dim))
        paths.append(random_polyline(rng, starts[-1], n_segments=2, radius=span))

    def transport_defects(paths):
        """Distance of holonomy-only from ODE transport of the identity along each path."""
        by_holonomy = horizontal_transport(h_map, psi, paths, ident, 1.0)
        u = _Plan(A_drive, stack_tables(paths)).products(transport_steps)
        by_ode = [GroupElement(A_in.spec, project_to_group(A_in.spec, m @ ident.matrix)) for m in u]
        return [group_distance(GroupElement(A_in.spec, a), b) for a, b in zip(by_holonomy, by_ode)]

    try:
        transport = transport_defects(paths) if paths else []
    except (ValueError, ArithmeticError):
        transport = []
        for start, p in zip(starts, paths):
            try:
                transport += transport_defects([p])
            except (ValueError, ArithmeticError) as exc:
                failures.append((start.tolist(), type(exc).__name__, str(exc)))
    return RoundTripReport(
        grid.describe(dim), max_curv, max_gauge, float(np.max(transport, initial=0.0)), tolerances, tuple(failures)
    )


def potential_grid_csv(values, grid: GridSpec) -> str:
    """CSV dump of a potential: values[mu] is the (m, d, d) stack of A_mu
    at the m nodes of ``grid.nodes(len(values))``.  Header
    ``x1,..,xn,mu,re_0_0,im_0_0,..`` with row-major matrix entries; floats
    carry 17 significant digits.
    """
    values = np.asarray(values, dtype=complex)
    dim, d = len(values), values.shape[-1]
    entries = [f"{part}_{r}_{c}" for r in range(d) for c in range(d) for part in ("re", "im")]
    lines = [",".join([f"x{k + 1}" for k in range(dim)] + ["mu"] + entries)]
    nodes = grid.nodes(dim)
    if values.shape != (dim, len(nodes), d, d):
        raise ValueError(f"values of shape {values.shape} for {len(nodes)} nodes in R^{dim}")
    # Python floats format as numpy's float64 do: a template of one node's
    # dim rows, with mu literal, fills the whole body in one format call.
    x_row, entry_row = (",".join(["{:.17g}"] * k) for k in (dim, 2 * d * d))
    node = "\n".join(f"{x_row},{mu},{entry_row}" for mu in range(dim))
    parts = np.stack([values.real, values.imag], axis=-1).reshape(dim, len(nodes), 2 * d * d).transpose(1, 0, 2)
    rows = np.concatenate([np.broadcast_to(nodes[:, None], (len(nodes), dim, dim)), parts], axis=2)
    return "\n".join(lines + [node] * len(nodes)).format(*rows.ravel().tolist()) + "\n"
