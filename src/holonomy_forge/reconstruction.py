"""Recovering the gauge potential and connection form from a holonomy map.

The central operation differentiates holonomies of frame-conjugated
straight-shift loops: with a reference frame psi and the straight segment
T from x to y,

    A_mu(x) = d/dy_mu  log H( psi[y]^{-1} o T o psi[x] )  at  y = x.

Derivatives are taken as central differences with one optional Richardson
extrapolation step (h and h/2), giving observed order ~4; the error
budget is explicit and owned by ``FdConfig``.  ``reconstruct_potential``
takes many points of one direction at once and sends all their difference
loops through the holonomy kernel as one batch; ``PotentialField``
memoizes the values and hands its batch method on as a connection rule.

The same difference quotient, applied to a general trivialized curve (a
moving reference path chi[i] plus a moving fiber value g(i)), evaluates
the connection 1-form on arbitrary tangent vectors; horizontality and
frame covariance are then checkable properties rather than axioms.

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
    FarFromIdentity,
    GroupElement,
    GroupSpec,
    exp_map,
    group_distance,
    log_map,
    project_to_algebra,
    project_to_group,
)
from .holonomy import (
    BasepointMismatch,
    ConnectionField,
    HolonomyMap,
    _check_based,
    _holonomy_matrices,
    _line_integrals,
    _transport_products,
    eval_holonomy,
    eval_holonomies,
    transport_along,
)
from .path_algebra import (
    LoopAtBase,
    PathFamily,
    PathNd,
    _as_points,
    compose_paths,
    constant_path,
    contract,
    invert_path,
    random_polyline,
    reconstruction_chains,
    straight_segment,
    thin_reduce,
)
from .segment_table import table_batch

__all__ = [
    "StepTooLarge",
    "FdConfig",
    "PotentialField",
    "TrivializedCurve",
    "GridSpec",
    "RoundTripReport",
    "reconstruct_potential",
    "connection_form_action",
    "horizontal_transport",
    "transition_function",
    "gauge_transform_potential",
    "curvature",
    "round_trip_report",
    "potential_grid_csv",
]


# Difference loops are built and evaluated this many at a time, which
# bounds the segment tables and frame paths held at once (the 676 loops of
# a 13x13 grid held together peaked 0.8 MB higher) and keeps kernel
# batches full.
_LOOPS_PER_BLOCK = 128


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
        if self.curvature_h < self.h:
            raise ValueError("curvature_h must be at least h")


def _thin_loop(path: PathNd, basepoint) -> LoopAtBase:
    # Reduction keeps integrators away from degenerate zero-length pieces
    # (e.g. the constant frame path at the base point itself).
    return LoopAtBase(thin_reduce(path), basepoint)


def _logs_for_difference(spec: GroupSpec, hols: np.ndarray) -> np.ndarray:
    """Logarithms of a (k, d, d) stack of holonomies, guarded by the
    difference-quotient trust region.

    Difference quotients are only meaningful for near-identity arguments,
    independent of whether the group's own logarithm happens to extend
    further (it does for the positive reals).
    """
    dist = np.linalg.norm(hols - np.eye(spec.matrix_dim), axis=(-2, -1))
    far = np.flatnonzero(dist >= 0.5)
    if far.size:
        raise StepTooLarge(f"holonomy is {dist[far[0]]:.3g} from the identity; reduce cfg.h")
    try:
        return log_map(hols, spec)
    except FarFromIdentity as exc:  # same trust radius, defensive
        raise StepTooLarge(f"reduce cfg.h: {exc}") from exc


def reconstruct_potential(
    h_map: HolonomyMap, psi: PathFamily, x, mu: int, cfg: FdConfig = FdConfig()
):
    """Gauge potential component A_mu(x) recovered from holonomies only.

    Central difference of log H over straight shifts of x along axis mu,
    with one Richardson step when configured.  ``x`` is one point, giving
    an ``AlgebraElement``, or an (m, dim) array of points, giving a list of
    m of them; either way the difference loops of all points are built as
    flat segment tables and evaluated in batches, with no per-point work.
    Raises ``StepTooLarge`` if the holonomy of any difference loop leaves
    the logarithm trust region.
    """
    x = np.asarray(x, dtype=float)
    xs = np.atleast_2d(x)
    spec = h_map.spec
    _check_based(h_map, psi.dim, psi.basepoint)
    step = np.zeros(xs.shape[1])
    step[mu] = 1.0
    hs = (cfg.h, cfg.h / 2.0) if cfg.richardson else (cfg.h,)
    shifts = np.array([sign * h * step for h in hs for sign in (+1.0, -1.0)])
    xs_rep = np.repeat(xs, len(shifts), axis=0)
    ys = (xs[:, None, :] + shifts).reshape(-1, xs.shape[1])
    blocks = []
    for k in range(0, len(ys), _LOOPS_PER_BLOCK):
        chains = reconstruction_chains(psi, xs_rep[k : k + _LOOPS_PER_BLOCK], ys[k : k + _LOOPS_PER_BLOCK])
        blocks.append(_logs_for_difference(spec, _holonomy_matrices(h_map, chains)))
    logs = np.concatenate(blocks)
    logs = logs.reshape((len(xs), len(shifts)) + logs.shape[1:])
    d = (logs[:, 0] - logs[:, 1]) / (2.0 * cfg.h)
    if cfg.richardson:
        d = (4.0 * ((logs[:, 2] - logs[:, 3]) / (2.0 * hs[1])) - d) / 3.0
    out = [AlgebraElement(spec, a) for a in project_to_algebra(spec, d)]
    return out if x.ndim == 2 else out[0]


class PotentialField:
    """A gauge potential evaluatable at (point, direction).

    Either wraps a closed-form connection or reconstructs lazily from a
    holonomy map and frame, memoizing per (point, direction).
    ``evaluator(points, mu)`` takes an (m, dim) array of points and returns
    m values; a single point is a batch of one.
    """

    def __init__(self, dim: int, spec: GroupSpec, evaluator, label: str = ""):
        self.dim = dim
        self.spec = spec
        self._evaluator = evaluator
        self.label = label
        self._memo: dict = {}

    @classmethod
    def from_connection(cls, field: ConnectionField) -> "PotentialField":
        # Point by point: the rule's product over many rows need not round
        # like its batch of one, which ``component`` evaluates.
        return cls(field.dim, field.spec, lambda xs, mu: [field.component(x, mu) for x in xs], "closed-form")

    @classmethod
    def from_holonomy(
        cls, h_map: HolonomyMap, psi: PathFamily, cfg: FdConfig = FdConfig()
    ) -> "PotentialField":
        return cls(
            h_map.field.dim, h_map.spec, lambda xs, mu: reconstruct_potential(h_map, psi, xs, mu, cfg), "reconstructed"
        )

    def __call__(self, x, mu: int) -> AlgebraElement:
        (x,) = _as_points(x, self.dim)
        key = (x.tobytes(), mu)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._evaluator(x[None], mu)[0]
            self._memo[key] = hit
        return hit

    def matrix(self, x, mu: int) -> np.ndarray:
        return self(x, mu).matrix

    def matrices(self, points, mu: int) -> np.ndarray:
        """Values at an (m, dim) array of points for one direction, as an
        (m, d, d) array, memoized like single-point calls.

        The points not yet memoized are evaluated in one batch.  If the
        batch raises, they are evaluated again one at a time, so the error
        raised and the values memoized are those of single-point calls in
        order.
        """
        pts = np.ascontiguousarray(_as_points(points, self.dim))
        keys = [(x.tobytes(), mu) for x in pts]
        missing = {key: x for key, x in zip(keys, pts) if key not in self._memo}
        if missing:
            try:
                self._memo.update(zip(missing, self._evaluator(np.array(list(missing.values())), mu)))
            except (ValueError, ArithmeticError):
                for x in missing.values():
                    self(x, mu)
        return np.stack([self._memo[key].matrix for key in keys])

    def to_connection_field(self) -> ConnectionField:
        return ConnectionField(self.dim, self.spec, self.matrices)


@dataclass(frozen=True, eq=False)
class TrivializedCurve:
    """A curve in the trivialized bundle: moving reference path + fiber value.

    ``chi(i)`` is a path from the base point to the moving foot point
    p(i) = chi(i)(1); ``g(i)`` the fiber value; ``base_curve`` realizes p
    as an explicit path so contractions of it can be formed.  The
    parameter interval must sit inside [0, 1] unless the foot point never
    moves (vertical curves), where contraction is trivial.
    """

    interval: tuple[float, float]
    chi: Callable[[float], PathNd]
    g: Callable[[float], GroupElement]
    base_curve: PathNd

    def __post_init__(self):
        lo, hi = self.interval
        if not lo < hi:
            raise ValueError("empty parameter interval")
        vertical = self.base_curve.is_constant()
        if not vertical and (lo < 0.0 or hi > 1.0):
            raise ValueError("moving curves need a parameter interval inside [0, 1]")
        anchor = self.chi(lo).point(0.0)
        for i in np.linspace(lo, hi, 5):
            ref_path = self.chi(float(i))
            if np.linalg.norm(ref_path.point(0.0) - anchor) > 1e-10 * (1.0 + np.max(np.abs(anchor))):
                raise ValueError("all chi(i) must start at the same base point")
            foot = ref_path.point(1.0)
            ref = self.base_curve.point(0.0 if vertical else float(i))
            if np.linalg.norm(foot - ref) > 1e-10 * (1.0 + np.max(np.abs(ref))):
                raise ValueError("chi(i) must end at the base curve point p(i)")

    @property
    def basepoint(self) -> np.ndarray:
        return self.chi(self.interval[0]).point(0.0)

    def loop_between(self, j: float, i: float) -> LoopAtBase:
        """The based loop chi(i)^{-1} o K(p,i) o K(p,j)^{-1} o chi(j)."""
        if self.base_curve.is_constant():
            ki = kj = self.base_curve
        else:
            ki, kj = contract(self.base_curve, i), contract(self.base_curve, j)
        path = compose_paths(invert_path(kj), self.chi(j))
        path = compose_paths(ki, path)
        path = compose_paths(invert_path(self.chi(i)), path)
        return _thin_loop(path, self.basepoint)

    @classmethod
    def vertical(cls, psi: PathFamily, x, g_of_i, halfwidth: float = 0.25) -> "TrivializedCurve":
        """Curve moving only in the fiber over a fixed point."""
        x = np.asarray(x, dtype=float)
        ref = psi[x]
        return cls((-halfwidth, halfwidth), lambda i: ref, g_of_i, constant_path(x))

    @classmethod
    def coordinate_shift(cls, psi: PathFamily, x, mu: int, spec: GroupSpec, span: float = 1.0) -> "TrivializedCurve":
        """Straight motion through x along axis mu with constant fiber value;
        the midpoint parameter 1/2 corresponds to x itself."""
        x = np.asarray(x, dtype=float)
        step = np.zeros_like(x)
        step[mu] = span
        base = straight_segment(x - 0.5 * step, x + 0.5 * step)
        ident = GroupElement.identity(spec)
        return cls((0.0, 1.0), lambda i: psi[base.point(i)], lambda i: ident, base)

    @classmethod
    def horizontal_lift(cls, h_map: HolonomyMap, psi: PathFamily, p: PathNd, g0: GroupElement) -> "TrivializedCurve":
        """The lift of p obtained by holonomy-only transport of g0."""
        return cls(
            (0.0, 1.0),
            lambda i: psi[p.point(i)],
            lambda i: horizontal_transport(h_map, psi, p, g0, i),
            p,
        )

    def right_translated(self, g0: GroupElement) -> "TrivializedCurve":
        """Same curve with fiber values multiplied by g0 on the right."""
        return TrivializedCurve(self.interval, self.chi, lambda i: self.g(i) @ g0, self.base_curve)


def connection_form_action(
    h_map: HolonomyMap, curve: TrivializedCurve, j: float, cfg: FdConfig = FdConfig()
) -> AlgebraElement:
    """Connection 1-form applied to the tangent of a trivialized curve at j.

    Central difference over i of log( g(j)^{-1} H(loop(j, i)) g(i) ); the
    argument is the identity at i = j, so the quotient lands in the
    algebra.
    """
    lo, hi = curve.interval
    if not lo < j < hi:
        raise ValueError("evaluation parameter must be interior to the curve interval")
    if j - cfg.h < lo or j + cfg.h > hi:
        raise StepTooLarge("cfg.h exceeds the distance from j to the interval ends")
    spec = h_map.spec
    gj_inv = curve.g(j).inverse().matrix

    def value(i: float) -> np.ndarray:
        hol = eval_holonomy(h_map, curve.loop_between(j, i))
        m = gj_inv @ hol.matrix @ curve.g(i).matrix
        return _logs_for_difference(spec, GroupElement(spec, project_to_group(spec, m)).matrix[None])[0]

    def difference(h: float) -> np.ndarray:
        return (value(j + h) - value(j - h)) / (2.0 * h)

    d = difference(cfg.h)
    if cfg.richardson:
        d = (4.0 * difference(cfg.h / 2.0) - d) / 3.0
    return AlgebraElement(spec, project_to_algebra(spec, d))


def horizontal_transport(
    h_map: HolonomyMap, psi: PathFamily, p: PathNd, g0: GroupElement, i: float
) -> GroupElement:
    """Parallel transport of g0 along p expressed purely through holonomies.

    The transported value is H( (K(p,i) o psi[p(0)])^{-1} o psi[p(i)] ) g0;
    at i = 0 the loop is thin, so the initial value comes out exactly.
    """
    reach = compose_paths(contract(p, i), psi[p.point(0.0)])
    loop = compose_paths(invert_path(reach), psi[p.point(float(i))])
    hol = eval_holonomy(h_map, _thin_loop(loop, psi.basepoint))
    return hol @ g0


def transition_function(h_map: HolonomyMap, psi: PathFamily, psi2: PathFamily, x):
    """Frame-change value H( psi2[x]^{-1} o psi[x] ).

    Multiplying on the left by this value (and adding its logarithmic
    derivative) carries the psi-frame potential into the psi2-frame one;
    swapping the arguments yields the inverse element.  ``x`` is one point,
    giving a ``GroupElement``, or an (m, dim) array of points, giving a
    list of m of them from one holonomy batch.
    """
    if np.linalg.norm(psi.basepoint - psi2.basepoint) > 1e-12 * (1.0 + np.max(np.abs(psi.basepoint))):
        raise BasepointMismatch("frames must share a base point")
    x = np.asarray(x, dtype=float)
    loops = [_thin_loop(compose_paths(invert_path(psi2[y]), psi[y]), psi.basepoint) for y in np.atleast_2d(x)]
    out = eval_holonomies(h_map, loops)
    return out if x.ndim == 2 else out[0]


def gauge_transform_potential(
    A: PotentialField, gfield: Callable[[np.ndarray], list], x, mu: int, cfg: FdConfig = FdConfig()
):
    """Transform a potential by a group-valued field:
    g^{-1} A_mu g + g^{-1} d_mu g, the derivative by central difference.

    ``gfield(points)`` maps an (m, dim) array to m ``GroupElement``s and is
    called once, on the points and their shifts along axis mu.  ``x`` is
    one point, giving an ``AlgebraElement``, or an (m, dim) array, giving a
    list; ``StepTooLarge`` if the field varies too fast at any point.
    """
    x = np.asarray(x, dtype=float)
    xs = np.atleast_2d(x)
    step = np.eye(xs.shape[1])[mu]
    hs = (cfg.h, cfg.h / 2.0) if cfg.richardson else (cfg.h,)
    gs = gfield(np.concatenate([xs, *(xs + sign * h * step for h in hs for sign in (+1.0, -1.0))]))
    g_inv = np.stack([g.inverse().matrix for g in gs[: len(xs)]])
    g = np.stack([g.matrix for g in gs]).reshape((-1,) + g_inv.shape)

    def dg(k: int) -> np.ndarray:
        plus, minus = g[2 * k + 1], g[2 * k + 2]
        if np.any(np.linalg.norm(plus - minus, axis=(-2, -1)) > 1.0):
            raise StepTooLarge("gauge field varies too fast at the difference scale")
        return (plus - minus) / (2.0 * hs[k])

    d = dg(0)
    if cfg.richardson:
        d = (4.0 * dg(1) - d) / 3.0
    out = g_inv @ A.matrices(xs, mu) @ g[0] + g_inv @ d
    out = [AlgebraElement(A.spec, a) for a in project_to_algebra(A.spec, out)]
    return out if x.ndim == 2 else out[0]


def curvature(A: PotentialField, x, mu: int, nu: int, cfg: FdConfig = FdConfig()):
    """Field strength F_munu = d_mu A_nu - d_nu A_mu + [A_mu, A_nu].

    Central differences with step ``cfg.curvature_h``; the formula is
    literally antisymmetric, so swapping (mu, nu) negates the value
    exactly.  ``x`` is one point, giving an ``AlgebraElement``, or an
    (m, dim) array, giving a list; A is evaluated in one ``matrices`` call
    per direction.
    """
    x = np.asarray(x, dtype=float)
    xs = np.atleast_2d(x)
    ch = cfg.curvature_h
    e = np.eye(xs.shape[1])

    def stencil(a: int, b: int):
        # d_a A_b and A_b at the points, from A_b at x + ch e_a, x - ch e_a, x.
        plus, minus, mid = np.split(A.matrices(np.concatenate([xs + ch * e[a], xs - ch * e[a], xs]), b), 3)
        return (plus - minus) / (2.0 * ch), mid

    d_mu_a_nu, a_nu = stencil(mu, nu)
    d_nu_a_mu, a_mu = stencil(nu, mu)
    f = d_mu_a_nu - d_nu_a_mu + a_mu @ a_nu - a_nu @ a_mu
    out = [AlgebraElement(A.spec, m) for m in project_to_algebra(A.spec, f)]
    return out if x.ndim == 2 else out[0]


@dataclass(frozen=True)
class GridSpec:
    """Uniform lattice over a shared per-axis box."""

    lo: float
    hi: float
    resolution: int

    def __post_init__(self):
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2")
        if not self.lo < self.hi:
            raise ValueError("empty box")

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
    radial-frame reconstruction, as a batch function of an (m, dim) array
    of points: transport of the identity along the frame paths
    (closed-form quadrature in the abelian case)."""
    spec = A_in.spec

    def gfield(points) -> list:
        batch = table_batch(*psi.tables(points))
        if spec.is_abelian:
            zs = -_line_integrals(A_in, batch)
            return [exp_map(AlgebraElement(spec, project_to_algebra(spec, np.array([[z]])))) for z in zs]
        return [GroupElement(spec, project_to_group(spec, u)) for u in _transport_products(A_in, batch, steps)]

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
    potential along sample paths.  Failures are reported per grid node and
    per sample path.
    """
    tolerances = dict(tolerances or {})
    dim = A_in.dim
    h_map = HolonomyMap.transport(A_in, psi.basepoint, steps_per_segment)
    A_rec = PotentialField.from_holonomy(h_map, psi, cfg)
    A_in_pf = PotentialField.from_connection(A_in)
    gfield = _relating_gauge_field(A_in, psi, steps_per_segment)
    nodes = grid.nodes(dim)
    failures: list[tuple] = []

    def node_defects(xs):
        """Worst curvature and gauge defects at each of an (m, dim) array of nodes."""
        gs = gfield(xs)
        g_inv = [g.inverse().matrix for g in gs]
        curv = gauge = np.zeros(len(xs))
        for mu in range(dim):
            for nu in range(mu + 1, dim):
                rows = zip(curvature(A_rec, xs, mu, nu, cfg), curvature(A_in_pf, xs, mu, nu, cfg), g_inv, gs)
                curv = np.maximum(curv, [np.linalg.norm(r.matrix - gi @ i.matrix @ g.matrix) for r, i, gi, g in rows])
        for mu in range(dim):
            expected = gauge_transform_potential(A_in_pf, gfield, xs, mu, cfg)
            gauge = np.maximum(gauge, [np.linalg.norm(a - e.matrix) for a, e in zip(A_rec.matrices(xs, mu), expected)])
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
    A_drive = PotentialField.from_holonomy(
        h_map, psi, FdConfig(h=cfg.h, richardson=False, curvature_h=cfg.curvature_h)
    ).to_connection_field()
    rng = np.random.default_rng(seed)
    ident = GroupElement.identity(A_in.spec)
    span = 0.25 * (grid.hi - grid.lo)
    max_transport = 0.0
    for _ in range(transport_paths):
        start = rng.uniform(grid.lo + span, grid.hi - span, size=dim)
        p = random_polyline(rng, start, n_segments=2, radius=span)
        try:
            by_holonomy = horizontal_transport(h_map, psi, p, ident, 1.0)
            by_ode = transport_along(A_drive, p, ident, transport_steps)
            max_transport = max(max_transport, group_distance(by_holonomy, by_ode))
        except (ValueError, ArithmeticError) as exc:
            failures.append((start.tolist(), type(exc).__name__, str(exc)))
    return RoundTripReport(
        grid.describe(dim), max_curv, max_gauge, max_transport, tolerances, tuple(failures)
    )


def potential_grid_csv(pf: PotentialField, grid: GridSpec) -> str:
    """CSV dump of a potential over a grid.

    Header ``x1,..,xn,mu,re_0_0,im_0_0,..`` with row-major matrix entries;
    floats carry 17 significant digits.
    """
    dim = pf.dim
    d = pf.spec.matrix_dim
    cols = [f"x{k + 1}" for k in range(dim)] + ["mu"]
    for r in range(d):
        for c in range(d):
            cols += [f"re_{r}_{c}", f"im_{r}_{c}"]
    lines = [",".join(cols)]
    nodes = grid.nodes(dim)
    values = [pf.matrices(nodes, mu) for mu in range(dim)]
    for k, x in enumerate(nodes):
        for mu in range(dim):
            m = np.asarray(values[mu][k], dtype=complex).reshape(-1)
            vals = [f"{v:.17g}" for v in x] + [str(mu)]
            for entry in m:
                vals += [f"{entry.real:.17g}", f"{entry.imag:.17g}"]
            lines.append(",".join(vals))
    return "\n".join(lines) + "\n"
