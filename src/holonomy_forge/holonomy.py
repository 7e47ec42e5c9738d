"""Holonomy maps and executable checks of the loop-space laws.

A holonomy map sends loops at a fixed base point into a matrix Lie group.
Two backends are provided:

* ``analytic_abelian`` -- for one-dimensional (commuting) groups the
  holonomy is exp of the line integral of the connection along the loop,
  evaluated segmentwise with 32-point Gauss-Legendre quadrature;
* ``transport`` -- parallel transport: solve u'(i) = -A(b(i)) b'(i) u(i),
  u(0) = 1, with classical RK4 (order 4) written as the ordered product
  of its step propagators, each projected onto the group, and set
  H(loop) = u(1)^{-1}.  One vectorized kernel serves every group; a
  propagator that leaves the positive reals raises ``IntegrationError``.

Both backends evaluate loops in batches (``eval_holonomies``): each
distinct smooth piece of a batch (keyed on its exact control points and
time map, so pieces shared between loops count once) is integrated once,
and the per-piece results are reduced per loop; ``eval_holonomy`` is the
batch of one.  The randomized audit builds every loop of a law first and
evaluates each law as one batch.

The inverse in the transport convention makes composition come out as
H(alpha o beta) = H(beta) H(alpha) (beta traversed first), and for
commuting groups it reduces to H = exp(+ integral), matching the analytic
backend.

The three loop-space laws are checked as numbers, not booleans: each
checker returns a defect the caller compares against its own tolerance.
Smoothness of loop families is proxied by a normalized second difference
on a grid -- the only finitely decidable surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import numpy.random  # numpy loads it lazily; the audit and round trip draw from it

from .lie_core import (
    AlgebraElement,
    GroupElement,
    GroupName,
    GroupSpec,
    group_distance,
    project_to_algebra,
    project_to_group,
)
from .path_algebra import (
    LoopAtBase,
    _as_points,
    compose_paths,
    invert_path,
    piecewise_power_map,
    random_polygon_loop,
    random_polyline,
    reconstruction_loop,
    reparametrize,
)
from .segment_table import Batch, sample_pieces, stack_tables

__all__ = [
    "DimMismatch",
    "BasepointMismatch",
    "IntegrationError",
    "ConnectionField",
    "HolonomyMap",
    "AxiomReport",
    "eval_holonomy",
    "eval_holonomies",
    "transport_along",
    "check_axiom1",
    "check_axiom2",
    "check_axiom3",
    "audit_axioms",
]

# 32-point Gauss-Legendre nodes and weights on [-1, 1], bit for bit those
# of SciPy's roots_legendre(32) (numpy's leggauss differs in the last bits).
_nodes = np.array([float.fromhex(h) for h in """
    -0x1.fe995e70409b6p-1 -0x1.f8a212714bcdcp-1 -0x1.edf5518053baap-1 -0x1.deac0259f7f42p-1
    -0x1.caea9b4574cb9p-1 -0x1.b2e04fd686a12p-1 -0x1.96c69481c4bc4p-1 -0x1.76e0931d693bap-1
    -0x1.537a89c487f8ap-1 -0x1.2ce9146962ca4p-1 -0x1.038862866b29ep-1 -0x1.af76b57c6f8f2p-2
    -0x1.53d55ce57bdf6p-2 -0x1.ea0f7e19c094cp-3 -0x1.27e0ea717f235p-3 -0x1.8bbc8488cc49cp-5
    0x1.8bbc8488cc49cp-5 0x1.27e0ea717f235p-3 0x1.ea0f7e19c094cp-3 0x1.53d55ce57bdf6p-2
    0x1.af76b57c6f8f2p-2 0x1.038862866b29ep-1 0x1.2ce9146962ca4p-1 0x1.537a89c487f8ap-1
    0x1.76e0931d693bap-1 0x1.96c69481c4bc4p-1 0x1.b2e04fd686a12p-1 0x1.caea9b4574cb9p-1
    0x1.deac0259f7f42p-1 0x1.edf5518053baap-1 0x1.f8a212714bcdcp-1 0x1.fe995e70409b6p-1
""".split()])
_weights = np.array([float.fromhex(h) for h in """
    0x1.cbf8bc743dfd5p-8 0x1.0aa3c248694f0p-6 0x1.a0060a8531f15p-6 0x1.18c5800a35559p-5
    0x1.5ee963a3354e0p-5 0x1.a1c6ae961fc05p-5 0x1.e0bd76c9249a4p-5 0x1.0d9b9a62cabebp-4
    0x1.2854103b35e0bp-4 0x1.40483e126fd09p-4 0x1.553ee25ebebb2p-4 0x1.6705e18e13ec9p-4
    0x1.7572bdb3f6e3fp-4 0x1.8062fc0f6feeep-4 0x1.87bc776f8c6c8p-4 0x1.8b6d9eaec779ep-4
    0x1.8b6d9eaec779ep-4 0x1.87bc776f8c6c8p-4 0x1.8062fc0f6feeep-4 0x1.7572bdb3f6e3fp-4
    0x1.6705e18e13ec9p-4 0x1.553ee25ebebb2p-4 0x1.40483e126fd09p-4 0x1.2854103b35e0bp-4
    0x1.0d9b9a62cabebp-4 0x1.e0bd76c9249a4p-5 0x1.a1c6ae961fc05p-5 0x1.5ee963a3354e0p-5
    0x1.18c5800a35559p-5 0x1.a0060a8531f15p-6 0x1.0aa3c248694f0p-6 0x1.cbf8bc743dfd5p-8
""".split()])
_GL_NODES = 0.5 * (_nodes + 1.0)
_GL_WEIGHTS = 0.5 * _weights

# Lattice samples per kernel call.  Distinct pieces are cut into chunks at
# piece boundaries so that the (samples, d, d) temporaries stay below about
# 1 MB for any batch size; at 4096 an SU(2) grid reconstruction already
# peaks 0.5 MB higher, with no gain in speed.
_KERNEL_SAMPLES = 2048


class DimMismatch(ValueError):
    """Loop and holonomy map live in different dimensions."""


class BasepointMismatch(ValueError):
    """Loop is pinned at a different base point than the holonomy map."""


class IntegrationError(ArithmeticError):
    """A transport step left the positive reals, or a holonomy or transport
    value came out infinite or nan (or, 1x1, 0) because a double cannot hold
    it; neither is clamped."""


class ConnectionField:
    """Algebra-valued connection components A_mu(x) on R^n.

    ``rule(points, mu)`` must be a pure function of an (m, dim) array of
    points returning a new (m, d, d) array of algebra matrices, which the
    integrators scale in place; ``component(x, mu)`` is the batch of one.
    """

    def __init__(self, dim: int, spec: GroupSpec, rule):
        self.dim = int(dim)
        self.spec = spec
        self.rule = rule

    @classmethod
    def zero(cls, dim: int, spec: GroupSpec) -> "ConnectionField":
        d = spec.matrix_dim
        return cls(dim, spec, lambda points, mu: np.zeros((len(points), d, d), dtype=spec.dtype))

    @classmethod
    def from_matrix_rule(cls, dim: int, spec: GroupSpec, matrix_rule) -> "ConnectionField":
        """A connection from a per-point ``matrix_rule(x, mu)``, each value
        projected onto the algebra and checked."""

        def rule(points, mu):
            return np.stack([AlgebraElement.from_matrix(spec, matrix_rule(x, mu)).matrix for x in points])

        return cls(dim, spec, rule)

    @classmethod
    def from_polynomial(cls, dim: int, spec: GroupSpec, components) -> "ConnectionField":
        """Polynomial components: components[mu] is a list of terms
        (coeff, exponents, basis_index) over the algebra basis, with a finite
        coefficient and one nonnegative exponent per coordinate; malformed
        terms raise ``ValueError``."""
        from .lie_core import algebra_basis

        d = spec.matrix_dim
        basis = np.array(algebra_basis(spec), dtype=spec.dtype).reshape(-1, d * d)
        terms = [list(components.get(mu, []) if isinstance(components, dict) else components[mu]) for mu in range(dim)]
        for term in (term for t in terms for term in t):
            coeff, exps, b = term
            malformed = b not in range(spec.algebra_dim) or len(exps) != dim or min(exps, default=0) < 0
            if malformed or not np.isfinite(coeff):
                raise ValueError(f"malformed term {term} for a {spec.name.value} connection on R^{dim}")
        # The basis elements each direction's terms use, and their rows.
        used = [sorted({b for _, _, b in t}) for t in terms]
        rows = [basis[u] for u in used]

        def rule(points, mu):
            # Coefficients per used basis element, then one product with
            # their rows: no (points, d, d) temporary per term.  (np.dot,
            # as matmul costs about 10 us more per call on these thin shapes.)
            pts = np.asarray(points, dtype=float)
            coef = np.zeros((pts.shape[0], len(used[mu])))
            for coeff, exps, b in terms[mu]:
                mono = np.ones(pts.shape[0])
                for k, e in enumerate(exps):
                    if e:
                        mono = mono * pts[:, k] ** e
                coef[:, used[mu].index(b)] += coeff * mono
            return np.dot(coef, rows[mu]).reshape(-1, d, d)

        return cls(dim, spec, rule)

    def component(self, x, mu: int) -> AlgebraElement:
        (x,) = _as_points(x, self.dim)
        return AlgebraElement.from_matrix(self.spec, self.rule(x[None, :], mu)[0])


@dataclass(frozen=True)
class _AnalyticAbelianBackend:
    field: ConnectionField


@dataclass(frozen=True)
class _TransportBackend:
    field: ConnectionField
    steps_per_segment: int


@dataclass(frozen=True, eq=False)
class HolonomyMap:
    """An evaluatable assignment of group elements to based loops."""

    spec: GroupSpec
    basepoint: np.ndarray
    backend: object

    def __post_init__(self):
        bp = np.array(self.basepoint, dtype=float)
        bp.setflags(write=False)
        object.__setattr__(self, "basepoint", bp)

    @classmethod
    def analytic_abelian(cls, field: ConnectionField, basepoint) -> "HolonomyMap":
        if not field.spec.is_abelian:
            raise ValueError("analytic backend requires a one-dimensional (abelian) group")
        return cls(field.spec, np.asarray(basepoint, dtype=float), _AnalyticAbelianBackend(field))

    @classmethod
    def transport(cls, field: ConnectionField, basepoint, steps_per_segment: int = 64) -> "HolonomyMap":
        if steps_per_segment < 1:
            raise ValueError("steps_per_segment must be positive")
        return cls(field.spec, np.asarray(basepoint, dtype=float), _TransportBackend(field, int(steps_per_segment)))

    @property
    def field(self) -> ConnectionField:
        return self.backend.field

    @property
    def kind(self) -> str:
        return "analytic_abelian" if isinstance(self.backend, _AnalyticAbelianBackend) else "transport"

    def __call__(self, loop: LoopAtBase) -> GroupElement:
        return eval_holonomy(self, loop)

    def with_steps(self, steps_per_segment: int) -> "HolonomyMap":
        if isinstance(self.backend, _AnalyticAbelianBackend):
            return self
        return HolonomyMap.transport(self.field, self.basepoint, steps_per_segment)


def _stacked_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Products of stacked tiny matrices as d broadcast multiply-adds:
    # numpy's matmul loop is several times slower on stacks of 2x2
    # complex matrices.
    out = x[..., :, :1] * y[..., :1, :]
    for j in range(1, x.shape[-1]):
        out += x[..., :, j : j + 1] * y[..., j : j + 1, :]
    return out


def _connection_along(field: ConnectionField, pts: np.ndarray, vels: np.ndarray) -> np.ndarray:
    """sum_mu A_mu(x) dx_mu/du at every sample, (pieces, samples, d, d)."""
    d = field.spec.matrix_dim
    flat, v = pts.reshape(-1, field.dim), vels.reshape(-1, field.dim)
    out = np.zeros((len(flat), d, d), dtype=np.complex128)
    if len(flat):
        for mu in range(field.dim):
            a = field.rule(flat, mu)
            a *= v[:, mu, None, None]
            out += a
    return out.reshape(pts.shape[:2] + (d, d))


def _per_piece(batch: Batch, u: np.ndarray, kernel) -> np.ndarray:
    """``kernel(points, velocities)`` on the samples at abscissae ``u`` of
    the rows (smooth pieces) of a batch, each distinct piece once; returns
    the per-piece results in traversal order.

    Pieces are the same piece when their kind flag, control-point bytes
    and time-map bytes (in a batch that has time maps) are equal, so a
    piece shared by several paths, or repeated in one, is sampled and
    integrated once (orientation is part of the bytes).  Distinct pieces
    reach the kernel in chunks of at most ``_KERNEL_SAMPLES`` samples cut
    at piece boundaries; the kernel treats each piece on its own, so no
    result depends on its batch.
    """
    cubic, ctrl, tmap, _ = batch
    # One flat byte row per piece: its flag, its control points, its time map.
    parts = [cubic[:, None].view(np.uint8), ctrl.reshape(-1, 4 * ctrl.shape[-1]).view(np.uint8)]
    if tmap is not None:
        parts.append(tmap.view(np.uint8))
    rows = np.concatenate(parts, axis=1)
    raw, w = rows.tobytes(), rows.shape[1]
    ids: dict = {}
    where = np.array([ids.setdefault(raw[k * w : (k + 1) * w], len(ids)) for k in range(len(rows))], dtype=np.intp)
    # Any occurrence represents its piece: equal keys mean equal bytes.
    rep = np.empty(len(ids), dtype=np.intp)
    rep[where] = np.arange(len(where))
    cap = max(1, _KERNEL_SAMPLES // len(u))
    results = [
        kernel(*sample_pieces(cubic[c], ctrl[c], None if tmap is None else tmap[c], u))
        for c in (rep[a : a + cap] for a in range(0, max(len(rep), 1), cap))
    ]
    return np.concatenate(results)[where]


def _line_integrals(field: ConnectionField, batch: Batch) -> np.ndarray:
    """Line integral of the (abelian) connection along every chain of a
    batch, by per-piece Gauss-Legendre quadrature (exact for the polynomial
    fields used in presets, since the per-piece integrand degree is far
    below 63)."""

    def kernel(pts, vels):
        return (_connection_along(field, pts, vels)[..., 0, 0] * _GL_WEIGHTS).sum(axis=1)

    counts = batch.counts
    totals = np.zeros(len(counts), dtype=np.complex128)
    np.add.at(totals, np.repeat(np.arange(len(counts)), counts), _per_piece(batch, _GL_NODES, kernel))
    return totals


def _ordered_products(p: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Ordered product of each consecutive run of ``counts`` factors, later
    factor on the left; an empty run gives the identity."""
    d = p.shape[-1]
    out = np.broadcast_to(np.eye(d, dtype=p.dtype), (len(counts), d, d)).copy()
    starts = np.cumsum(counts) - counts
    for k in range(int(counts.max(initial=0))):
        live = np.flatnonzero(counts > k)
        out[live] = _stacked_matmul(p[starts[live] + k], out[live])
    return out


def _transport_products(field: ConnectionField, batch: Batch, steps_per_segment: int) -> np.ndarray:
    """Solve u' = -A(b) b' u, u(0) = 1, over each whole chain of a batch;
    returns the (chains, d, d) stack of u(1).

    RK4 is linear in u, so step k is u -> P_k u with the propagator
    P_k = I + h/6 (K1 + 2 K2 + 2 K3 + K4), K1 = M1, K2 = M2 (I + h/2 K1),
    K3 = M2 (I + h/2 K2), K4 = M4 (I + h K3), where M1, M2, M4 are the
    coefficient -A(b) b' at the start, middle and end of the step.  For a
    group-valued u, projecting P_k u equals projecting P_k and multiplying
    by u, so per-step projection is kept and u(1) is the ordered product
    P_{N-1} ... P_0 of projected propagators.  Each smooth piece takes n
    steps in its local parameter (h = 1/n), and the coefficient is sampled
    once on the half-step lattice of every distinct piece in a batch.
    """
    spec = field.spec
    n = steps_per_segment
    h = 1.0 / n
    eye = np.eye(spec.matrix_dim)

    def kernel(pts, vels):
        m = -_connection_along(field, pts, vels)
        m1, m2, m4 = m[:, :-1:2], m[:, 1::2], m[:, 2::2]
        k2 = _stacked_matmul(m2, eye + 0.5 * h * m1)
        k3 = _stacked_matmul(m2, eye + 0.5 * h * k2)
        k4 = _stacked_matmul(m4, eye + h * k3)
        p = eye + (h / 6.0) * (m1 + 2.0 * k2 + 2.0 * k3 + k4)
        if spec.name is GroupName.MULTIPLICATIVE_REALS and np.any(p.real <= 0):
            raise IntegrationError(f"RK4 step propagator left the positive reals ({n} steps per piece)")
        p = project_to_group(spec, p)
        # Pairwise ordered product within each piece, later factor on the left.
        while p.shape[1] > 1:
            k = p.shape[1]
            p = np.concatenate([_stacked_matmul(p[:, 1::2], p[:, :-1:2]), p[:, k - k % 2 :]], axis=1)
        return p[:, 0]

    with np.errstate(over="ignore", invalid="ignore"):
        u = _ordered_products(_per_piece(batch, np.linspace(0.0, 1.0, 2 * n + 1), kernel), batch.counts)
    _check_representable(u, "the transport value u(1)")
    return u


def _check_based(h_map: HolonomyMap, dim: int, basepoint: np.ndarray):
    if dim != h_map.field.dim:
        raise DimMismatch(f"loop dimension {dim} != field dimension {h_map.field.dim}")
    scale = 1.0 + float(np.max(np.abs(h_map.basepoint)))
    if np.linalg.norm(basepoint - h_map.basepoint) > 1e-9 * scale:
        raise BasepointMismatch(
            f"loop based at {np.asarray(basepoint).tolist()} but map pinned at {h_map.basepoint.tolist()}"
        )


def _check_representable(values: np.ndarray, what: str):
    """``IntegrationError`` unless every matrix of a (paths, d, d) stack is
    finite and, if 1x1, nonzero."""
    bad = ~np.isfinite(values).all(axis=(-2, -1))
    if values.shape[-1] == 1:
        bad |= values[:, 0, 0] == 0
    k = np.flatnonzero(bad)
    if k.size and values.shape[-1] == 1:
        raise IntegrationError(f"{what} of loop {k[0]} is {values[k[0], 0, 0]}, which is not a finite nonzero double")
    if k.size:
        raise IntegrationError(f"{what} of loop {k[0]} has entries that are not finite")


def _holonomy_matrices(h_map: HolonomyMap, batch: Batch) -> np.ndarray:
    """Holonomy matrices, (chains, d, d), of a batch of closed chains at the
    map's base point; callers have checked dimension and base point.  A
    value a double cannot hold raises ``IntegrationError``, not a
    RuntimeWarning."""
    spec = h_map.spec
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(h_map.backend, _AnalyticAbelianBackend):
            h = np.exp(project_to_algebra(spec, _line_integrals(h_map.field, batch)[:, None, None]))
        else:
            h = np.linalg.inv(_transport_products(h_map.field, batch, h_map.backend.steps_per_segment))
    _check_representable(h, "the holonomy")
    return project_to_group(spec, h)


def eval_holonomies(h_map: HolonomyMap, loops) -> list[GroupElement]:
    """Evaluate the holonomies of many based loops as one batch.

    Each distinct smooth piece of the batch is sampled and integrated once,
    in kernel calls of a bounded number of lattice samples; a loop's value
    does not depend on the other loops of its batch, bit for bit.
    """
    loops = list(loops)
    for loop in loops:
        _check_based(h_map, loop.dim, loop.basepoint)
    if not loops:
        return []
    mats = _holonomy_matrices(h_map, stack_tables([loop.path for loop in loops]))
    return [GroupElement(h_map.spec, m) for m in mats]


def eval_holonomy(h_map: HolonomyMap, loop: LoopAtBase) -> GroupElement:
    """Evaluate the holonomy of a based loop (a batch of one)."""
    return eval_holonomies(h_map, [loop])[0]


def transport_along(field: ConnectionField, path, g0: GroupElement, steps_per_segment: int = 64) -> GroupElement:
    """Parallel transport of a fiber value along an open path.

    With the lift convention used here the endpoint value is u(1) g0,
    so transport around a closed loop returns H(loop)^{-1} g0.
    """
    u = _transport_products(field, stack_tables([path]), steps_per_segment)[0]
    return GroupElement(field.spec, project_to_group(field.spec, u @ g0.matrix))


def _composition_defects(h_map: HolonomyMap, pairs) -> list[float]:
    """|H(alpha o beta) - H(beta) H(alpha)| for every pair (alpha, beta),
    from one batch: the composed loop reuses the pieces of alpha and beta."""
    loops = []
    for alpha, beta in pairs:
        loops += [LoopAtBase(compose_paths(alpha.path, beta.path), alpha.basepoint), alpha, beta]
    hols = eval_holonomies(h_map, loops)
    return [group_distance(ab, b @ a) for ab, a, b in zip(hols[::3], hols[1::3], hols[2::3])]


def _thin_loop_defects(h_map: HolonomyMap, loops) -> list[float]:
    """Distance of H(loop) from the identity for every loop, one batch."""
    identity = GroupElement.identity(h_map.spec)
    return [group_distance(g, identity) for g in eval_holonomies(h_map, loops)]


def check_axiom1(h_map: HolonomyMap, alpha: LoopAtBase, beta: LoopAtBase) -> float:
    """Composition-law defect |H(alpha o beta) - H(beta) H(alpha)|."""
    return _composition_defects(h_map, [(alpha, beta)])[0]


def check_axiom2(h_map: HolonomyMap, loop: LoopAtBase) -> float:
    """Thin-loop defect: distance of H(loop) from the identity."""
    return _thin_loop_defects(h_map, [loop])[0]


def check_axiom3(h_map: HolonomyMap, family, grid: int, k: int = 1) -> float:
    """Smoothness proxy for a k-parameter loop family over [0, 1]^k.

    Evaluates H on a grid**k lattice, in one batch, and returns the largest
    normalized second difference |h(u+d e) - 2 h(u) + h(u-d e)| / d**2 over
    interior nodes and axes.  Small values indicate C2-like behavior at the
    grid scale; genuine smoothness is not finitely decidable.

    One-parameter families may take a bare float; for k > 1 the family
    receives a length-k array.
    """
    if grid < 3:
        raise ValueError("grid must have at least 3 nodes")
    if k < 1:
        raise ValueError("family dimension must be positive")
    us = np.linspace(0.0, 1.0, grid)
    delta = float(us[1] - us[0])
    shape = (grid,) * k
    loops = [family(float(us[idx[0]]) if k == 1 else us[list(idx)]) for idx in np.ndindex(shape)]
    d = h_map.spec.matrix_dim
    values = np.array([g.matrix for g in eval_holonomies(h_map, loops)]).reshape(shape + (d, d))
    worst = []
    for axis in range(k):
        v = np.moveaxis(values, axis, 0)
        second = (v[2:] - 2.0 * v[1:-1] + v[:-2]).reshape(-1, d, d)
        # One norm call per node: a stacked norm sums the squares in another
        # order and can differ in the last bit.
        worst += [float(np.linalg.norm(s)) / delta**2 for s in second]
    return float(np.max(worst))


@dataclass(frozen=True)
class AxiomReport:
    """Defect summary for the three loop-space laws."""

    axiom1_max_defect: float
    axiom2_max_defect: float
    axiom3_max_second_difference: float
    samples: int
    passed: tuple[bool, bool, bool]

    def to_json_dict(self) -> dict:
        return {
            "axiom1_max_defect": self.axiom1_max_defect,
            "axiom2_max_defect": self.axiom2_max_defect,
            "axiom3_max_second_difference": self.axiom3_max_second_difference,
            "samples": self.samples,
            "pass": list(self.passed),
        }

    @property
    def all_passed(self) -> bool:
        return all(self.passed)


def audit_axioms(
    h_map: HolonomyMap,
    *,
    samples: int,
    seed: int,
    tolerances: tuple[float, float, float],
    radius: float = 0.75,
    axiom3_family: Callable[[float], LoopAtBase] | None = None,
    axiom3_grid: int = 21,
) -> AxiomReport:
    """Seeded randomized audit of the three laws.

    Composition is tested on random polygon loop pairs, thin-loop
    triviality on out-and-back polylines (every other one reparametrized
    by a cubic-start time map), smoothness on the supplied family or on a
    default frame-conjugated straight-shift family.  All loops of a law
    are built first and evaluated as one batch.
    """
    if samples < 1:
        raise ValueError("an audit needs at least one sample")
    rng = np.random.default_rng(seed)
    base = h_map.basepoint
    pairs = []
    for _ in range(samples):
        alpha = random_polygon_loop(rng, base, n_vertices=4, radius=radius)
        beta = random_polygon_loop(rng, base, n_vertices=4, radius=radius)
        pairs.append((alpha, beta))
    a1 = np.max(_composition_defects(h_map, pairs), initial=0.0)
    thin = []
    phi = piecewise_power_map(3, 0.5)
    for k in range(samples):
        p = random_polyline(rng, base, n_segments=2, radius=radius)
        path = compose_paths(invert_path(p), p)
        if k % 2:
            path = reparametrize(path, phi)
        thin.append(LoopAtBase(path, base))
    a2 = np.max(_thin_loop_defects(h_map, thin), initial=0.0)
    if axiom3_family is None:
        from .path_algebra import radial_family

        psi = radial_family(base)
        anchor = base + 0.5 * np.ones_like(base)
        step = np.zeros_like(base)
        step[0] = 0.5
        axiom3_family = lambda u: reconstruction_loop(psi, anchor, anchor + u * step)
    a3 = check_axiom3(h_map, axiom3_family, axiom3_grid)
    t1, t2, t3 = tolerances
    return AxiomReport(
        float(a1), float(a2), float(a3), samples, (bool(a1 <= t1), bool(a2 <= t2), bool(a3 <= t3))
    )
