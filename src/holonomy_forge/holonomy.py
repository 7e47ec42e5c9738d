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

Both backends evaluate loops in batches (``eval_holonomies``): every
smooth piece of every loop in a batch is sampled once and fed to one
kernel call, and ``eval_holonomy`` is the batch of one.

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
from scipy.special import roots_legendre

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
    compose_paths,
    invert_path,
    piecewise_power_map,
    random_polygon_loop,
    random_polyline,
    reconstruction_loop,
    reparametrize,
)
from .segment_table import sample_pieces

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

_nodes, _weights = roots_legendre(32)
_GL_NODES = 0.5 * (_nodes + 1.0)
_GL_WEIGHTS = 0.5 * _weights

# Lattice samples per kernel call.  Batches are cut at loop boundaries so
# that the (samples, d, d) temporaries stay below about 1 MB for any batch
# size; at 4096 an SU(2) grid reconstruction already peaks 0.5 MB higher,
# with no gain in speed.
_KERNEL_SAMPLES = 2048


class DimMismatch(ValueError):
    """Loop and holonomy map live in different dimensions."""


class BasepointMismatch(ValueError):
    """Loop is pinned at a different base point than the holonomy map."""


class IntegrationError(ArithmeticError):
    """A transport step left the group instead of being clamped back."""


class ConnectionField:
    """Algebra-valued connection components A_mu(x) on R^n.

    ``component_rule(x, mu)`` must be a pure function returning an
    ``AlgebraElement``.  An optional vectorized ``batch_rule(points, mu)``
    returning an (m, d, d) array accelerates the integrators; results are
    identical either way.
    """

    def __init__(self, dim: int, spec: GroupSpec, component_rule, batch_rule=None):
        self.dim = int(dim)
        self.spec = spec
        self.component_rule = component_rule
        self.batch_rule = batch_rule

    @classmethod
    def zero(cls, dim: int, spec: GroupSpec) -> "ConnectionField":
        d = spec.matrix_dim

        def batch(points, mu):
            return np.zeros((len(points), d, d), dtype=spec.dtype)

        return cls(dim, spec, lambda x, mu: AlgebraElement.zero(spec), batch)

    @classmethod
    def from_matrix_rule(cls, dim: int, spec: GroupSpec, matrix_rule, batch_rule=None) -> "ConnectionField":
        def rule(x, mu):
            return AlgebraElement.from_matrix(spec, matrix_rule(np.asarray(x, float), mu))

        return cls(dim, spec, rule, batch_rule)

    @classmethod
    def from_polynomial(cls, dim: int, spec: GroupSpec, components) -> "ConnectionField":
        """Polynomial components: components[mu] is a list of terms
        (coeff, exponents, basis_index) over the algebra basis."""
        from .lie_core import algebra_basis

        basis = algebra_basis(spec)
        terms = [list(components.get(mu, []) if isinstance(components, dict) else components[mu]) for mu in range(dim)]

        def batch(points, mu):
            pts = np.atleast_2d(np.asarray(points, dtype=float))
            out = np.zeros((pts.shape[0], spec.matrix_dim, spec.matrix_dim), dtype=spec.dtype)
            for coeff, exps, b in terms[mu]:
                mono = np.ones(pts.shape[0])
                for k, e in enumerate(exps):
                    if e:
                        mono = mono * pts[:, k] ** e
                out += (coeff * mono)[:, None, None] * basis[b]
            return out

        def rule(x, mu):
            return AlgebraElement.from_matrix(spec, batch(np.asarray(x, float)[None, :], mu)[0])

        return cls(dim, spec, rule, batch)

    def component(self, x, mu: int) -> AlgebraElement:
        return self.component_rule(np.asarray(x, dtype=float), mu)

    def _matrices(self, points: np.ndarray, mu: int) -> np.ndarray:
        if self.batch_rule is not None:
            return np.asarray(self.batch_rule(points, mu))
        return np.stack([self.component_rule(x, mu).matrix for x in points])


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


def _chunks(paths, samples_per_piece: int):
    """Consecutive runs of paths holding at most ``_KERNEL_SAMPLES``
    lattice samples each (a single larger path forms its own run)."""
    chunk, size = [], 0
    for p in paths:
        n = p.n_pieces * samples_per_piece
        if chunk and size + n > _KERNEL_SAMPLES:
            yield chunk
            chunk, size = [], 0
        chunk.append(p)
        size += n
    if chunk:
        yield chunk


def _connection_along(field: ConnectionField, pts: np.ndarray, vels: np.ndarray) -> np.ndarray:
    """sum_mu A_mu(x) dx_mu/du at every sample, (pieces, samples, d, d)."""
    d = field.spec.matrix_dim
    flat, v = pts.reshape(-1, field.dim), vels.reshape(-1, field.dim)
    out = np.zeros((len(flat), d, d), dtype=np.complex128)
    if len(flat):
        for mu in range(field.dim):
            out += field._matrices(flat, mu) * v[:, mu, None, None]
    return out.reshape(pts.shape[:2] + (d, d))


def _line_integrals(field: ConnectionField, paths) -> np.ndarray:
    """Line integral of the (abelian) connection along every path, by
    per-piece Gauss-Legendre quadrature (exact for the polynomial fields
    used in presets, since the per-piece integrand degree is far below 63)."""
    out = []
    for chunk in _chunks(paths, len(_GL_NODES)):
        pts, vels, counts = sample_pieces(chunk, _GL_NODES)
        pieces = (_connection_along(field, pts, vels)[..., 0, 0] * _GL_WEIGHTS).sum(axis=1)
        totals = np.zeros(len(counts), dtype=np.complex128)
        np.add.at(totals, np.repeat(np.arange(len(counts)), counts), pieces)
        out.append(totals)
    return np.concatenate(out)


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


def _transport_products(field: ConnectionField, paths, steps_per_segment: int) -> np.ndarray:
    """Solve u' = -A(b) b' u, u(0) = 1, over each whole path; returns the
    (paths, d, d) stack of u(1).

    RK4 is linear in u, so step k is u -> P_k u with the propagator
    P_k = I + h/6 (K1 + 2 K2 + 2 K3 + K4), K1 = M1, K2 = M2 (I + h/2 K1),
    K3 = M2 (I + h/2 K2), K4 = M4 (I + h K3), where M1, M2, M4 are the
    coefficient -A(b) b' at the start, middle and end of the step.  For a
    group-valued u, projecting P_k u equals projecting P_k and multiplying
    by u, so per-step projection is kept and u(1) is the ordered product
    P_{N-1} ... P_0 of projected propagators.  Each smooth piece takes n
    steps in its local parameter (h = 1/n), and the coefficient is sampled
    once on the half-step lattice of every piece of every path in a batch.
    """
    spec = field.spec
    d = spec.matrix_dim
    n = steps_per_segment
    lattice = np.linspace(0.0, 1.0, 2 * n + 1)
    h = 1.0 / n
    eye = np.eye(d)
    out = []
    for chunk in _chunks(paths, len(lattice)):
        pts, vels, counts = sample_pieces(chunk, lattice)
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
        out.append(_ordered_products(p[:, 0], counts))
    return np.concatenate(out)


def _check_based(h_map: HolonomyMap, dim: int, basepoint: np.ndarray):
    if dim != h_map.field.dim:
        raise DimMismatch(f"loop dimension {dim} != field dimension {h_map.field.dim}")
    scale = 1.0 + float(np.max(np.abs(h_map.basepoint)))
    if np.linalg.norm(basepoint - h_map.basepoint) > 1e-9 * scale:
        raise BasepointMismatch(
            f"loop based at {np.asarray(basepoint).tolist()} but map pinned at {h_map.basepoint.tolist()}"
        )


def _holonomy_matrices(h_map: HolonomyMap, paths) -> np.ndarray:
    """Holonomy matrices, (paths, d, d), of closed paths at the map's base
    point; callers have checked dimension and base point."""
    spec = h_map.spec
    if not paths:
        return np.zeros((0, spec.matrix_dim, spec.matrix_dim), dtype=spec.dtype)
    if isinstance(h_map.backend, _AnalyticAbelianBackend):
        z = _line_integrals(h_map.field, paths)[:, None, None]
        return project_to_group(spec, np.exp(project_to_algebra(spec, z)))
    u = _transport_products(h_map.field, paths, h_map.backend.steps_per_segment)
    return project_to_group(spec, np.linalg.inv(u))


def eval_holonomies(h_map: HolonomyMap, loops) -> list[GroupElement]:
    """Evaluate the holonomies of many based loops in batches.

    Every smooth piece of every loop is sampled once, and the samples feed
    one kernel call per batch of a bounded number of lattice samples; a
    loop's value does not depend on the other loops of its batch.
    """
    loops = list(loops)
    for loop in loops:
        _check_based(h_map, loop.dim, loop.basepoint)
    mats = _holonomy_matrices(h_map, [loop.path for loop in loops])
    return [GroupElement(h_map.spec, m) for m in mats]


def eval_holonomy(h_map: HolonomyMap, loop: LoopAtBase) -> GroupElement:
    """Evaluate the holonomy of a based loop (a batch of one)."""
    return eval_holonomies(h_map, [loop])[0]


def transport_along(field: ConnectionField, path, g0: GroupElement, steps_per_segment: int = 64) -> GroupElement:
    """Parallel transport of a fiber value along an open path.

    With the lift convention used here the endpoint value is u(1) g0,
    so transport around a closed loop returns H(loop)^{-1} g0.
    """
    u = _transport_products(field, [path], steps_per_segment)[0]
    return GroupElement(field.spec, project_to_group(field.spec, u @ g0.matrix))


def check_axiom1(h_map: HolonomyMap, alpha: LoopAtBase, beta: LoopAtBase) -> float:
    """Composition-law defect |H(alpha o beta) - H(beta) H(alpha)|."""
    composed = LoopAtBase(compose_paths(alpha.path, beta.path), alpha.basepoint)
    lhs = eval_holonomy(h_map, composed)
    rhs = eval_holonomy(h_map, beta) @ eval_holonomy(h_map, alpha)
    return group_distance(lhs, rhs)


def check_axiom2(h_map: HolonomyMap, loop: LoopAtBase) -> float:
    """Thin-loop defect: distance of H(loop) from the identity."""
    return group_distance(eval_holonomy(h_map, loop), GroupElement.identity(h_map.spec))


def check_axiom3(h_map: HolonomyMap, family, grid: int, k: int = 1) -> float:
    """Smoothness proxy for a k-parameter loop family over [0, 1]^k.

    Evaluates H on a grid**k lattice and returns the largest normalized
    second difference |h(u+d e) - 2 h(u) + h(u-d e)| / d**2 over interior
    nodes and axes.  Small values indicate C2-like behavior at the grid
    scale; genuine smoothness is not finitely decidable.

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
    values = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        u = us[list(idx)]
        arg = float(u[0]) if k == 1 else u
        values[idx] = eval_holonomy(h_map, family(arg)).matrix
    worst = 0.0
    for idx in np.ndindex(shape):
        for axis in range(k):
            if not 0 < idx[axis] < grid - 1:
                continue
            lo = tuple(v - (1 if a == axis else 0) for a, v in enumerate(idx))
            hi = tuple(v + (1 if a == axis else 0) for a, v in enumerate(idx))
            second = values[hi] - 2.0 * values[idx] + values[lo]
            worst = max(worst, float(np.linalg.norm(second)) / delta**2)
    return worst


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
    default frame-conjugated straight-shift family.
    """
    rng = np.random.default_rng(seed)
    base = h_map.basepoint
    a1 = 0.0
    for _ in range(samples):
        alpha = random_polygon_loop(rng, base, n_vertices=4, radius=radius)
        beta = random_polygon_loop(rng, base, n_vertices=4, radius=radius)
        a1 = max(a1, check_axiom1(h_map, alpha, beta))
    a2 = 0.0
    phi = piecewise_power_map(3, 0.5)
    for k in range(samples):
        p = random_polyline(rng, base, n_segments=2, radius=radius)
        path = compose_paths(invert_path(p), p)
        if k % 2:
            path = reparametrize(path, phi)
        a2 = max(a2, check_axiom2(h_map, LoopAtBase(path, base)))
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
