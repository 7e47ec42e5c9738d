"""Holonomy maps and executable checks of the loop-space laws.

A holonomy map sends loops at a fixed base point into a matrix Lie group.
A ``HolonomyMap`` is a field, a base point and a step count, which alone
says how it integrates:

* ``steps=None`` (``analytic_abelian``) -- for one-dimensional
  (commuting) groups the holonomy is exp of the line integral of the
  connection along the loop, evaluated piece by piece with Gauss-Legendre
  quadrature: a polynomial field's integrand of degree k <= 63 on a piece
  takes the k // 2 + 1 nodes that are exact for it, and any other piece
  the 32-node rule, all computed by ``_gauss_legendre``;
* ``steps=n`` (``transport``) -- parallel transport: solve
  u'(i) = -A(b(i)) b'(i) u(i), u(0) = 1, with classical RK4 (order 4)
  written as the ordered product of its step propagators, each projected
  onto the group, and set H(loop) = u(1)^{-1}.  One vectorized kernel
  serves every group; a propagator that leaves the positive reals raises
  ``IntegrationError``.  A piece along which a polynomial field's
  coefficient has degree <= 4 and entries <= 1/8, and whose 1- and 2-step
  values agree to rounding (step doubling puts the 2-step error at a
  fifteenth of their gap, so its value is already exact to double
  precision), keeps its 2-step value; every other piece takes n steps.  On
  request the kernel also returns each chain's value at half the steps,
  read from the same samples, which the one evaluation entry
  (``_evaluate``), given a tolerance, turns into a per-quantity step
  count: the fewest steps, from 8 up to n as the cap, whose estimate
  |V_n - V_{n/2}| / 15 meets it, or ``IntegrationError`` at the cap.

Loops are evaluated in batches through one integration plan per batch
(``_Plan``); ``eval_holonomy`` evaluates one loop, or a sequence of them,
as one batch.  The exact map integrates every row; transport keys each
distinct smooth piece (on its exact control points and time map, so pieces
shared between loops count once), probes it once, integrates it once per
pass and reduces the per-piece results per loop.  A fixed-step evaluation
is the plan's single pass; under step doubling a later pass samples only
the pieces of the quantities still above their tolerance.

The randomized audit builds each law's loops as whole arrays into one
checked segment table, with no path object per loop (the smoothness
family's from ``_shift_rows``, the one straight-shift row builder), and
evaluates each law as one batch.  By default every piece takes the map's
steps; with ``error_control`` (the CLI's ``audit`` on a transport preset,
unless ``--steps`` fixes the count) each law refines until its estimates
are within a tenth of its gate: axiom 1 per loop pair, whose three loops
share one count, at gate/10; axiom 2 per thin loop at gate/10; axiom 3 per
family loop at gate d**2 / 40 for the grid step d.  The report then gives
each law's largest step count and estimate.

The inverse in the transport convention makes composition come out as
H(alpha o beta) = H(beta) H(alpha) (beta traversed first), and for
commuting groups it reduces to H = exp(+ integral), matching the exact
integral.

The three loop-space laws are checked as numbers, not booleans: each
checker returns a defect the caller compares against its own tolerance.
Smoothness of loop families is proxied by a normalized second difference
on a grid -- the only finitely decidable surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.random  # numpy loads it lazily; the audit and round trip draw from it

from .lie_core import (
    AlgebraElement,
    GroupElement,
    GroupName,
    GroupSpec,
    _check_algebra,
    _check_group,
    _norms,
    project_to_algebra,
    project_to_group,
)
from .path_algebra import (
    LoopAtBase,
    _as_points,
    _check_loops,
    _composition_triples,
    _set_basepoint,
    _shift_rows,
    _thin_loops,
    compose_paths,
    radial_family,
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
    "transport_along",
    "check_axiom1",
    "check_axiom2",
    "check_axiom3",
    "audit_axioms",
]

# The rules on [0, 1] by node count, filled on first use by _gauss_legendre.
_GL_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}
# Node count for every piece of unknown degree or degree above 63.
_GL_MAX = 32


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights on [0, 1], exact for
    polynomials of degree up to 2n - 1, computed once per n on first use:
    the roots of P_n by Newton's method on the three-term recurrence and
    the weights 2 / ((1 - x^2) P_n'(x)^2) on [-1, 1], halved.  (Not
    numpy's leggauss, whose module costs a few ms to import on first
    use.)"""
    rule = _GL_RULES.get(n)
    if rule is None:
        # Start from the asymptotic roots cos(pi (i - 1/4) / (n + 1/2)) =
        # sin t, |t| < pi/2, by its degree-17 Taylor polynomial (error below
        # 1e-13).  Newton needs only a start near each root, and a run's
        # first np.cos maps about 0.2 MB more of libm and numpy code.
        t = np.pi * (0.5 - np.arange(n - 0.25, 0.0, -1.0) / (n + 0.5))
        x = np.ones(n)
        for k in range(17, 1, -2):
            x = 1.0 - t * t / (k * (k - 1)) * x
        x = t * x
        for _ in range(100):
            dx = _legendre_ratio(n, x)[0]
            x = x - dx
            if np.abs(dx).max() <= 2.0 * np.finfo(float).eps:
                break
        dp = _legendre_ratio(n, x)[1]
        rule = _GL_RULES[n] = (0.5 * (x + 1.0), 1.0 / ((1.0 - x * x) * dp * dp))
    return rule


def _legendre_ratio(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Newton step P_n / P_n' and the derivative P_n' at x (|x| < 1),
    from P_{n-1} and P_n by the recurrence k P_k = (2k - 1) x P_{k-1} -
    (k - 1) P_{k-2}."""
    q, p = np.ones_like(x), x
    for k in range(2, n + 1):
        q, p = p, ((2 * k - 1) * x * p - (k - 1) * q) / k
    dp = n * (x * p - q) / (x * x - 1.0)
    return p / dp, dp


# Matrix entries per (samples, d, d) kernel temporary: a call takes at
# most 8192 // d**2 lattice samples, 2048 for SU(2) and 8192 for 1x1 groups.
# Distinct pieces are cut into chunks at piece boundaries so that the
# temporaries stay below about 1 MB for any batch size; at twice the budget
# an SU(2) grid reconstruction already peaks 0.5 MB higher, with no gain in
# speed.  The kernel computes in the group's dtype, float64 for the
# positive reals and real GL(n): an elementwise complex product or sum
# whose imaginary parts are 0 rounds exactly like the real one.
# Transport's 2-step probe (5 samples per probed piece, once per batch) and
# its n-step pass over the pieces the probe does not accept (2n+1 samples)
# are chunked alike, and so are the passes of error-controlled
# reconstructions and audits (``_evaluate``: n = 8, 16, ... up to the map's
# steps as the cap, over the pieces of the quantities still above their
# tolerance); only the first pass builds n/2-step values, which read the
# same samples and add n/2 propagators per piece after the n-step ones, so
# the budget holds.
_KERNEL_ENTRIES = 8192


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
    points returning a new (m, d, d) array of algebra matrices in the
    group's dtype (real for a real group), which ``form``, the 1-form that
    integrators read, checks (``ValueError`` naming the direction unless
    it is (m, d, d) of a float kind, complex only for a complex group) and
    scales in place; ``component`` is the batch of one.
    ``degree`` is the total degree of a polynomial rule, None when the rule
    is not known to be a polynomial; it sets the quadrature's node counts
    and which pieces transport probes, so anything but None or an integer
    of at least 0 (Python or numpy, not a bool) raises ``ValueError``.
    """

    def __init__(self, dim: int, spec: GroupSpec, rule, degree: int | None = None):
        if degree is not None and (isinstance(degree, bool) or not isinstance(degree, (int, np.integer)) or degree < 0):
            raise ValueError(f"a field's degree must be None or an integer of at least 0, got {degree!r}")
        self.dim = int(dim)
        self.spec = spec
        self.rule = rule
        self.degree = None if degree is None else int(degree)

    @classmethod
    def zero(cls, dim: int, spec: GroupSpec) -> "ConnectionField":
        d = spec.matrix_dim
        return cls(dim, spec, lambda points, mu: np.zeros((len(points), d, d), dtype=spec.dtype), 0)

    @classmethod
    def from_matrix_rule(cls, dim: int, spec: GroupSpec, matrix_rule) -> "ConnectionField":
        """A connection from a per-point ``matrix_rule(x, mu)``; each rule
        call's (m, d, d) stack of values is projected and checked."""
        d = spec.matrix_dim

        def rule(points, mu):
            values = [matrix_rule(x, mu) for x in points]
            return _check_algebra(spec, np.stack(values) if values else np.zeros((0, d, d)), project=True)

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

        return cls(dim, spec, rule, max((sum(exps) for t in terms for _, exps, _ in t), default=0))

    def component(self, x, mu: int) -> AlgebraElement:
        (x,) = _as_points(x, self.dim)
        return AlgebraElement.from_matrix(self.spec, self.rule(x[None, :], _check_axis(mu, self.dim))[0])

    def form(self, points: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """The 1-form sum_mu A_mu(x) v_mu at (m, dim) arrays of points and
        vectors, a new (m, d, d) stack, from one checked ``rule`` call per
        direction.  A field that computes it directly replaces it."""
        d = self.spec.matrix_dim
        out = np.zeros((len(points), d, d), dtype=self.spec.dtype)
        if len(points):
            for mu in range(self.dim):
                a = np.asarray(self.rule(points, mu))
                if a.shape != out.shape or a.dtype.kind not in ("fc" if out.dtype.kind == "c" else "f"):
                    raise ValueError(f"the field's rule gave {a.dtype} values of shape {a.shape} in direction {mu}")
                a *= vectors[:, mu, None, None]
                out += a
        # Entry-major memory, inherited by the kernel's temporaries: loops run along samples.
        return np.ascontiguousarray(out.transpose(1, 2, 0)).transpose(2, 0, 1)


def _check_axis(mu, dim: int) -> int:
    """Direction mu of R^dim; ``ValueError`` unless it is an integer (Python
    or numpy, not a bool) in range(dim)."""
    if isinstance(mu, bool) or not isinstance(mu, (int, np.integer)) or not 0 <= mu < dim:
        raise ValueError(f"direction {mu} is not an axis of R^{dim}")
    return int(mu)


@dataclass(frozen=True, eq=False)
class HolonomyMap:
    """The holonomy of ``field`` on loops based at ``basepoint`` (finite):
    the exact line integral when ``steps`` is None (abelian groups only),
    else RK4 transport at ``steps`` per piece, the cap of error control."""

    field: ConnectionField
    basepoint: np.ndarray
    steps: int | None = None

    def __post_init__(self):
        bp = _set_basepoint(self)
        if bp.shape != (self.field.dim,):
            raise DimMismatch(f"base point of shape {bp.shape} for a field on R^{self.field.dim}")
        if self.steps is not None:
            object.__setattr__(self, "steps", _check_steps(self.steps))
        elif not self.field.spec.is_abelian:
            raise ValueError("the exact line integral requires a one-dimensional (abelian) group")

    @classmethod
    def analytic_abelian(cls, field: ConnectionField, basepoint) -> "HolonomyMap":
        return cls(field, basepoint)

    @classmethod
    def transport(cls, field: ConnectionField, basepoint, steps_per_segment: int = 64) -> "HolonomyMap":
        return cls(field, basepoint, _check_steps(steps_per_segment))

    @property
    def spec(self) -> GroupSpec:
        return self.field.spec

    def __call__(self, loop: LoopAtBase) -> GroupElement:
        return eval_holonomy(self, loop)

    def with_steps(self, steps_per_segment: int) -> "HolonomyMap":
        steps = _check_steps(steps_per_segment)
        return self if self.steps is None else HolonomyMap(self.field, self.basepoint, steps)


def _stacked_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Products of stacked tiny matrices as d broadcast multiply-adds:
    # numpy's matmul loop is several times slower on stacks of 2x2
    # complex matrices.
    out = x[..., :, :1] * y[..., :1, :]
    for j in range(1, x.shape[-1]):
        out += x[..., :, j : j + 1] * y[..., j : j + 1, :]
    return out


def _connection_along(field: ConnectionField, pts: np.ndarray, vels: np.ndarray) -> np.ndarray:
    """The field's 1-form on the velocity at every sample, A(x)(dx/du), as
    (pieces, samples, d, d): the one place a kernel reads a field."""
    flat = field.form(pts.reshape(-1, field.dim), vels.reshape(-1, field.dim))
    return flat.reshape(pts.shape[:2] + flat.shape[1:])


def _distinct_pieces(batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    """A representative row of each distinct piece of a batch, and the
    distinct piece of every row.

    Pieces are the same piece when their kind flag, control-point bytes
    and time-map bytes (in a batch that has time maps) are equal, so a
    piece shared by several paths, or repeated in one, is transported once
    (orientation is part of the bytes).
    """
    cubic, ctrl, tmap, _ = batch
    # One flat byte row per piece: its flag, its control points, its time map.
    parts = [cubic[:, None].view(np.uint8), ctrl.reshape(-1, 4 * ctrl.shape[-1]).view(np.uint8)]
    if tmap is not None:
        parts.append(tmap.view(np.uint8))
    rows = np.concatenate(parts, axis=1)
    # Fixed-width byte strings drop trailing NULs, which keeps them distinct.
    keys = rows.view(f"S{rows.shape[1]}").ravel().tolist()
    ids: dict = {}
    where = np.array([ids.setdefault(key, len(ids)) for key in keys], dtype=np.intp)
    # Any occurrence represents its piece: equal keys mean equal bytes.
    rep = np.empty(len(ids), dtype=np.intp)
    rep[where] = np.arange(len(where))
    return rep, where


def _sampled(batch: Batch, rows: np.ndarray, u: np.ndarray, kernel, d: int = 1) -> np.ndarray:
    """``kernel(points, velocities)`` on the samples at abscissae ``u`` of
    the given rows of a batch, in chunks of at most ``_KERNEL_ENTRIES``
    entries of the kernel's (samples, d, d) temporaries, cut at piece
    boundaries; the kernel treats each piece on its own, so no result
    depends on its chunk."""
    cubic, ctrl, tmap, _ = batch
    cap = max(1, _KERNEL_ENTRIES // (len(u) * d * d))
    results = [
        kernel(*sample_pieces(cubic[c], ctrl[c], None if tmap is None else tmap[c], u))
        for c in (rows[a : a + cap] for a in range(0, max(len(rows), 1), cap))
    ]
    return np.concatenate(results)


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


def _step_propagators(m1: np.ndarray, m2: np.ndarray, m4: np.ndarray, h) -> np.ndarray:
    """RK4 step propagators P = I + h/6 (K1 + 2 K2 + 2 K3 + K4) from the
    coefficient at the start, middle and end of each step."""
    eye = np.eye(m1.shape[-1])
    k2 = _stacked_matmul(m2, eye + 0.5 * h * m1)
    k3 = _stacked_matmul(m2, eye + 0.5 * h * k2)
    k4 = _stacked_matmul(m4, eye + h * k3)
    return eye + (h / 6.0) * (m1 + 2.0 * k2 + 2.0 * k3 + k4)


# The probe is the n = 2 pass on the lattice u = 0, 1/4, 1/2, 3/4, 1: its
# value is P2 and its half value, from samples 0, 2, 4, is P1.
_PROBE_SAMPLES = np.linspace(0.0, 1.0, 5)
# Step doubling puts the error of P2 at |P1 - P2| / (2^4 - 1).
_ROUNDING_GAP = 15.0 * np.finfo(float).eps
# Largest coefficient entry at a sample that the probe accepts.  For d <= 2
# it bounds |M| over the piece by about 0.55 (five equispaced samples have
# Lebesgue constant 2.2), where the gap of a constant coefficient m,
# |P1 - P2| = |m^5 (1152 + 160 m + 16 m^2 + m^3)| / 147456, is its leading
# term within 8%.  The gap vanishes again near m = -10.98, where
# P1 = P2 = 435.7 against exp(m) = 1.7e-5.
_PROBE_SCALE = 0.125


def _piece_degrees(degree: int | None, batch: Batch, rows: np.ndarray, read) -> np.ndarray | None:
    """``read(k)`` of the degree k of the coefficient A(b) b' in the piece's
    parameter along each of the given rows of a batch, for a field of
    polynomial degree D: k = D along a line, 3D + 2 along a cubic or a
    time-mapped line, 9D + 8 along a time-mapped cubic; None for a field of
    unknown degree.  ``read`` sees the three Python ints, so any D works.
    (Selected from the flags with no per-row cast or integer arithmetic:
    either maps 64 KB more of numpy's code on a run that does no other.)"""
    if degree is None:
        return None
    cubic = batch.cubic[rows]
    mapped = np.zeros_like(cubic) if batch.tmap is None else ~np.isnan(batch.tmap[rows, 0])
    line, one_bend, two_bends = (read(k) for k in (degree, 3 * degree + 2, 9 * degree + 8))
    return np.where(cubic & mapped, two_bends, np.where(cubic | mapped, one_bend, line))


def _probed(degree: int | None, batch: Batch, rows: np.ndarray) -> np.ndarray:
    """Mask of the given rows of a batch whose coefficient -A(b) b' is a
    polynomial of degree <= 4 in the piece's parameter (``_piece_degrees``),
    which the probe's five samples fix; a field of unknown degree is never
    probed."""
    probed = _piece_degrees(degree, batch, rows, lambda k: k <= 4)
    return np.zeros(len(rows), dtype=bool) if probed is None else probed


def _rk4_products(spec: GroupSpec, m: np.ndarray, n: int, half: bool):
    """The n-step RK4 value of each piece from its coefficient on the
    2n+1-sample half-step lattice, m of shape (pieces, 2n+1, d, d): the
    ordered product, later step on the left, of its n projected step
    propagators (h = 1/n), and with ``half`` also the n/2-step value from
    lattice points 0, 2, 4, ... (h = 2/n), as a (pieces, 1 or 2, d, d)
    stack; and the mask of pieces with a 1x1 propagator <= 0 (positive
    reals only)."""
    values, bad = [], np.zeros(len(m), dtype=bool)
    for s, h in [(m, 1.0 / n), (m[:, ::2], 2.0 / n)][: 2 if half else 1]:
        p = _step_propagators(s[:, :-1:2], s[:, 1::2], s[:, 2::2], h)
        if spec.name is GroupName.MULTIPLICATIVE_REALS:
            bad |= (p.real <= 0).any(axis=(1, 2, 3))
        p = project_to_group(spec, p)
        # Pairwise ordered product within each piece, later factor on the left.
        while p.shape[1] > 1:
            k = p.shape[1]
            p = np.concatenate([_stacked_matmul(p[:, 1::2], p[:, :-1:2]), p[:, k - k % 2 :]], axis=1)
        values.append(p)
    return (np.concatenate(values, axis=1) if half else values[0]), bad


class _Plan:
    """One batch's integration plan, built once and shared by its passes.

    It holds the chain of every row and the quantity that owns each chain:
    ``per`` consecutive chains make one controlled quantity, so chain c
    belongs to quantity c // per.  Transport alone keys the batch's
    distinct pieces (``pieces``), on its first pass.  The 2-step probe runs
    once, on the first pass with n > 2, and its accepted P2 values are
    kept.  A pass (``products``) samples only the distinct pieces of the
    chains of the quantities it is asked for that the probe did not
    accept, and reduces them per chain.
    """

    def __init__(self, field: ConnectionField, batch: Batch, per: int = 1):
        self.field, self.batch, self.per = field, batch, per
        self.chain = np.repeat(np.arange(len(batch.counts)), batch.counts)
        self.quantities = len(batch.counts) // per
        self._p2, self._probed = None, False

    def line_integrals(self) -> np.ndarray:
        """Line integral of the (abelian) connection along every chain, by
        Gauss-Legendre quadrature on every row of the batch (no piece is
        keyed).  A piece whose integrand has degree k <= 63 (``_piece_degrees``)
        takes the k // 2 + 1 nodes exact for it; a piece of higher degree,
        and every piece of a field of unknown degree, the 32-node rule.  A
        row's value depends on its bytes alone, so a chain's value does not
        depend on the other chains of its batch."""
        field, batch, m = self.field, self.batch, len(self.chain)
        nodes = _piece_degrees(field.degree, batch, np.arange(m), lambda k: min(k // 2 + 1, _GL_MAX))
        if nodes is None:
            nodes = np.full(m, _GL_MAX)
        values = np.empty(m, dtype=np.complex128)
        # At most three counts, one per piece kind.  (A set, not np.unique,
        # whose first call imports numpy.ma.)  Complex weights keep the sums
        # complex for a real group too: numpy's pairwise sum adds a complex
        # row of 4 or more in another order than a real one.
        for n in sorted(set(nodes.tolist())):
            u, w = _gauss_legendre(n)
            w, rows = w.astype(np.complex128), np.flatnonzero(nodes == n)
            values[rows] = _sampled(
                batch, rows, u, lambda pts, vels: (_connection_along(field, pts, vels)[..., 0, 0] * w).sum(axis=1)
            )
        totals = np.zeros(len(batch.counts), dtype=np.complex128)
        np.add.at(totals, self.chain, values)
        return totals

    @cached_property
    def pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """``_distinct_pieces`` of the batch, keyed on the first transport pass."""
        return _distinct_pieces(self.batch)

    def _probe(self):
        """P2 of every distinct piece the probe accepts, nan for every other
        one; None when no piece is probed."""
        if not self._probed:
            spec, field = self.field.spec, self.field

            def probe(pts, vels):
                m = -_connection_along(field, pts, vels)
                p, bad = _rk4_products(spec, m, 2, True)
                p2, p1 = p[:, 0], p[:, 1]
                keep = (np.abs(m).max(axis=(1, 2, 3)) <= _PROBE_SCALE) & ~bad
                scale = np.abs(p2).max(axis=(1, 2))
                keep &= (np.abs(p1 - p2).max(axis=(1, 2)) <= _ROUNDING_GAP * scale) & (scale < np.inf)
                return np.where(keep[:, None, None], p2, np.nan)

            rep = self.pieces[0]
            probed = np.flatnonzero(_probed(field.degree, self.batch, rep))
            self._probed = True
            if probed.size:
                p2 = _sampled(self.batch, rep[probed], _PROBE_SAMPLES, probe, spec.matrix_dim)
                self._p2 = np.full((len(rep),) + p2.shape[1:], np.nan, dtype=p2.dtype)
                self._p2[probed] = p2
        return self._p2

    def products(self, n: int, quantities=None, half: bool = False) -> np.ndarray:
        """Solve u' = -A(b) b' u, u(0) = 1, over each chain of the given
        quantities (all by default); returns the (chains, d, d) stack of
        u(1), or with ``half`` the (2, chains, d, d) stack of u(1) at n and
        at n/2 steps per piece.

        RK4 is linear in u, so step k is u -> P_k u with the propagator
        P_k = I + h/6 (K1 + 2 K2 + 2 K3 + K4), K1 = M1, K2 = M2 (I + h/2 K1),
        K3 = M2 (I + h/2 K2), K4 = M4 (I + h K3), where M1, M2, M4 are the
        coefficient -A(b) b' at the start, middle and end of the step.  For
        a group-valued u, projecting P_k u equals projecting P_k and
        multiplying by u, so per-step projection is kept and u(1) is the
        ordered product P_{N-1} ... P_0 of projected propagators.  Each
        smooth piece takes n steps in its local parameter (h = 1/n), and the
        coefficient is sampled once on the half-step lattice of every
        distinct piece the pass needs.

        The n/2-step value is read from every other point of that lattice,
        so it costs no field sample: only n/2 more propagators and their
        product per piece.  A 1x1 propagator <= 0 of either value raises
        ``IntegrationError``.

        When n > 2, every distinct piece along which the coefficient is a
        polynomial of degree <= 4 (``_probed``; never for a field of unknown
        degree) is integrated at 2 steps on the 5-sample lattice, which
        fixes that polynomial: the same computation at n = 2, whose half
        value is the 1-step value P1.  A piece keeps its 2-step value P2, as
        its n- and n/2-step value, when its sampled coefficient entries are
        at most ``_PROBE_SCALE``, so that the estimate's leading term
        dominates, and max|P1 - P2| <= 15 eps max|P2|: step doubling puts
        the error of P2 at |P1 - P2| / 15, so P2 is already exact to
        rounding, and so would its n-step value be.  The two legs of a
        difference quotient therefore differ only by rounding, whichever way
        each is integrated.  Every other piece (a non-finite probe, or a 1x1
        probe propagator <= 0, included) is integrated at n steps exactly as
        without the probe, so an ``IntegrationError`` comes from the n-step
        pass alone.  A piece's value does not depend on which other pieces a
        pass takes, so every pass agrees bit for bit with a single pass over
        its own chains.
        """
        spec, batch, (rep, where) = self.field.spec, self.batch, self.pieces

        def kernel(pts, vels):
            p, bad = _rk4_products(spec, -_connection_along(self.field, pts, vels), n, half)
            if bad.any():
                raise IntegrationError(f"RK4 step propagator left the positive reals ({n} steps per piece)")
            return p

        live = np.zeros(self.quantities, dtype=bool)
        live[slice(None) if quantities is None else quantities] = True
        live = live.repeat(self.per)
        where = where[live[self.chain]]
        pieces = np.zeros(len(rep), dtype=bool)
        pieces[where] = True
        pieces = np.flatnonzero(pieces)
        with np.errstate(over="ignore", invalid="ignore"):
            p2 = self._probe() if n > 2 else None
            redo = pieces if p2 is None else pieces[np.isnan(p2[pieces]).any(axis=(1, 2))]
            d = spec.matrix_dim
            if p2 is None or redo.size:
                values = _sampled(batch, rep[redo], np.linspace(0.0, 1.0, 2 * n + 1), kernel, d)
            p = np.empty((len(rep), 2 if half else 1, d, d), dtype=(values if p2 is None else p2).dtype)
            if p2 is not None:
                p[pieces] = p2[pieces, None]
            if redo.size:
                p[redo] = values
            u = [_ordered_products(p[where, k], batch.counts[live]) for k in range(p.shape[1])]
        for v in u:
            _check_representable(v, "the transport value u(1)")
        return np.stack(u) if half else u[0]


def _check_count(n, what: str, least: int = 1) -> int:
    """``n`` as an int; ``ValueError`` unless it is an integer (Python or
    numpy, not a bool) of at least ``least``."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
        raise ValueError(f"{what} must be an integer of at least {least}, got {n!r}")
    return int(n)


def _check_steps(steps_per_segment) -> int:
    return _check_count(steps_per_segment, "steps per segment")


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


def _holonomy_matrices(h_map: HolonomyMap, plan: _Plan, steps: int | None = None, quantities=None, half=False):
    """Holonomy matrices, (chains, d, d), of a plan's closed chains at the
    map's base point, the one place a map is evaluated.  A transport map
    integrates the chains of the given quantities (all by default) at
    ``steps`` per piece (its own by default), and with ``half`` returns the
    (2, chains, d, d) stack of the values at steps and at steps/2; an exact
    map ignores all three.  A value a double cannot hold raises
    ``IntegrationError``, not a RuntimeWarning."""
    spec = h_map.spec
    with np.errstate(over="ignore", invalid="ignore"):
        if h_map.steps is None:
            h = np.exp(project_to_algebra(spec, plan.line_integrals()[:, None, None]))
        else:
            h = np.linalg.inv(plan.products(h_map.steps if steps is None else steps, quantities, half))
    for v in h if h.ndim == 4 else [h]:
        _check_representable(v, "the holonomy")
    return project_to_group(spec, h)


def _evaluate(h_map: HolonomyMap, plan: _Plan, reduce, tol=None, name=None):
    """The values of a plan's quantities: ``reduce`` of all its holonomies
    when ``tol`` is None or the map is exact, else each at the fewest RK4
    steps per piece whose step-doubling estimate meets ``tol``.

    ``reduce(h)`` maps the holonomies of the chains of some quantities,
    (chains, d, d) in chain order, to the (quantities, ...) stack of their
    values.  Passes start at n = min(8, N), N the map's ``steps`` as the
    cap, and double while n <= N.  A pass takes the estimate
    max|V_n - V_{n/2}| / 15 (Hairer, Norsett & Wanner, Solving ODEs I,
    II.4) of each quantity; one whose estimate is at most tol keeps V_n,
    and only the others run again at 2n.  The first pass reads V_{n/2} from
    its own lattice; a later one reuses the previous pass's V_n, which is
    the same value bit for bit.  One still above tol at the cap raises
    ``IntegrationError`` naming it by ``name(k)``; a cap of 1, or odd below
    8, and a tol that is not a positive number raise ``ValueError`` before
    anything is evaluated.  Returns the values, and each quantity's steps
    per piece and estimate as (quantities,) arrays: without control the
    map's steps (0 for the exact map) and nan.
    """
    steps, estimates = np.full(plan.quantities, h_map.steps or 0), np.full(plan.quantities, np.nan)
    if tol is None or h_map.steps is None:
        return reduce(_holonomy_matrices(h_map, plan)), steps, estimates
    cap = h_map.steps
    if not tol > 0.0 or min(8, cap) % 2:
        raise ValueError(f"step doubling needs a positive tolerance and an even first step count, got {tol!r}, {cap}")
    out, rows, n, v_half = None, np.arange(plan.quantities), min(8, cap), None
    while rows.size:
        if v_half is None:
            v, v_half = (reduce(h) for h in _holonomy_matrices(h_map, plan, n, rows, half=True))
        else:
            v = reduce(_holonomy_matrices(h_map, plan, n, rows))
        est = np.abs(v - v_half).reshape(len(rows), -1).max(axis=1, initial=0.0) / 15.0
        if out is None:
            out = np.empty((plan.quantities,) + v.shape[1:], dtype=v.dtype)
        done = est <= tol
        out[rows[done]], steps[rows[done]], estimates[rows[done]] = v[done], n, est[done]
        rows, est, v_half = rows[~done], est[~done], v[~done]
        if rows.size and 2 * n > cap:
            raise IntegrationError(
                f"{name(rows[0])}: step-doubling estimate {est[0]:.3g} exceeds {tol:.3g} at {n} steps per piece, the cap"
            )
        n *= 2
    return out, steps, estimates


def _stacked(h_map: HolonomyMap, loops) -> Batch:
    """Based loops as one batch, each checked against the map."""
    for loop in loops:
        _check_based(h_map, loop.dim, loop.basepoint)
    return stack_tables([loop.path for loop in loops])


def _loop_holonomies(h_map: HolonomyMap, batch: Batch, per: int = 1, tol=None, name=None):
    """Holonomy matrices, (loops, d, d), of a batch of loops at the map's base
    point, and ``_evaluate``'s steps and estimates of each run of ``per``."""
    d = h_map.spec.matrix_dim
    plan = _Plan(h_map.field, batch, per)
    values, steps, estimates = _evaluate(h_map, plan, lambda h: h.reshape(-1, per, d, d), tol, name)
    return values.reshape(-1, d, d), steps, estimates


def eval_holonomy(h_map: HolonomyMap, loops):
    """Evaluate the holonomy of one based loop, a ``GroupElement``, or of a
    sequence of them as one batch, an (m, d, d) stack of group matrices
    checked once ((0, d, d) for none).

    Transport samples each distinct smooth piece of the batch once per
    pass, the exact map every row, in kernel calls of a bounded number of
    matrix entries; a loop's value does not depend on the other loops of
    its batch, bit for bit.
    """
    single = isinstance(loops, LoopAtBase)
    loops = [loops] if single else list(loops)
    if not loops:
        return np.zeros((0, h_map.spec.matrix_dim, h_map.spec.matrix_dim), dtype=h_map.spec.dtype)
    values = _loop_holonomies(h_map, _stacked(h_map, loops))[0]
    return GroupElement(h_map.spec, values[0]) if single else _check_group(h_map.spec, values)


def transport_along(field: ConnectionField, path, g0: GroupElement, steps_per_segment: int = 64) -> GroupElement:
    """Parallel transport of a fiber value along an open path.

    With the lift convention used here the endpoint value is u(1) g0,
    so transport around a closed loop returns H(loop)^{-1} g0.
    """
    steps = _check_steps(steps_per_segment)
    if path.dim != field.dim:
        raise DimMismatch(f"path dimension {path.dim} != field dimension {field.dim}")
    u = _Plan(field, stack_tables([path])).products(steps)[0]
    return GroupElement(field.spec, project_to_group(field.spec, u @ g0.matrix))


def _composition_defects(h_map: HolonomyMap, triples: Batch, tol=None):
    """|H(alpha o beta) - H(beta) H(alpha)| for every triple of loops
    (alpha o beta, alpha, beta) of a batch, with each triple's steps and
    estimate: the composed loop reuses the pieces of alpha and beta, and
    under error control each triple shares one step count."""
    hols, steps, estimates = _loop_holonomies(h_map, triples, 3, tol, lambda k: f"axiom 1, loop pair {k}")
    products = project_to_group(h_map.spec, hols[2::3] @ hols[1::3])
    return _norms(hols[::3] - products).tolist(), steps, estimates


def _thin_loop_defects(h_map: HolonomyMap, loops: Batch, tol=None):
    """Distance of H(loop) from the identity, steps and estimate of every loop of a batch."""
    identity = np.eye(h_map.spec.matrix_dim, dtype=h_map.spec.dtype)
    hols, steps, estimates = _loop_holonomies(h_map, loops, 1, tol, lambda k: f"axiom 2, thin loop {k}")
    return _norms(hols - identity).tolist(), steps, estimates


def check_axiom1(h_map: HolonomyMap, alpha: LoopAtBase, beta: LoopAtBase) -> float:
    """Composition-law defect |H(alpha o beta) - H(beta) H(alpha)|."""
    composed = LoopAtBase(compose_paths(alpha.path, beta.path), alpha.basepoint)
    return _composition_defects(h_map, _stacked(h_map, [composed, alpha, beta]))[0][0]


def check_axiom2(h_map: HolonomyMap, loop: LoopAtBase) -> float:
    """Thin-loop defect: distance of H(loop) from the identity."""
    return _thin_loop_defects(h_map, _stacked(h_map, [loop]))[0][0]


def check_axiom3(h_map: HolonomyMap, family, grid: int, k: int = 1) -> float:
    """Smoothness proxy for a k-parameter loop family over [0, 1]^k.

    Evaluates H on a grid**k lattice, in one batch, and returns the largest
    normalized second difference |h(u+d e) - 2 h(u) + h(u-d e)| / d**2 over
    interior nodes and axes.  Small values indicate C2-like behavior at the
    grid scale; genuine smoothness is not finitely decidable.

    One-parameter families may take a bare float; for k > 1 the family
    receives a length-k array.
    """
    grid, k = _check_count(grid, "the grid", 3), _check_count(k, "the family dimension")
    us = np.linspace(0.0, 1.0, grid)
    loops = [family(float(us[idx[0]]) if k == 1 else us[list(idx)]) for idx in np.ndindex((grid,) * k)]
    return float(np.max(_second_differences(h_map, _stacked(h_map, loops), grid, k)[0]))


def _second_differences(h_map: HolonomyMap, loops: Batch, grid: int, k: int = 1, tol=None):
    """``check_axiom3``'s second differences over a batch of the family's
    grid**k loops in lattice order, and each loop's steps and estimate, at
    tol d**2 / 4 per loop: an error e moves the proxy by 4 e / d**2."""
    delta = 1.0 / (grid - 1)  # the step of np.linspace(0.0, 1.0, grid), bit for bit
    shape = (grid,) * k
    d = h_map.spec.matrix_dim
    per_loop = None if tol is None else tol * delta**2 / 4.0
    name = lambda j: f"axiom 3, family loop {j}"
    values, steps, estimates = _loop_holonomies(h_map, loops, 1, per_loop, name)
    worst = []
    for axis in range(k):
        v = np.moveaxis(values.reshape(shape + (d, d)), axis, 0)
        second = (v[2:] - 2.0 * v[1:-1] + v[:-2]).reshape(-1, d, d)
        worst += (_norms(second) / delta**2).tolist()
    return worst, steps, estimates


@dataclass(frozen=True)
class AxiomReport:
    """Defect summary for the three loop-space laws; under error control
    also each law's largest step count and integration estimate."""

    axiom1_max_defect: float
    axiom2_max_defect: float
    axiom3_max_second_difference: float
    samples: int
    passed: tuple[bool, bool, bool]
    steps: tuple[int, int, int] | None = None
    integration_estimates: tuple[float, float, float] | None = None

    def to_json_dict(self) -> dict:
        return {
            "axiom1_max_defect": self.axiom1_max_defect,
            "axiom2_max_defect": self.axiom2_max_defect,
            "axiom3_max_second_difference": self.axiom3_max_second_difference,
            "samples": self.samples,
            "pass": list(self.passed),
            "steps": None if self.steps is None else list(self.steps),
            "integration_estimates": None if self.integration_estimates is None else list(self.integration_estimates),
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
    axiom3_shift=None,
    axiom3_grid: int = 21,
    error_control: bool = False,
) -> AxiomReport:
    """Seeded randomized audit of the three laws.

    Composition is tested on random polygon loop pairs, thin-loop
    triviality on out-and-back polylines (every other one reparametrized
    by a cubic-start time map), smoothness on the straight-shift family
    u -> reconstruction_loop(radial_family(base), anchor, anchor + u step)
    at ``axiom3_grid`` nodes u of [0, 1], ``axiom3_shift`` = (anchor, step)
    ((base + 0.5, 0.5 e1) by default).  Each law's loops (those of
    ``random_polygon_loop``, ``random_polyline`` and ``reconstruction_loop``
    bit for bit) are built as whole arrays into one segment table, checked
    once and evaluated as one batch.  Bad ``samples``, ``radius``,
    ``tolerances`` (three gates, each > 0, inf allowed), ``axiom3_shift``
    (two finite points of R^dim) or ``axiom3_grid`` raise ``ValueError``
    before any draw.

    Without ``error_control``, or on an exact map, every piece takes the
    map's steps.  With it on a transport map, each law's loops go through
    ``_evaluate`` on their plan, capped at the map's steps per
    segment, so that integration takes a tenth of each gate: axiom 1 at
    gate/10 per triple (alpha o beta, alpha, beta), which shares one step
    count so that the composition defect stays at rounding; axiom 2 at
    gate/10 per thin loop; axiom 3 at gate d**2 / 40 per family loop.  A
    quantity above its tolerance at the cap raises ``IntegrationError``
    naming the law and the loop; a law with an infinite gate accepts the
    first pass.  The report then gives the largest of each law's per-loop
    (axiom 1: per-triple) steps and estimates.
    """
    _check_count(samples, "an audit's samples")
    _check_count(axiom3_grid, "the axiom 3 grid", 3)
    number = lambda x: not isinstance(x, bool) and isinstance(x, (int, float, np.integer, np.floating))
    if not (number(radius) and 0 < radius < np.inf):
        raise ValueError(f"the loops' radius must be a positive finite number, got {radius!r}")
    tolerances = tuple(tolerances)
    if len(tolerances) != 3 or not all(number(t) and t > 0 for t in tolerances):
        raise ValueError(f"an audit needs three positive gates (infinity allowed), got {tolerances!r}")
    base = h_map.basepoint
    shift = np.array((base + 0.5, 0.5 * np.eye(base.size)[0]) if axiom3_shift is None else axiom3_shift, dtype=float)
    if shift.shape != (2, base.size) or not np.isfinite(shift).all():
        raise ValueError(f"axiom3_shift must be two finite points of R^{base.size}, got {axiom3_shift!r}")
    control = error_control and h_map.steps is not None
    tols = [t / 10.0 if control else None for t in tolerances]
    rng = np.random.default_rng(seed)
    laws = [_composition_defects(h_map, _composition_triples(rng, base, samples, radius), tols[0])]
    laws.append(_thin_loop_defects(h_map, _thin_loops(rng, base, samples, radius), tols[1]))
    (anchor, step), us = shift, np.linspace(0.0, 1.0, axiom3_grid)
    family = _shift_rows(radial_family(base), anchor, anchor + us[:, None] * step)
    _check_loops(family, base)
    laws.append(_second_differences(h_map, family, axiom3_grid, 1, tols[2]))
    maxima = [float(np.max(defects, initial=0.0)) for defects, _, _ in laws]
    passed = tuple(bool(a <= t) for a, t in zip(maxima, tolerances))
    if not control:
        return AxiomReport(*maxima, samples, passed)
    steps, estimates = tuple(int(s.max()) for _, s, _ in laws), tuple(float(e.max()) for _, _, e in laws)
    return AxiomReport(*maxima, samples, passed, steps, estimates)
