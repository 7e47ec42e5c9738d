"""Independent oracles the tests check library results against.

Everything here is deliberately primitive (truncated series, polygon
area formulas, exact per-edge integrals, one loop at a time) and shares
no code with the library's own evaluation paths beyond building paths.
The exceptions are ``serial_audit``, the audit written as the loop over
single-law checkers that the batched ``audit_axioms`` must reproduce,
``per_loop_audit_batches``, the audit's random loops built one path at a
time, which its whole-array draws must reproduce bit for bit, and
the path operations one segment at a time (``segment_compose`` and its
siblings on lists of rows ``(cubic flag, 4 control points)``, and
``LazyReparametrization``), the reference forms of the table operations
in ``path_algebra``.  These build their results with the ``PathNd``
constructor and nothing else of the table code they check.  The
connection 1-form and holonomy-only transport have per-loop reference
forms too (``reference_connection_form``, ``reference_horizontal_transport``):
each loop composed leg by leg, its holonomy evaluated alone; their loops
as ``_frame_loops`` built them, one path at a time, before it reduced
rows rather than paths are kept too (``reference_frame_loops``); so has the
frame change (``reference_transition_function``), whose loops are composed
path by path and evaluated as one batch.  The
integration kernel as it stood before a change that must reproduce it
(``reference_transport_products``) is kept here as well, and so are an
oracle for the exact map's line integrals (``reference_line_integrals``),
those integrals keyed on distinct pieces as the exact map summed them
before it integrated every row (``reference_keyed_line_integrals``), the
CSV of a potential formatted one entry at a time
(``reference_potential_grid_csv``),
the coefficient built in complex arithmetic for every group
(``complex_connection_along``) and the thin reduction over row-major
control points (``reference_thin_keep``), the forms the real-dtype kernel
and the coordinate-major thin reduction must reproduce bit for bit.
"""

import cmath

import numpy as np
import scipy.linalg

from holonomy_forge.holonomy import (
    AxiomReport,
    check_axiom1,
    check_axiom2,
    check_axiom3,
    eval_holonomy,
)
from holonomy_forge.lie_core import GroupElement, log_map, project_to_algebra, project_to_group
from holonomy_forge.path_algebra import (
    LoopAtBase,
    PathNd,
    _preimage,
    compose_paths,
    constant_path,
    contract,
    invert_path,
    piecewise_power_map,
    radial_family,
    random_polygon_loop,
    random_polyline,
    reconstruction_loop,
    reparametrize,
    thin_reduce,
)
from holonomy_forge.segment_table import reversed_rows


def taylor_expm(m, terms: int = 20) -> np.ndarray:
    """Matrix exponential by scaling, truncated Taylor series, squaring."""
    m = np.asarray(m, dtype=complex)
    norm = float(np.linalg.norm(m))
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-30) / 0.5))))
    x = m / 2.0**s
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ x / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def _rows(p) -> list:
    """The rows of a path's segment table as (cubic flag, control points)."""
    return list(zip(p.cubic.tolist(), p.ctrl))


def _path(rows, breakpoints):
    """The path of a list of rows and its breakpoints."""
    cubic = np.array([c for c, _ in rows], dtype=bool)
    return PathNd(cubic, np.stack([t for _, t in rows]), breakpoints)


def _split_left(row, u: float):
    """The restriction of a row to [0, u], reparametrized back to [0, 1]."""
    cubic, p = row
    if not cubic:
        q = (1.0 - u) * p[0] + u * p[3]
        return cubic, np.stack([p[0], p[1], q, q])
    a = p[0] + u * (p[1] - p[0])
    b = p[1] + u * (p[2] - p[1])
    c = p[2] + u * (p[3] - p[2])
    ab = a + u * (b - a)
    bc = b + u * (c - b)
    return cubic, np.stack([p[0], a, ab, ab + u * (bc - ab)])


def segment_compose(alpha, beta):
    """``compose_paths`` one row at a time: beta, then alpha."""
    bp = np.concatenate([0.5 * beta.breakpoints, 0.5 + 0.5 * alpha.breakpoints[1:]])
    return _path(_rows(beta) + _rows(alpha), bp)


def segment_invert(p):
    """``invert_path`` one row at a time."""
    rows = [(c, t[::-1]) for c, t in reversed(_rows(p))]
    bp = 1.0 - p.breakpoints[::-1]
    bp[0], bp[-1] = 0.0, 1.0
    return _path(rows, bp)


def segment_contract(p, i: float):
    """``contract`` one row at a time."""
    i = min(max(float(i), 0.0), 1.0)
    if i == 0.0:
        return constant_path(p.point(0.0))
    if i == 1.0:
        return _path(_rows(p), p.breakpoints)
    bp = p.breakpoints
    rows, new_bp = [], [0.0]
    for s, row in enumerate(_rows(p)):
        a, b = bp[s], bp[s + 1]
        if b <= i:
            rows.append(row)
            new_bp.append(b / i)
            if b == i:
                break
        else:
            rows.append(_split_left(row, (i - a) / (b - a)))
            new_bp.append(1.0)
            break
    new_bp[-1] = 1.0
    return _path(rows, np.array(new_bp))


def _scale(points) -> float:
    return 1.0 + float(np.max(np.abs(points)))


def segment_thin_reduce(p, tol: float = 1e-12):
    """``thin_reduce`` one row at a time: drop zero-length rows, then
    cancel each row against an exact reversal of the one before it with a
    stack, which reaches the fixed point."""
    stack = []
    for (cubic, t), span in zip(_rows(p), np.diff(p.breakpoints)):
        if np.max(np.abs(t - t[0])) <= tol * _scale(t):
            continue
        if stack:
            (top_cubic, top), _ = stack[-1]
            gap = np.max(np.abs(top - t[::-1])) if top_cubic == cubic else np.inf
            if gap <= tol * max(_scale(top), _scale(t)):
                stack.pop()
                continue
        stack.append(((cubic, t), span))
    if not stack:
        return constant_path(p.point(0.0))
    spans = np.array([span for _, span in stack])
    bp = np.concatenate([[0.0], np.cumsum(spans)]) / spans.sum()
    bp[-1] = 1.0
    return _path([row for row, _ in stack], bp)


class LazyReparametrization:
    """``reparametrize`` as a lazy composition p(phi(i)): points and
    velocities go through the base path and the time map at global
    parameters, and velocity abscissae at the ends of each piece sit
    1e-12 of the span inside it, because velocities are right-continuous
    at breakpoints."""

    def __init__(self, path, phi):
        self.path, self.phi = path, phi
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

    def point(self, i):
        return self.path.point(self.phi.point(i)[..., 0])

    def velocity(self, i):
        dphi = self.phi.velocity(i)[..., 0]
        v = self.path.velocity(self.phi.point(i)[..., 0])
        return v * (dphi[..., None] if np.ndim(dphi) else dphi)

    def piece_samples(self, u) -> tuple[np.ndarray, np.ndarray]:
        """Points and velocities d/du at local parameters u on every smooth
        piece, each (pieces, len(u), dim)."""
        u = np.asarray(u, dtype=float)
        a, b = self.breakpoints[:-1, None], self.breakpoints[1:, None]
        span = b - a
        ts = (1.0 - u) * a + u * b
        tv = np.clip(ts, a + 1e-12 * span, b - 1e-12 * span)
        shape = ts.shape + (self.path.dim,)
        pts = self.point(ts.reshape(-1)).reshape(shape)
        vels = self.velocity(tv.reshape(-1)).reshape(shape) * span[..., None]
        return pts, vels


def brentq_breakpoints(path, phi) -> np.ndarray:
    """Breakpoints of ``reparametrize(path, phi)``: phi's own breakpoints and
    the preimages under phi of the interior breakpoints of ``path``, found
    by SciPy's ``brentq`` on the whole time map, then merged as the library
    merges them (a breakpoint within 1e-12 of the previous one is dropped,
    and the last one is 1)."""
    from scipy.optimize import brentq

    bps = set(float(b) for b in phi.breakpoints)
    for b in np.asarray(path.breakpoints)[1:-1]:
        f = lambda t, target=float(b): float(phi.point(t)[0]) - target
        if f(0.0) < 0 < f(1.0):
            bps.add(float(brentq(f, 0.0, 1.0, xtol=1e-15)))
    merged = [0.0]
    for b in sorted(bps):
        if b - merged[-1] > 1e-12:
            merged.append(b)
    merged[-1] = 1.0
    return np.array(merged)


def loop_axiom3(h_map, family, grid: int, k: int = 1) -> float:
    """``check_axiom3`` node by node: the holonomies in an object array,
    then one second difference per interior node and axis."""
    us = np.linspace(0.0, 1.0, grid)
    delta = float(us[1] - us[0])
    shape = (grid,) * k
    values = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        values[idx] = h_map(family(float(us[idx[0]]) if k == 1 else us[list(idx)])).matrix
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


def shoelace_area(vertices) -> float:
    """Signed area of a closed polygon (positive = counterclockwise)."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polyline_ydx_integral(vertices) -> float:
    """Exact integral of y dx along a polyline.

    Along a straight edge y is linear in x, so the trapezoid value per
    edge is exact; for a closed polygon this equals minus the shoelace
    area (Green's theorem).
    """
    v = np.asarray(vertices, dtype=float)
    total = 0.0
    for a, b in zip(v[:-1], v[1:]):
        total += 0.5 * (a[1] + b[1]) * (b[0] - a[0])
    return total


def polyline_vertices(path_or_loop) -> np.ndarray:
    """Vertex chain of a piecewise-line path."""
    path = getattr(path_or_loop, "path", path_or_loop)
    assert not path.cubic.any(), "oracle only handles piecewise-line paths"
    return np.concatenate([path.ctrl[:1, 0], path.ctrl[:, 3]])


def sequential_rk4_transport(field, path, steps: int) -> np.ndarray:
    """u(1) for u' = -A(b) b' u, u(0) = 1, by textbook RK4 one step at a
    time, projecting the iterate onto the group after every step.

    Coefficients come from the field's pointwise rule.  Velocity abscissae
    at the ends of each smooth piece sit 1e-12 of the span, and at least
    one float, inside it, because path velocities are right-continuous at
    breakpoints.
    """
    spec = field.spec
    d = spec.matrix_dim
    u = np.eye(d, dtype=complex)
    bps = np.asarray(path.breakpoints, dtype=float)
    for a, b in zip(bps[:-1], bps[1:]):
        span = b - a
        h = span / steps

        def coeff(t):
            x = path.point(np.array([t]))[0]
            tv = min(max(t, a + 1e-12 * span), b - 1e-12 * span, np.nextafter(b, a))
            v = path.velocity(np.array([tv]))[0]
            return -sum(field.component(x, mu).matrix * v[mu] for mu in range(field.dim))

        for k in range(steps):
            t = a + k * h
            m1, m2, m4 = coeff(t), coeff(t + 0.5 * h), coeff(t + h)
            k1 = m1 @ u
            k2 = m2 @ (u + 0.5 * h * k1)
            k3 = m2 @ (u + 0.5 * h * k2)
            k4 = m4 @ (u + h * k3)
            u = _project_iterate(spec.name.value, u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
    return u


def _project_iterate(group: str, u) -> np.ndarray:
    if group == "MultiplicativeReals":
        assert u[0, 0].real > 0, "iterate left the positive reals"
        return u.real.astype(complex)
    if group == "U1":
        return u / abs(u[0, 0])
    if group == "SU2":
        # unitary polar factor from the SVD, then unit determinant
        w, _, vh = np.linalg.svd(u)
        q = w @ vh
        return q / np.sqrt(np.linalg.det(q))
    return u


def reference_potential(field, psi, x, mu: int, h: float, richardson: bool, steps: int) -> np.ndarray:
    """A_mu(x) reconstructed one difference loop at a time.

    Each loop is built by ``reconstruction_loop`` and ``thin_reduce``, its
    holonomy is u(1)^{-1} from ``sequential_rk4_transport``, and its
    logarithm is the scalar ``cmath.log`` or SciPy's ``logm``; the central
    differences and the Richardson step follow the difference scheme.
    """
    x = np.asarray(x, dtype=float)
    step = np.zeros_like(x)
    step[mu] = 1.0

    def log_holonomy(y):
        path = thin_reduce(reconstruction_loop(psi, x, y).path)
        hol = np.linalg.inv(sequential_rk4_transport(field, path, steps))
        if hol.shape == (1, 1):
            return np.array([[cmath.log(hol[0, 0])]])
        return scipy.linalg.logm(hol)

    def difference(hh):
        return (log_holonomy(x + hh * step) - log_holonomy(x - hh * step)) / (2.0 * hh)

    d = difference(h)
    if richardson:
        d = (4.0 * difference(h / 2.0) - d) / 3.0
    return d


def reference_loop_between(curve, j: float, i: float) -> LoopAtBase:
    """The based loop chi(i)^{-1} o K(p,i) o K(p,j)^{-1} o chi(j) of a
    trivialized curve, composed leg by leg and thin-reduced: chi(t) is the
    frame path to p(t), the frame path to the fixed foot point on a
    vertical curve, whose legs K are its constant base curve."""
    p, psi = curve.base_curve, curve.psi
    if p.is_constant():
        chi, ki, kj = (lambda t: psi[p.start]), p, p
    else:
        chi, ki, kj = (lambda t: psi[p.point(t)]), contract(p, i), contract(p, j)
    path = compose_paths(invert_path(kj), chi(j))
    path = compose_paths(ki, path)
    path = compose_paths(invert_path(chi(i)), path)
    return LoopAtBase(thin_reduce(path), psi.basepoint)


def reference_connection_form(h_map, curve, j: float, h: float, richardson: bool) -> np.ndarray:
    """The connection 1-form on the tangent of a curve at j, one loop and one
    holonomy at a time: central differences over i of
    log( (g(j)^{-1} H(loop(j, i))) g(i) ), with the Richardson step."""
    spec = h_map.spec
    gj_inv = curve.g(j).inverse().matrix

    def value(i):
        hol = eval_holonomy(h_map, reference_loop_between(curve, j, i))
        m = GroupElement(spec, project_to_group(spec, gj_inv @ hol.matrix @ curve.g(i).matrix)).matrix
        return log_map(m[None], spec)[0]

    def difference(hh):
        return (value(j + hh) - value(j - hh)) / (2.0 * hh)

    d = difference(h)
    if richardson:
        d = (4.0 * difference(h / 2.0) - d) / 3.0
    return project_to_algebra(spec, d)


def reference_horizontal_transport(h_map, psi, p, g0, i: float):
    """Holonomy-only transport of g0 along p to p(i): H(loop) g0 with the
    loop (K(p,i) o psi[p(0)])^{-1} o psi[p(i)], composed leg by leg."""
    reach = compose_paths(contract(p, i), psi[p.point(0.0)])
    loop = compose_paths(invert_path(reach), psi[p.point(float(i))])
    return eval_holonomy(h_map, LoopAtBase(thin_reduce(loop), psi.basepoint)) @ g0


def reference_frame_loops(psi, paths, j: float, params) -> list:
    """The loops of ``reconstruction._frame_loops`` built as they were
    before its rows were thin-reduced as a table, one path at a time: each
    loop's legs joined into one path, which ``thin_reduce`` then rebuilds."""
    ts, loops = [j, *params], []
    for p in paths:
        cubic, ctrl = psi.tables(np.stack([p.point(t) for t in ts]))
        moving = not p.is_constant()
        legs = []
        for t, c, x in zip(ts, cubic, ctrl):
            if moving and t:
                k = contract(p, t)
                kc, kx = reversed_rows(k.cubic, k.ctrl)
                c, x = np.concatenate([c, kc]), np.concatenate([x, kx])
            legs.append((c, x))
        cj, xj = legs[0]
        for c, x in legs[1:]:
            c, x = reversed_rows(c, x)
            rows, points = np.concatenate([cj, c]), np.concatenate([xj, x])
            path = thin_reduce(PathNd(rows, points, np.linspace(0.0, 1.0, len(rows) + 1)))
            loops.append(LoopAtBase(path, psi.basepoint))
    return loops


def reference_transition_function(h_map, psi, psi2, xs) -> np.ndarray:
    """The frame-change values H(psi2[x]^{-1} o psi[x]) of an (m, dim)
    array of points, each loop composed from the two frame paths and
    thin-reduced, all evaluated as one batch."""
    loops = [thin_reduce(compose_paths(invert_path(psi2[y]), psi[y])) for y in xs]
    return eval_holonomy(h_map, [LoopAtBase(path, psi.basepoint) for path in loops])


def _shift_family(base, shift):
    """The audit's smoothness family u -> reconstruction_loop(radial_family(base),
    anchor, anchor + u step) for shift = (anchor, step), (base + 0.5, 0.5 e1)
    when None, one loop per call."""
    psi = radial_family(base)
    if shift is None:
        anchor = base + 0.5 * np.ones_like(base)
        step = np.zeros_like(base)
        step[0] = 0.5
    else:
        anchor, step = (np.array(p, dtype=float) for p in shift)
    return lambda u: reconstruction_loop(psi, anchor, anchor + u * step)


def serial_audit(h_map, *, samples, seed, tolerances, radius=0.75, axiom3_shift=None, axiom3_grid=21):
    """The randomized audit of ``audit_axioms``, one checker call per loop
    pair, thin loop and family grid, drawing the same random loops in the
    same order."""
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
    a3 = check_axiom3(h_map, _shift_family(base, axiom3_shift), axiom3_grid)
    t1, t2, t3 = tolerances
    return AxiomReport(a1, a2, a3, samples, (bool(a1 <= t1), bool(a2 <= t2), bool(a3 <= t3)))


def per_loop_audit_batches(basepoint, samples: int, seed: int, radius: float = 0.75):
    """The random loops of ``audit_axioms`` built one path at a time, as
    the audit built them before it drew whole arrays: the composition
    triples (alpha o beta, alpha, beta) and the thin loops (p o p^-1, every
    odd one reparametrized) as ``stack_tables`` batches, and the range of
    the global parameter of every thin-loop row."""
    from holonomy_forge.segment_table import stack_tables

    rng = np.random.default_rng(seed)
    base = np.asarray(basepoint, dtype=float)
    triples = []
    for _ in range(samples):
        alpha = random_polygon_loop(rng, base, n_vertices=4, radius=radius)
        beta = random_polygon_loop(rng, base, n_vertices=4, radius=radius)
        triples += [compose_paths(alpha.path, beta.path), alpha.path, beta.path]
    thin = []
    phi = piecewise_power_map(3, 0.5)
    for k in range(samples):
        p = random_polyline(rng, base, n_segments=2, radius=radius)
        path = compose_paths(invert_path(p), p)
        thin.append(reparametrize(path, phi) if k % 2 else path)
    spans = np.concatenate([np.diff(p.breakpoints) for p in thin])
    return stack_tables(triples), stack_tables(thin), spans


def reference_transport_products(field, batch, steps_per_segment: int, half: bool = False) -> np.ndarray:
    """The single-pass transport kernel as it stood before integration
    plans: the 2-step probe over every probed distinct piece of the batch,
    then the n-step pass (with ``half`` also n/2) over every piece it does
    not accept, and the per-chain products.  A plan's passes must give
    these values bit for bit."""
    from holonomy_forge.holonomy import (
        _PROBE_SAMPLES,
        _PROBE_SCALE,
        _ROUNDING_GAP,
        IntegrationError,
        _check_representable,
        _connection_along,
        _distinct_pieces,
        _ordered_products,
        _probed,
        _rk4_products,
        _sampled,
    )

    spec = field.spec
    n = steps_per_segment

    def kernel(pts, vels):
        p, bad = _rk4_products(spec, -_connection_along(field, pts, vels), n, half)
        if bad.any():
            raise IntegrationError(f"RK4 step propagator left the positive reals ({n} steps per piece)")
        return p

    def probe(pts, vels):
        m = -_connection_along(field, pts, vels)
        p, bad = _rk4_products(spec, m, 2, True)
        p2, p1 = p[:, 0], p[:, 1]
        keep = (np.abs(m).max(axis=(1, 2, 3)) <= _PROBE_SCALE) & ~bad
        scale = np.abs(p2).max(axis=(1, 2))
        keep &= (np.abs(p1 - p2).max(axis=(1, 2)) <= _ROUNDING_GAP * scale) & (scale < np.inf)
        return np.where(keep[:, None, None], p2, np.nan)

    lattice = np.linspace(0.0, 1.0, 2 * n + 1)
    rep, where = _distinct_pieces(batch)
    probed = np.flatnonzero(_probed(field.degree, batch, rep)) if n > 2 else rep[:0]
    with np.errstate(over="ignore", invalid="ignore"):
        if probed.size:
            p2 = _sampled(batch, rep[probed], _PROBE_SAMPLES, probe)
            p = np.full((len(rep), 2 if half else 1) + p2.shape[1:], np.nan, dtype=p2.dtype)
            p[probed] = p2[:, None]
            redo = np.flatnonzero(np.isnan(p).any(axis=(1, 2, 3)))
            if redo.size:
                p[redo] = _sampled(batch, rep[redo], lattice, kernel)
        else:
            p = _sampled(batch, rep, lattice, kernel)
        u = [_ordered_products(p[where, k], batch.counts) for k in range(p.shape[1])]
    for v in u:
        _check_representable(v, "the transport value u(1)")
    return np.stack(u) if half else u[0]


def reference_line_integrals(field, batch) -> np.ndarray:
    """An oracle for the exact map's line integrals: SciPy's 32-node
    Gauss-Legendre rule on every distinct piece of the batch, summed per
    chain.  Wherever the integrand has degree <= 63 both this rule and the
    map's are exact, so they agree to rounding, relative to the integral of
    the absolute integrand."""
    from scipy.special import roots_legendre

    from holonomy_forge.holonomy import _connection_along, _distinct_pieces, _sampled

    nodes, weights = roots_legendre(32)
    u, w = 0.5 * (nodes + 1.0), 0.5 * weights

    def kernel(pts, vels):
        return (_connection_along(field, pts, vels)[..., 0, 0] * w).sum(axis=1)

    rep, where = _distinct_pieces(batch)
    totals = np.zeros(len(batch.counts), dtype=np.complex128)
    np.add.at(totals, np.repeat(np.arange(len(batch.counts)), batch.counts), _sampled(batch, rep, u, kernel)[where])
    return totals


def reference_keyed_line_integrals(field, batch) -> np.ndarray:
    """The exact map's line integrals as they were computed before every
    row was integrated: each distinct piece (``_distinct_pieces``) once,
    at the node count of its degree, then gathered into every row that
    repeats it and summed per chain.  The unkeyed sums must equal these
    bit for bit."""
    from holonomy_forge.holonomy import (
        _GL_MAX,
        _connection_along,
        _distinct_pieces,
        _gauss_legendre,
        _piece_degrees,
        _sampled,
    )

    rep, where = _distinct_pieces(batch)
    nodes = _piece_degrees(field.degree, batch, rep, lambda k: min(k // 2 + 1, _GL_MAX))
    if nodes is None:
        nodes = np.full(len(rep), _GL_MAX)
    values = np.empty(len(rep), dtype=np.complex128)
    for n in sorted(set(nodes.tolist())):
        u, w = _gauss_legendre(n)
        w, rows = w.astype(np.complex128), np.flatnonzero(nodes == n)
        values[rows] = _sampled(
            batch, rep[rows], u, lambda pts, vels: (_connection_along(field, pts, vels)[..., 0, 0] * w).sum(axis=1)
        )
    totals = np.zeros(len(batch.counts), dtype=np.complex128)
    np.add.at(totals, np.repeat(np.arange(len(batch.counts)), batch.counts), values[where])
    return totals


def reference_potential_grid_csv(values, grid) -> str:
    """``potential_grid_csv`` formatting every numpy scalar with its own
    f-string, the form whose text the one-template rows must reproduce
    byte for byte."""
    values = np.asarray(values, dtype=complex)
    dim, d = len(values), values.shape[-1]
    entries = [f"{part}_{r}_{c}" for r in range(d) for c in range(d) for part in ("re", "im")]
    lines = [",".join([f"x{k + 1}" for k in range(dim)] + ["mu"] + entries)]
    nodes = grid.nodes(dim)
    if values.shape != (dim, len(nodes), d, d):
        raise ValueError(f"values of shape {values.shape} for {len(nodes)} nodes in R^{dim}")
    for k, x in enumerate(nodes):
        for mu in range(dim):
            row = [f"{v:.17g}" for v in x] + [str(mu)]
            lines.append(",".join(row + [f"{v:.17g}" for e in values[mu, k].ravel() for v in (e.real, e.imag)]))
    return "\n".join(lines) + "\n"


def controlled_holonomies(h_map, loops, tol: float):
    """The holonomies of a group of loops that share one step count, one
    group at a time: at the first n = min(8, N), 2 min(8, N), ... <= N
    (N the map's steps per segment) whose estimate
    max|H_n - H_{n/2}| / 15 over the group is at most tol, each value
    from its own fixed-step map.  Returns the matrices, n and the
    estimate; raises ``IntegrationError`` above tol at N."""
    from holonomy_forge.holonomy import IntegrationError

    cap = h_map.steps
    n = min(8, cap)
    while True:
        h = [eval_holonomy(h_map.with_steps(n), loop).matrix for loop in loops]
        h_half = [eval_holonomy(h_map.with_steps(n // 2), loop).matrix for loop in loops]
        est = max(float(np.abs(a - b).max()) for a, b in zip(h, h_half)) / 15.0
        if est <= tol:
            return h, n, est
        if 2 * n > cap:
            raise IntegrationError(f"estimate {est:.3g} exceeds {tol:.3g} at the cap {cap}")
        n *= 2


def serial_controlled_audit(h_map, *, samples, seed, tolerances, radius=0.75, axiom3_shift=None, axiom3_grid=21):
    """The error-controlled audit one quantity at a time: each loop pair,
    thin loop and family loop takes its own step count by
    ``controlled_holonomies``, at a tenth of its law's gate (per family
    loop gate d^2 / 40 for the grid step d), and its defect is that of the
    single-law checker on the fixed map at that count."""
    rng = np.random.default_rng(seed)
    base = h_map.basepoint
    t1, t2, t3 = tolerances
    steps, estimates = [0, 0, 0], [0.0, 0.0, 0.0]

    def take(law, loops, tol):
        h, n, est = controlled_holonomies(h_map, loops, tol)
        steps[law], estimates[law] = max(steps[law], n), max(estimates[law], est)
        return h, n

    a1 = 0.0
    for _ in range(samples):
        alpha = random_polygon_loop(rng, base, n_vertices=4, radius=radius)
        beta = random_polygon_loop(rng, base, n_vertices=4, radius=radius)
        composed = LoopAtBase(compose_paths(alpha.path, beta.path), base)
        _, n = take(0, [composed, alpha, beta], t1 / 10.0)
        a1 = max(a1, check_axiom1(h_map.with_steps(n), alpha, beta))
    a2 = 0.0
    phi = piecewise_power_map(3, 0.5)
    for k in range(samples):
        p = random_polyline(rng, base, n_segments=2, radius=radius)
        path = compose_paths(invert_path(p), p)
        if k % 2:
            path = reparametrize(path, phi)
        _, n = take(1, [LoopAtBase(path, base)], t2 / 10.0)
        a2 = max(a2, check_axiom2(h_map.with_steps(n), LoopAtBase(path, base)))
    family = _shift_family(base, axiom3_shift)
    us = np.linspace(0.0, 1.0, axiom3_grid)
    delta = float(us[1] - us[0])
    v = np.array([take(2, [family(float(u))], t3 / 10.0 * delta**2 / 4.0)[0][0] for u in us])
    a3 = max(float(np.linalg.norm(s)) / delta**2 for s in v[2:] - 2.0 * v[1:-1] + v[:-2])
    passed = (bool(a1 <= t1), bool(a2 <= t2), bool(a3 <= t3))
    return AxiomReport(a1, a2, a3, samples, passed, tuple(steps), tuple(estimates))


def complex_connection_along(field, pts, vels) -> np.ndarray:
    """The coefficient sum_mu A_mu(x) dx_mu/du of ``_connection_along`` in
    complex128 for every group, from the field's rule cast to complex128:
    the arithmetic the transport kernel did for real groups before it
    computed in their own dtype."""
    d = field.spec.matrix_dim
    flat, v = pts.reshape(-1, field.dim), vels.reshape(-1, field.dim)
    out = np.zeros((len(flat), d, d), dtype=np.complex128)
    for mu in range(field.dim):
        out += field.rule(flat, mu).astype(np.complex128) * v[:, mu, None, None]
    return out.reshape(pts.shape[:2] + (d, d))


def reference_thin_keep(cubic, ctrl, counts, tol: float) -> np.ndarray:
    """``segment_table.thin_keep`` reducing over row-major (rows, 4, dim)
    control points, one fancy-indexed gather per side of each test: the
    mask of segments that survive dropping zero-length rows and cancelling
    exact adjacent retracings within each chain."""
    scale = 1.0 + np.abs(ctrl).max(axis=(1, 2))
    keep = np.abs(ctrl - ctrl[:, :1]).max(axis=(1, 2)) > tol * scale
    owner = np.repeat(np.arange(len(counts)), counts)

    def retraces(a, b):
        return (cubic[a] == cubic[b]) & (
            np.abs(ctrl[a] - ctrl[b, ::-1]).max(axis=(-2, -1)) <= tol * np.maximum(scale[a], scale[b])
        )

    idx = np.flatnonzero(keep)
    a, b = idx[:-1], idx[1:]
    flagged = (owner[a] == owner[b]) & retraces(a, b)
    for chain in sorted(set(owner[a[flagged]].tolist())):
        members = idx[owner[idx] == chain]
        stack: list[int] = []
        for j in members:
            if stack and retraces(stack[-1], j):
                stack.pop()
            else:
                stack.append(j)
        keep[members] = False
        keep[stack] = True
    return keep
