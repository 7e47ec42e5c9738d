"""Independent oracles the tests check library results against.

Everything here is deliberately primitive (truncated series, polygon
area formulas, exact per-edge integrals, one loop at a time) and shares
no code with the library's own evaluation paths beyond building paths.
The one exception is ``serial_audit``, the audit written as the loop over
single-law checkers that the batched ``audit_axioms`` must reproduce.
"""

import cmath

import numpy as np
import scipy.linalg

from holonomy_forge.holonomy import AxiomReport, check_axiom1, check_axiom2, check_axiom3
from holonomy_forge.path_algebra import (
    LoopAtBase,
    compose_paths,
    invert_path,
    piecewise_power_map,
    radial_family,
    random_polygon_loop,
    random_polyline,
    reconstruction_loop,
    reparametrize,
    thin_reduce,
)


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
    pts = [path.segments[0].points[0]]
    for s in path.segments:
        assert s.kind == "line", "oracle only handles piecewise-line paths"
        pts.append(s.points[-1])
    return np.asarray(pts)


def sequential_rk4_transport(field, path, steps: int) -> np.ndarray:
    """u(1) for u' = -A(b) b' u, u(0) = 1, by textbook RK4 one step at a
    time, projecting the iterate onto the group after every step.

    Coefficients come from the field's pointwise rule.  Velocity abscissae
    at the ends of each smooth piece sit 1e-12 of the span inside it,
    because path velocities are right-continuous at breakpoints.
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
            tv = min(max(t, a + 1e-12 * span), b - 1e-12 * span)
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


def serial_audit(h_map, *, samples, seed, tolerances, radius=0.75, axiom3_family=None, axiom3_grid=21):
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
    if axiom3_family is None:
        psi = radial_family(base)
        anchor = base + 0.5 * np.ones_like(base)
        step = np.zeros_like(base)
        step[0] = 0.5
        axiom3_family = lambda u: reconstruction_loop(psi, anchor, anchor + u * step)
    a3 = check_axiom3(h_map, axiom3_family, axiom3_grid)
    t1, t2, t3 = tolerances
    return AxiomReport(a1, a2, a3, samples, (bool(a1 <= t1), bool(a2 <= t2), bool(a3 <= t3)))
