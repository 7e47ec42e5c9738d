"""Matrix Lie groups and algebras used as gauge groups.

The supported groups are small enough to keep as dense matrices: the
positive multiplicative reals, U(1), SU(2) and GL(n).  Group and algebra
elements are immutable wrappers around numpy matrices.  Operations that
can drift off the group manifold (products, exponentials, transport
steps) re-project onto it, so values stay valid across thousands of
integrator steps.

Conventions:

* the algebra of U(1) is the purely imaginary numbers, the algebra of the
  multiplicative reals is the reals, su(2) is anti-Hermitian traceless;
* ``log_map`` is restricted to a principal-branch trust region around the
  identity (Frobenius distance < 0.5) and raises ``FarFromIdentity``
  outside it -- callers differentiating holonomies should shrink their
  step instead of crossing branch cuts.

Batch paths work on (k, d, d) stacks and build no elements: the
projections and ``log_map`` take stacks, and ``_check_group``,
``_check_algebra`` and ``_inverse`` are the one group check, algebra check
and inverse, run once per stack; an element is their batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "GroupName",
    "GroupSpec",
    "GroupElement",
    "AlgebraElement",
    "SpecMismatch",
    "FarFromIdentity",
    "MULTIPLICATIVE_REALS",
    "U1",
    "SU2",
    "gln",
    "exp_map",
    "log_map",
    "group_distance",
    "project_to_group",
    "project_to_algebra",
    "su2_basis",
    "algebra_basis",
]

_DET_TOL = 1e-12
_GROUP_TOL = 1e-10
_ALGEBRA_TOL = 1e-12
_LOG_TRUST_RADIUS = 0.5


class SpecMismatch(ValueError):
    """Operands belong to different group specifications."""


class FarFromIdentity(ValueError):
    """Logarithm requested outside the principal-branch trust region."""


class GroupName(Enum):
    MULTIPLICATIVE_REALS = "MultiplicativeReals"
    U1 = "U1"
    SU2 = "SU2"
    GLN = "GLn"


@dataclass(frozen=True)
class GroupSpec:
    """Structural description of a matrix Lie group.

    ``matrix_dim`` is the size of the defining representation,
    ``algebra_dim`` the real dimension of the Lie algebra.
    """

    name: GroupName
    matrix_dim: int
    scalar_field: str  # "real" | "complex"
    algebra_dim: int

    def __post_init__(self):
        if self.matrix_dim < 1:
            raise ValueError("matrix_dim must be positive")
        if self.scalar_field not in ("real", "complex"):
            raise ValueError(f"unknown scalar field {self.scalar_field!r}")
        fixed = {
            GroupName.MULTIPLICATIVE_REALS: (1, "real", 1),
            GroupName.U1: (1, "complex", 1),
            GroupName.SU2: (2, "complex", 3),
        }
        if self.name in fixed:
            expected = fixed[self.name]
            got = (self.matrix_dim, self.scalar_field, self.algebra_dim)
            if got != expected:
                raise ValueError(f"{self.name.value} requires {expected}, got {got}")
        elif self.algebra_dim != self.matrix_dim**2:
            raise ValueError("GLn algebra dimension must be matrix_dim**2")

    @property
    def dtype(self):
        return np.complex128 if self.scalar_field == "complex" else np.float64

    @property
    def is_abelian(self) -> bool:
        return self.matrix_dim == 1


MULTIPLICATIVE_REALS = GroupSpec(GroupName.MULTIPLICATIVE_REALS, 1, "real", 1)
U1 = GroupSpec(GroupName.U1, 1, "complex", 1)
SU2 = GroupSpec(GroupName.SU2, 2, "complex", 3)


def gln(n: int, scalar_field: str = "real") -> GroupSpec:
    """General linear group of real (default) or complex n x n matrices."""
    return GroupSpec(GroupName.GLN, n, scalar_field, n**2)


def _det2(x: np.ndarray) -> np.ndarray:
    return (x[..., 0, 0] * x[..., 1, 1] - x[..., 0, 1] * x[..., 1, 0])[..., None, None]


_COFACTOR_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _project_su2(m: np.ndarray) -> np.ndarray:
    # Newton iteration x <- (x + x^-H) / 2 for the unitary polar factor of
    # each matrix in a (..., 2, 2) stack, then det normalisation; two steps
    # reach machine precision for the drift-scale corrections seen after
    # integrator steps.  x^-1 is the cofactor transpose over det.
    x = np.asarray(m, dtype=np.complex128)
    for _ in range(2):
        x = 0.5 * (x + (x[..., ::-1, ::-1] * _COFACTOR_SIGNS / _det2(x)).conj())
    return x / np.sqrt(_det2(x))


def project_to_group(spec: GroupSpec, matrix: np.ndarray) -> np.ndarray:
    """Project a near-group matrix, or a (..., d, d) stack of them, back
    onto the group manifold."""
    m = np.asarray(matrix)
    name = spec.name
    if name is GroupName.MULTIPLICATIVE_REALS:
        return np.real(m)
    if name is GroupName.U1:
        m = np.where(m != 0, m, 1.0 + 0j)
        return m / np.abs(m)
    if name is GroupName.SU2:
        return _project_su2(m)
    # GL(n): no constraint beyond invertibility; keep the scalar field.
    if spec.scalar_field == "real":
        return np.real(m).astype(np.float64)
    return m.astype(np.complex128)


def _adjoint(m: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(m, -1, -2))


def project_to_algebra(spec: GroupSpec, matrix: np.ndarray) -> np.ndarray:
    """Project a near-algebra matrix, or a (..., d, d) stack of them, onto
    the Lie algebra."""
    m = np.asarray(matrix)
    name = spec.name
    if name is GroupName.U1:
        return 1j * np.imag(m)
    if name is GroupName.SU2:
        m = m.astype(np.complex128)
        ah = 0.5 * (m - _adjoint(m))
        return ah - (0.5 * (ah[..., 0, 0] + ah[..., 1, 1]))[..., None, None] * np.eye(2)
    # The positive reals and GL(n): no constraint; keep the scalar field.
    return np.real(m).astype(np.float64) if spec.scalar_field == "real" else m.astype(np.complex128)


def _stack(spec: GroupSpec, stack) -> np.ndarray:
    """A (k, d, d) stack of finite matrices, or ``ValueError``."""
    m, d = np.asarray(stack), spec.matrix_dim
    if m.ndim != 3 or m.shape[1:] != (d, d):
        raise ValueError(f"expected a stack of {d}x{d} matrices, got shape {m.shape}")
    _require(np.isfinite(m).all(axis=(1, 2)), lambda k: f"matrix {k} of the stack has entries that are not finite")
    return m


def _require(ok: np.ndarray, message):
    """``ValueError`` unless ``ok`` holds throughout; its message is
    ``message``, or ``message(k)`` for the first k that fails if callable."""
    k = np.flatnonzero(~ok)
    if k.size:
        raise ValueError(message(k[0]) if callable(message) else message)


def _check_group(spec: GroupSpec, stack) -> np.ndarray:
    """The (k, d, d) stack of group matrices in the group's dtype, or
    ``ValueError`` for the first matrix that is not in the group."""
    # |det| is relative to the Frobenius norm (its bound by Hadamard's
    # inequality), so a positive real of 1e-130 is not taken for singular;
    # both are of the matrix scaled to a largest entry of 1, so that neither
    # overflows at 1e195.
    m = np.asarray(_stack(spec, stack), dtype=spec.dtype)
    scale = np.abs(m).max(axis=(1, 2))
    _require(scale > 0.0, lambda k: f"matrix is not invertible (largest entry {scale[k]})")
    unit = m / scale[:, None, None]
    det = np.linalg.det(unit)
    _require(
        np.abs(det) > _DET_TOL * np.linalg.norm(unit, axis=(1, 2)) ** spec.matrix_dim,
        lambda k: f"matrix is not invertible (|det| = {abs(det[k]):.3e} at a largest entry of 1)",
    )
    name, m00 = spec.name, m[:, 0, 0]
    if name is GroupName.MULTIPLICATIVE_REALS:
        _require(m00 > 0, "multiplicative-reals element must be positive")
    if name is GroupName.U1:
        _require(np.abs(np.abs(m00) - 1.0) <= _GROUP_TOL, lambda k: f"U(1) element has modulus {abs(m00[k])!r}")
    if name is GroupName.SU2:
        _require(np.linalg.norm(m @ _adjoint(m) - np.eye(2), axis=(1, 2)) <= _GROUP_TOL, "SU(2) element is not unitary")
        det = det * scale**2
        _require(np.abs(det - 1.0) <= _GROUP_TOL, lambda k: f"SU(2) element has det {det[k]!r}")
    return m


def _check_algebra(spec: GroupSpec, stack, project: bool = False) -> np.ndarray:
    """The (k, d, d) stack of algebra matrices in the group's dtype, with
    ``project`` after ``project_to_algebra``, or ``ValueError`` for the
    first matrix that is not in the algebra.  Entries that are not finite
    are refused first, before the projection could drop them."""
    m = _stack(spec, stack)
    m = np.asarray(project_to_algebra(spec, m) if project else m, dtype=spec.dtype)
    if spec.name is GroupName.U1:
        _require(np.abs(m[:, 0, 0].real) <= _ALGEBRA_TOL, "u(1) element must be purely imaginary")
    if spec.name is GroupName.SU2:
        _require(np.linalg.norm(m + _adjoint(m), axis=(1, 2)) <= _ALGEBRA_TOL, "su(2) element must be anti-Hermitian")
        _require(np.abs(np.trace(m, axis1=1, axis2=2)) <= _ALGEBRA_TOL, "su(2) element must be traceless")
    return m


def _inverse(spec: GroupSpec, stack: np.ndarray) -> np.ndarray:
    """Inverses of a (k, d, d) stack of group matrices, projected onto the group."""
    if spec.name is GroupName.MULTIPLICATIVE_REALS:
        inv = 1.0 / stack
    elif spec.name in (GroupName.U1, GroupName.SU2):
        inv = _adjoint(stack)
    else:
        inv = np.linalg.inv(stack)
    return project_to_group(spec, inv)


@dataclass(frozen=True, eq=False)
class _Element:
    """A read-only copy of one matrix, checked by ``_check`` as a batch of one."""

    spec: GroupSpec
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=self.spec.dtype)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        self.validate()

    def validate(self):
        self._check(self.spec, self.matrix[None])

    def __repr__(self):
        return f"{type(self).__name__}({self.spec.name.value}, {self.matrix.tolist()})"


class GroupElement(_Element):
    """A member of a matrix Lie group."""

    _check = staticmethod(_check_group)

    @classmethod
    def identity(cls, spec: GroupSpec) -> "GroupElement":
        return cls(spec, np.eye(spec.matrix_dim, dtype=spec.dtype))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.spec, _inverse(self.spec, self.matrix[None])[0])

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if self.spec != other.spec:
            raise SpecMismatch("cannot multiply elements of different groups")
        return GroupElement(self.spec, project_to_group(self.spec, self.matrix @ other.matrix))


class AlgebraElement(_Element):
    """A member of the Lie algebra (tangent space at the identity)."""

    _check = staticmethod(_check_algebra)

    @classmethod
    def zero(cls, spec: GroupSpec) -> "AlgebraElement":
        return cls(spec, np.zeros((spec.matrix_dim, spec.matrix_dim), dtype=spec.dtype))

    @classmethod
    def from_matrix(cls, spec: GroupSpec, matrix) -> "AlgebraElement":
        """Build an element, projecting away numerical drift first."""
        return cls(spec, _check_algebra(spec, np.asarray(matrix)[None], project=True)[0])

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix))


def _exp_su2(x: np.ndarray) -> np.ndarray:
    # x is traceless, so x^2 = -det(x) I and exp(x) = cos(t) I + sin(t)/t x
    # with t^2 = det(x), the counterpart of _log_su2 (Higham, Functions of
    # Matrices, 2008).  det(x) is real and >= 0 for anti-Hermitian x; near
    # t = 0 the Taylor series of sin(t)/t is exact to rounding.
    t2 = max(_det2(x).real.item(), 0.0)
    t = math.sqrt(t2)
    ratio = 1.0 - t2 / 6.0 + t2 * t2 / 120.0 if t < 1e-4 else math.sin(t) / t
    return math.cos(t) * np.eye(2) + ratio * x


def exp_map(x: AlgebraElement) -> GroupElement:
    """Exponential map from the algebra into the group.

    1x1 groups and SU(2) use closed forms; GL(n) uses SciPy's ``expm``.
    """
    if x.spec.matrix_dim == 1:
        m = np.exp(x.matrix)
    elif x.spec.name is GroupName.SU2:
        m = _exp_su2(x.matrix)
    else:
        import scipy.linalg

        m = scipy.linalg.expm(x.matrix)
    return GroupElement(x.spec, project_to_group(x.spec, m))


def _log_su2(m: np.ndarray) -> np.ndarray:
    # Axis-angle form: m = cos(t) I + sin(t) (i n.sigma), so the
    # anti-Hermitian part a = (m - m^H)/2 is sin(t) (i n.sigma), with
    # |a|_F = sqrt(2) sin(t), and log m = t / sin(t) * a.  The factor
    # t / sin(t) is insensitive to rounding in sin(t), so the result is as
    # accurate as a itself.
    a = 0.5 * (m - _adjoint(m))
    sin_t = np.linalg.norm(a, axis=(-2, -1)) / math.sqrt(2.0)
    t = np.arctan2(sin_t, 0.5 * np.real(m[..., 0, 0] + m[..., 1, 1]))
    ratio = np.divide(t, sin_t, out=np.ones_like(t), where=sin_t > 0.0)
    return ratio[..., None, None] * a


def log_map(g, spec: GroupSpec | None = None):
    """Principal logarithm of a group element near the identity.

    ``log_map(g)`` maps a ``GroupElement`` to an ``AlgebraElement``;
    ``log_map(stack, spec)`` maps a (..., d, d) stack of group matrices to
    the stack of algebra matrices.  1x1 groups and SU(2) use closed forms,
    GL(n) uses SciPy's ``logm`` per matrix.

    Raises ``FarFromIdentity`` if any element lies outside the trust
    region; a caller doing finite differences should reduce its step
    instead of catching this.
    """
    element = isinstance(g, GroupElement)
    spec, m = (g.spec, g.matrix) if element else (spec, np.asarray(g))
    dist = np.linalg.norm(m - np.eye(spec.matrix_dim), axis=(-2, -1))
    # Positive reals have a global single-valued logarithm; every other
    # supported group has branch cuts, so stay inside the trust region.
    if spec.name is not GroupName.MULTIPLICATIVE_REALS and np.any(dist >= _LOG_TRUST_RADIUS):
        raise FarFromIdentity(f"element is {np.max(dist):.3g} from the identity (trust radius {_LOG_TRUST_RADIUS})")
    if spec.matrix_dim == 1:
        out = np.log(np.real(m)) if spec.scalar_field == "real" else np.log(m.astype(np.complex128))
    elif spec.name is GroupName.SU2:
        out = _log_su2(m.astype(np.complex128))
    else:
        import scipy.linalg

        flat = m.reshape(-1, spec.matrix_dim, spec.matrix_dim)
        out = np.stack([scipy.linalg.logm(x) for x in flat]).reshape(m.shape)
    out = project_to_algebra(spec, out)
    return AlgebraElement(spec, out) if element else out


def group_distance(a: GroupElement, b: GroupElement) -> float:
    """Frobenius distance between two elements of the same group."""
    if a.spec != b.spec:
        raise SpecMismatch("cannot compare elements of different groups")
    return float(np.linalg.norm(a.matrix - b.matrix))


_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    np.array([[0.0, -1j], [1j, 0.0]], dtype=np.complex128),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
)


def su2_basis() -> tuple[AlgebraElement, AlgebraElement, AlgebraElement]:
    """Canonical su(2) generators i*sigma_k/2, k = 1..3."""
    return tuple(AlgebraElement(SU2, 0.5j * s) for s in _PAULI)


def algebra_basis(spec: GroupSpec) -> list[np.ndarray]:
    """Real basis of the Lie algebra as raw matrices."""
    if spec.name is GroupName.MULTIPLICATIVE_REALS:
        return [np.array([[1.0]])]
    if spec.name is GroupName.U1:
        return [np.array([[1j]])]
    if spec.name is GroupName.SU2:
        return [0.5j * s for s in _PAULI]
    n = spec.matrix_dim
    return list(np.eye(n * n, dtype=spec.dtype).reshape(n * n, n, n))
