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

``project_to_group``, ``project_to_algebra`` and ``log_map`` also take
(..., d, d) stacks of matrices, so batched integrators and reconstructions
stay vectorized.
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
    "element_to_json",
    "group_element_from_json",
    "algebra_element_from_json",
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

    def to_json_dict(self) -> dict:
        return {
            "name": self.name.value,
            "matrix_dim": self.matrix_dim,
            "scalar_field": self.scalar_field,
            "algebra_dim": self.algebra_dim,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GroupSpec":
        return cls(GroupName(d["name"]), d["matrix_dim"], d["scalar_field"], d["algebra_dim"])


MULTIPLICATIVE_REALS = GroupSpec(GroupName.MULTIPLICATIVE_REALS, 1, "real", 1)
U1 = GroupSpec(GroupName.U1, 1, "complex", 1)
SU2 = GroupSpec(GroupName.SU2, 2, "complex", 3)


def gln(n: int, scalar_field: str = "real") -> GroupSpec:
    """General linear group of real (default) or complex n x n matrices."""
    return GroupSpec(GroupName.GLN, n, scalar_field, n**2)


def _as_matrix(spec: GroupSpec, matrix) -> np.ndarray:
    m = np.array(matrix, dtype=spec.dtype)
    if m.shape != (spec.matrix_dim, spec.matrix_dim):
        raise ValueError(
            f"expected {spec.matrix_dim}x{spec.matrix_dim} matrix, got shape {m.shape}"
        )
    m.setflags(write=False)
    return m


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
    if name is GroupName.MULTIPLICATIVE_REALS:
        return np.real(m).astype(np.float64)
    if name is GroupName.U1:
        return 1j * np.imag(m)
    if name is GroupName.SU2:
        m = m.astype(np.complex128)
        ah = 0.5 * (m - _adjoint(m))
        return ah - (0.5 * (ah[..., 0, 0] + ah[..., 1, 1]))[..., None, None] * np.eye(2)
    if spec.scalar_field == "real":
        return np.real(m).astype(np.float64)
    return m.astype(np.complex128)


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A member of a matrix Lie group."""

    spec: GroupSpec
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_matrix(self.spec, self.matrix))
        self.validate()

    def validate(self):
        # Every test is written so that a nan entry fails it.
        m = self.matrix
        det = np.linalg.det(m)
        # Relative to the Frobenius norm (which bounds |det| via Hadamard's
        # inequality), so a valid element far from the identity, such as a
        # positive real of size 1e-130, is not mistaken for a singular one.
        if not abs(det) > _DET_TOL * float(np.linalg.norm(m)) ** m.shape[0]:
            raise ValueError(f"matrix is not invertible (|det| = {abs(det):.3e})")
        name = self.spec.name
        if name is GroupName.MULTIPLICATIVE_REALS and not m[0, 0] > 0:
            raise ValueError("multiplicative-reals element must be positive")
        if name is GroupName.U1 and not abs(abs(m[0, 0]) - 1.0) <= _GROUP_TOL:
            raise ValueError(f"U(1) element has modulus {abs(m[0, 0])!r}")
        if name is GroupName.SU2:
            if not np.linalg.norm(m @ m.conj().T - np.eye(2)) <= _GROUP_TOL:
                raise ValueError("SU(2) element is not unitary")
            if not abs(det - 1.0) <= _GROUP_TOL:
                raise ValueError(f"SU(2) element has det {det!r}")

    @classmethod
    def identity(cls, spec: GroupSpec) -> "GroupElement":
        return cls(spec, np.eye(spec.matrix_dim, dtype=spec.dtype))

    def inverse(self) -> "GroupElement":
        name = self.spec.name
        if name is GroupName.MULTIPLICATIVE_REALS:
            inv = np.array([[1.0 / self.matrix[0, 0]]])
        elif name in (GroupName.U1, GroupName.SU2):
            inv = self.matrix.conj().T  # unitary
        else:
            inv = np.linalg.inv(self.matrix)
        return GroupElement(self.spec, project_to_group(self.spec, inv))

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if self.spec != other.spec:
            raise SpecMismatch("cannot multiply elements of different groups")
        return GroupElement(self.spec, project_to_group(self.spec, self.matrix @ other.matrix))

    def __repr__(self):
        return f"GroupElement({self.spec.name.value}, {self.matrix.tolist()})"


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """A member of the Lie algebra (tangent space at the identity)."""

    spec: GroupSpec
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_matrix(self.spec, self.matrix))
        self.validate()

    def validate(self):
        m = self.matrix
        name = self.spec.name
        if name is GroupName.U1 and not abs(np.real(m[0, 0])) <= _ALGEBRA_TOL:
            raise ValueError("u(1) element must be purely imaginary")
        if name is GroupName.SU2:
            if not np.linalg.norm(m + m.conj().T) <= _ALGEBRA_TOL:
                raise ValueError("su(2) element must be anti-Hermitian")
            if not abs(np.trace(m)) <= _ALGEBRA_TOL:
                raise ValueError("su(2) element must be traceless")

    @classmethod
    def zero(cls, spec: GroupSpec) -> "AlgebraElement":
        return cls(spec, np.zeros((spec.matrix_dim, spec.matrix_dim), dtype=spec.dtype))

    @classmethod
    def from_matrix(cls, spec: GroupSpec, matrix) -> "AlgebraElement":
        """Build an element, projecting away numerical drift first."""
        return cls(spec, project_to_algebra(spec, np.asarray(matrix)))

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix))

    def bracket(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.spec != other.spec:
            raise SpecMismatch("cannot bracket elements of different algebras")
        comm = self.matrix @ other.matrix - other.matrix @ self.matrix
        return AlgebraElement.from_matrix(self.spec, comm)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.spec != other.spec:
            raise SpecMismatch("cannot add elements of different algebras")
        return AlgebraElement(self.spec, self.matrix + other.matrix)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.spec != other.spec:
            raise SpecMismatch("cannot subtract elements of different algebras")
        return AlgebraElement(self.spec, self.matrix - other.matrix)

    def __mul__(self, scalar: float) -> "AlgebraElement":
        return AlgebraElement(self.spec, self.matrix * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"AlgebraElement({self.spec.name.value}, {self.matrix.tolist()})"


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
    if element:
        spec, m = g.spec, g.matrix
    else:
        m = np.asarray(g)
    dist = np.linalg.norm(m - np.eye(spec.matrix_dim), axis=(-2, -1))
    # Positive reals have a global single-valued logarithm; every other
    # supported group has branch cuts, so stay inside the trust region.
    if spec.name is not GroupName.MULTIPLICATIVE_REALS and np.any(dist >= _LOG_TRUST_RADIUS):
        raise FarFromIdentity(
            f"element is {np.max(dist):.3g} from the identity (trust radius {_LOG_TRUST_RADIUS})"
        )
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
    basis = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=spec.dtype)
            e[i, j] = 1.0
            basis.append(e)
    return basis


def _matrix_to_pairs(m: np.ndarray) -> list[list[float]]:
    flat = np.asarray(m, dtype=np.complex128).reshape(-1)
    return [[float(v.real), float(v.imag)] for v in flat]


def _pairs_to_matrix(spec: GroupSpec, pairs) -> np.ndarray:
    d = spec.matrix_dim
    flat = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    if flat.size != d * d:
        raise ValueError(f"expected {d * d} entries, got {flat.size}")
    m = flat.reshape(d, d)
    return np.real(m) if spec.scalar_field == "real" else m


def element_to_json(el: GroupElement | AlgebraElement) -> dict:
    """Serialize an element as spec metadata plus row-major (re, im) pairs."""
    return {"spec": el.spec.to_json_dict(), "matrix": _matrix_to_pairs(el.matrix)}


def group_element_from_json(d: dict) -> GroupElement:
    spec = GroupSpec.from_json_dict(d["spec"])
    return GroupElement(spec, _pairs_to_matrix(spec, d["matrix"]))


def algebra_element_from_json(d: dict) -> AlgebraElement:
    spec = GroupSpec.from_json_dict(d["spec"])
    return AlgebraElement(spec, _pairs_to_matrix(spec, d["matrix"]))
