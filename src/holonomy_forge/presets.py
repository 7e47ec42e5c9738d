"""Built-in connection/frame presets for the command line and tests.

Each preset bundles a gauge group, a polynomial connection, a default
holonomy backend, a domain box and the closed-form radial-frame potential
when one is known, plus the tolerances its audits and round trips are
held to.  The registry is compiled in; custom connections enter only
through the restricted polynomial input file (see ``cli``).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .lie_core import MULTIPLICATIVE_REALS, SU2, GroupSpec, algebra_basis
from .holonomy import ConnectionField, HolonomyMap
from .path_algebra import PathFamily, radial_family

__all__ = ["Preset", "get_preset", "iter_presets", "PRESETS"]


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    spec: GroupSpec
    dim: int
    basepoint: tuple
    connection: ConnectionField
    backend: str  # "analytic" | "transport"
    default_steps: int
    box: tuple
    closed_form: Callable[[np.ndarray, int], np.ndarray] | None
    tolerances: dict = dc_field(default_factory=dict)
    axiom3_anchor: tuple | None = None

    def frame(self) -> PathFamily:
        return radial_family(np.array(self.basepoint, dtype=float))

    def holonomy_map(self, steps: int | None = None) -> HolonomyMap:
        if self.backend == "analytic":
            return HolonomyMap(self.connection, self.basepoint)
        return HolonomyMap(self.connection, self.basepoint, self.default_steps if steps is None else steps)


PRESETS: dict[str, Preset] = {}


def _register(p: Preset) -> Preset:
    if p.name in PRESETS:
        raise ValueError(f"duplicate preset name {p.name!r}")
    PRESETS[p.name] = p
    return p


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown preset {name!r}; known presets: {known}") from None


def iter_presets():
    return [PRESETS[k] for k in sorted(PRESETS)]


_X3 = algebra_basis(SU2)[2]

_register(
    Preset(
        name="paper-sec6",
        description="Plane, multiplicative reals, H = exp of the y dx line integral; "
        "radial frame reconstructs (y/2, -x/2).",
        spec=MULTIPLICATIVE_REALS,
        dim=2,
        basepoint=(0.0, 0.0),
        connection=ConnectionField.from_polynomial(
            2, MULTIPLICATIVE_REALS, [[(1.0, (0, 1), 0)], []]
        ),
        backend="analytic",
        default_steps=64,
        box=(-2.0, 2.0),
        closed_form=lambda x, mu: np.array([[x[1] / 2.0]]) if mu == 0 else np.array([[-x[0] / 2.0]]),
        tolerances={
            "reconstruct": 1e-6,
            "axiom1": 1e-10,
            "axiom2": 1e-10,
            # twice the analytic curvature bound of the default audit family
            "axiom3": 2.0 * np.exp(0.5) / 4.0,
            "curvature": 1e-4,
            "gauge": 1e-5,
            "transport": 1e-4,
        },
        axiom3_anchor=(1.0, 1.0),
    )
)

_register(
    Preset(
        name="abelian-ydx",
        description="Same y dx connection but holonomy from parallel transport; "
        "exercises the full round trip.",
        spec=MULTIPLICATIVE_REALS,
        dim=2,
        basepoint=(0.0, 0.0),
        connection=ConnectionField.from_polynomial(
            2, MULTIPLICATIVE_REALS, [[(1.0, (0, 1), 0)], []]
        ),
        backend="transport",
        default_steps=64,
        box=(-1.0, 1.0),
        closed_form=lambda x, mu: np.array([[x[1] / 2.0]]) if mu == 0 else np.array([[-x[0] / 2.0]]),
        tolerances={
            "reconstruct": 1e-6,
            "axiom1": 1e-8,
            "axiom2": 1e-8,
            "axiom3": 2.0 * np.exp(0.5) / 4.0,
            "curvature": 1e-4,
            "gauge": 1e-5,
            "transport": 1e-4,
        },
        axiom3_anchor=(0.5, 0.5),
    )
)

_register(
    Preset(
        name="zero-connection",
        description="Identically zero connection; every defect must vanish.",
        spec=MULTIPLICATIVE_REALS,
        dim=2,
        basepoint=(0.0, 0.0),
        connection=ConnectionField.zero(2, MULTIPLICATIVE_REALS),
        backend="analytic",
        default_steps=64,
        box=(-1.0, 1.0),
        closed_form=lambda x, mu: np.array([[0.0]]),
        tolerances={
            "reconstruct": 1e-10,
            "axiom1": 1e-10,
            "axiom2": 1e-10,
            "axiom3": 1e-10,
            "curvature": 1e-10,
            "gauge": 1e-10,
            "transport": 1e-10,
        },
        axiom3_anchor=(0.5, 0.5),
    )
)

_register(
    Preset(
        name="su2-shear",
        description="SU(2) with A_2 = x1 * (i sigma_3 / 2): constant curvature "
        "along one algebra direction, full matrix transport.",
        spec=SU2,
        dim=2,
        basepoint=(0.0, 0.0),
        connection=ConnectionField.from_polynomial(2, SU2, [[], [(1.0, (1, 0), 2)]]),
        backend="transport",
        default_steps=128,
        box=(-1.0, 1.0),
        closed_form=lambda x, mu: (-x[1] / 2.0) * _X3 if mu == 0 else (x[0] / 2.0) * _X3,
        tolerances={
            "reconstruct": 1e-3,
            "axiom1": 1e-6,
            "axiom2": 1e-8,
            # 2x the recorded reference proxy 2.21e-2 (= sqrt(2)/64 for this field)
            "axiom3": 0.045,
            "curvature": 1e-3,
            "gauge": 1e-3,
            "transport": 1e-4,
        },
        axiom3_anchor=(0.5, 0.5),
    )
)

_register(
    Preset(
        name="su2-twist",
        description="SU(2) with A_1 = x2 * (i sigma_1 / 2), A_2 = x1 * (i sigma_3 / 2): "
        "genuinely non-commuting transport.",
        spec=SU2,
        dim=2,
        basepoint=(0.0, 0.0),
        connection=ConnectionField.from_polynomial(
            2, SU2, [[(1.0, (0, 1), 0)], [(1.0, (1, 0), 2)]]
        ),
        backend="transport",
        default_steps=128,
        box=(-1.0, 1.0),
        closed_form=None,
        tolerances={
            "axiom1": 1e-6,
            "axiom2": 1e-8,
            # 2x the recorded reference proxy 9.89e-2
            "axiom3": 0.2,
            "curvature": 1e-3,
            "gauge": 1e-3,
            "transport": 1e-4,
        },
        axiom3_anchor=(0.5, 0.5),
    )
)

_register(
    Preset(
        name="abelian-quartic",
        description="Abelian x1^4 x2 dx1 field; its difference quotients keep "
        "fifth-order structure, making convergence orders measurable.",
        spec=MULTIPLICATIVE_REALS,
        dim=2,
        basepoint=(0.0, 0.0),
        connection=ConnectionField.from_polynomial(
            2, MULTIPLICATIVE_REALS, [[(1.0, (4, 1), 0)], []]
        ),
        backend="analytic",
        # Read only by the round trip's transport map: its RK4 gauge defect
        # is 6.8e-5 at 64 steps, 4.0e-6 at 128 and 2.5e-7 at 256.
        default_steps=256,
        box=(-1.5, 1.5),
        closed_form=lambda x, mu: (
            np.array([[x[0] ** 4 * x[1] / 6.0]]) if mu == 0 else np.array([[-x[0] ** 5 / 6.0]])
        ),
        tolerances={
            "reconstruct": 1e-8,
            "axiom1": 1e-10,
            "axiom2": 1e-10,
            "axiom3": 10.0,
            "curvature": 1e-4,
            "gauge": 1e-5,
            "transport": 1e-4,
        },
        axiom3_anchor=(0.8, 0.8),
    )
)
