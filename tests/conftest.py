import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

_ACCEPTANCE: list[tuple[int, str, bool, str]] = []


def record_criterion(index: int, description: str, passed, detail: str = ""):
    """Register an acceptance-criterion outcome and assert it."""
    _ACCEPTANCE.append((index, description, bool(passed), detail))
    assert passed, f"criterion {index} ({description}) failed: {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for index, description, ok, detail in sorted(_ACCEPTANCE):
        status = "PASS" if ok else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        terminalreporter.write_line(f"criterion {index}: {status}  {description}{suffix}")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_affine_field(spec, rng, scale=0.6):
    """A_mu = sum over the algebra basis of (c0 + c1 x1 + c2 x2) e_b."""
    from holonomy_forge.holonomy import ConnectionField
    from holonomy_forge.lie_core import algebra_basis

    n_basis = len(algebra_basis(spec))
    components = [
        [(scale * rng.normal(), exps, b) for b in range(n_basis) for exps in ((0, 0), (1, 0), (0, 1))]
        for _ in range(2)
    ]
    return ConnectionField.from_polynomial(2, spec, components)


def polyline(vertices, breakpoints=None):
    """The chain of straight segments through a sequence of vertices, built
    with the table constructor, with uniform breakpoints unless given."""
    from holonomy_forge.path_algebra import PathNd

    v = np.asarray(vertices, dtype=float)
    a, b = v[:-1], v[1:]
    bp = np.linspace(0.0, 1.0, len(a) + 1) if breakpoints is None else breakpoints
    return PathNd(np.zeros(len(a), dtype=bool), np.stack([a, a, b, b], axis=1), bp)
