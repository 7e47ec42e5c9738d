"""Round trip with a non-commuting gauge group.

An SU(2) connection is pushed through parallel transport to build its
holonomy map, the potential is reconstructed back from holonomies alone,
and the two are compared through conjugation-invariant curvature norms.
Parallel transport computed purely from holonomies is cross-checked
against solving the transport equation in the reconstructed potential.
"""

import numpy as np

import holonomy_forge as hf
from holonomy_forge import (
    FdConfig,
    GridSpec,
    GroupElement,
    group_distance,
    horizontal_transport,
    random_polyline,
    reconstructed_connection,
    round_trip_report,
    transport_along,
)

preset = hf.get_preset("su2-shear")
psi = preset.frame()
cfg = FdConfig()

print("Reconstruction at sample points (closed form: -x2/2 * X3, x1/2 * X3):")
h_map = preset.holonomy_map(128)
A = reconstructed_connection(h_map, psi, cfg)
for x in ([0.5, 0.5], [0.8, -0.3]):
    x = np.array(x)
    for mu in (0, 1):
        err = np.linalg.norm(A.component(x, mu).matrix - preset.closed_form(x, mu))
        print(f"  x = {x}, direction {mu}: |reconstructed - closed form| = {err:.2e}")

print("\nHolonomy-only transport vs transport equation in the reconstruction:")
rng = np.random.default_rng(5)
ident = GroupElement.identity(preset.spec)
for k in range(3):
    p = random_polyline(rng, rng.uniform(-0.4, 0.4, size=2), n_segments=2, radius=0.4)
    lhs = horizontal_transport(h_map, psi, p, ident, 1.0)
    rhs = transport_along(A, p, ident, 16)
    print(f"  sample path {k}: agreement {group_distance(lhs, rhs):.2e}")

print("\nFull round-trip report on a 3x3 grid (128 transport steps):")
report = round_trip_report(
    preset.connection,
    psi,
    GridSpec(-1.0, 1.0, 3),
    cfg,
    steps_per_segment=128,
    tolerances={"curvature": 1e-3, "gauge": 1e-3, "transport": 1e-4},
    transport_paths=4,
)
print(f"  curvature-norm defect: {report.max_curvature_defect:.2e}")
print(f"  gauge defect:          {report.max_gauge_defect:.2e}")
print(f"  transport defect:      {report.max_transport_defect:.2e}")
print(f"  within tolerances:     {report.within()}")
