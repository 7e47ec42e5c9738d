"""Recover a gauge potential from nothing but loop holonomies.

The starting point is a holonomy map on the plane with multiplicative-real
fiber: every based loop is sent to exp of the line integral of y dx around
it.  Differentiating holonomies of small frame-conjugated shifts recovers
a radial-gauge potential (y/2, -x/2), a vertical Maurer-Cartan term 1/z,
and the original curvature -1 -- the same connection in different clothes.
"""

import numpy as np

import holonomy_forge as hf
from holonomy_forge import (
    FdConfig,
    GroupElement,
    TrivializedCurve,
    connection_form_action,
    curvature,
    reconstructed_connection,
)

preset = hf.get_preset("paper-sec6")
h_map = preset.holonomy_map()
psi = preset.frame()
cfg = FdConfig()

print("Reconstructed potential vs closed form (y/2, -x/2):")
A = reconstructed_connection(h_map, psi, cfg)
for x in ([1.0, 2.0], [0.5, -0.5], [-1.5, 0.25]):
    x = np.array(x)
    a1 = A.component(x, 0).matrix[0, 0]
    a2 = A.component(x, 1).matrix[0, 0]
    print(
        f"  x = {x}:  A_1 = {a1:+.9f} (expect {x[1] / 2:+.4f}),"
        f"  A_2 = {a2:+.9f} (expect {-x[0] / 2:+.4f})"
    )

print("\nVertical direction: moving only in the fiber over (1, 2).")
for z in (2.0, 1.0, 0.5):
    curve = TrivializedCurve.vertical(
        psi, [1.0, 2.0], lambda i, z=z: GroupElement(preset.spec, [[z + i]])
    )
    omega = connection_form_action(h_map, curve, 0.0, cfg).matrix[0, 0]
    print(f"  omega at z = {z}: {omega:.9f}   (1/z = {1 / z:.9f})")

print("\nCurvature of the reconstruction (the input field strength is -1):")
for x in ([0.5, 0.5], [-1.0, 1.0]):
    f = curvature(A, np.array(x), 0, 1, cfg).matrix[0, 0]
    print(f"  F_12{tuple(x)} = {f:+.8f}")

print("\nThe reconstructed 1-form differs from y dx, but only by a gauge")
print("transformation: identical curvature is the computable witness.")
