"""Two reference frames, one connection.

Reconstructing with a radial frame and with an axis-parallel dogleg frame
gives different 1-forms; the group-valued transition function computed
from holonomies carries one into the other by the usual gauge law
g^{-1} A g + g^{-1} dg.  For the plane field y dx the radial frame gives
(y/2, -x/2) while the dogleg frame returns y dx itself.
"""

import math

import numpy as np

import holonomy_forge as hf
from holonomy_forge import (
    FdConfig,
    PotentialField,
    axis_dogleg_family,
    gauge_transform_potential,
    transition_function,
)

preset = hf.get_preset("paper-sec6")
h_map = preset.holonomy_map()
radial = preset.frame()
dogleg = axis_dogleg_family(np.zeros(2))
cfg = FdConfig()

a_rad = PotentialField.from_holonomy(h_map, radial, cfg)
a_dog = PotentialField.from_holonomy(h_map, dogleg, cfg)

x = np.array([1.0, 1.0])
print(f"At x = {x}:")
print(f"  radial frame potential: ({a_rad.matrix(x, 0)[0, 0]:+.6f}, {a_rad.matrix(x, 1)[0, 0]:+.6f})")
print(f"  dogleg frame potential: ({a_dog.matrix(x, 0)[0, 0]:+.6f}, {a_dog.matrix(x, 1)[0, 0]:+.6f})")

t = transition_function(h_map, dogleg, radial, x).matrix[0, 0]
print(f"\nTransition value dogleg -> radial at (1,1): {t:.9f}")
print(f"  area oracle exp(-1/2)                    : {math.exp(-0.5):.9f}")

print("\nGauge law carries the radial potential into the dogleg one:")
# transition_function takes an (m, dim) array of points too, so it serves
# as the batch gauge field that gauge_transform_potential calls once.
relating = lambda ys: transition_function(h_map, radial, dogleg, ys)
for point in ([1.0, 1.0], [-0.7, 0.4]):
    point = np.array(point)
    for mu in (0, 1):
        transformed = gauge_transform_potential(a_rad, relating, point, mu, cfg).matrix[0, 0]
        direct = a_dog.matrix(point, mu)[0, 0]
        print(f"  x = {point}, direction {mu}: transformed {transformed:+.8f}, direct {direct:+.8f}")
