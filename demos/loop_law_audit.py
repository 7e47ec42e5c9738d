"""Check the three loop-space laws a holonomy map must satisfy.

Composition (H(a o b) = H(b) H(a)), thin-loop triviality, and smooth
dependence on loop deformations are each measured as a worst-case defect
over seeded random loops; the resulting report is the same JSON the
command line emits.
"""

import json

import numpy as np

import holonomy_forge as hf
from holonomy_forge import (
    LoopAtBase,
    audit_axioms,
    check_axiom1,
    check_axiom2,
    compose_paths,
    invert_path,
    random_polygon_loop,
    random_polyline,
)

rng = np.random.default_rng(42)
origin = np.zeros(2)

for name in ("paper-sec6", "su2-twist"):
    preset = hf.get_preset(name)
    h_map = preset.holonomy_map()
    print(f"== {name} ({preset.spec.name.value}, {preset.backend} backend)")

    alpha = random_polygon_loop(rng, origin, n_vertices=4, radius=0.75)
    beta = random_polygon_loop(rng, origin, n_vertices=5, radius=0.75)
    print(f"  composition defect on one loop pair: {check_axiom1(h_map, alpha, beta):.3e}")

    p = random_polyline(rng, origin, n_segments=2, radius=0.75)
    thin = LoopAtBase(compose_paths(invert_path(p), p), origin)
    print(f"  out-and-back thin loop defect:       {check_axiom2(h_map, thin):.3e}")

    report = audit_axioms(
        h_map,
        samples=40,
        seed=7,
        tolerances=(
            preset.tolerances["axiom1"],
            preset.tolerances["axiom2"],
            preset.tolerances["axiom3"],
        ),
        axiom3_shift=((0.5, 0.5), (1.0, 0.0)),
    )
    print("  full audit report:")
    print("   ", json.dumps(report.to_json_dict(), indent=2).replace("\n", "\n    "))
