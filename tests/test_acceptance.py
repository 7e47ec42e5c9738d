"""End-to-end acceptance checks.

Each test exercises one numbered criterion at its stated tolerance and
registers a pass/fail line that is printed in the terminal summary.
"""

import math
import time

import numpy as np

import holonomy_forge as hf
from holonomy_forge.lie_core import MULTIPLICATIVE_REALS, GroupElement
from holonomy_forge.holonomy import (
    HolonomyMap,
    audit_axioms,
    check_axiom3,
    eval_holonomy,
)
from holonomy_forge.path_algebra import (
    LoopAtBase,
    axis_dogleg_family,
    reconstruction_loop,
)
from holonomy_forge.reconstruction import (
    FdConfig,
    GridSpec,
    TrivializedCurve,
    connection_form_action,
    curvature,
    gauge_transform_potential,
    reconstruct_potential,
    reconstructed_connection,
    round_trip_report,
    transition_function,
)

from _oracles import polyline_vertices, polyline_ydx_integral, shoelace_area
from conftest import polyline, record_criterion

ORIGIN = np.zeros(2)
CFG = FdConfig()

# reference smoothness proxies; tolerance is twice each recorded value
AXIOM3_REFERENCE = {
    "paper-sec6": math.exp(0.5) / 4.0,  # analytic |f''| bound for exp(u/2)
    "su2-twist": 0.0989,  # recorded reference run
    "su2-shear": 0.0222,  # recorded reference run (= sqrt(2)/64 analytically)
}


def unit_square_loop() -> LoopAtBase:
    return LoopAtBase(polyline([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]), ORIGIN)


def test_criterion_1_sec6_potential_on_grid():
    start = time.monotonic()
    preset = hf.get_preset("paper-sec6")
    h_map, psi = preset.holonomy_map(), preset.frame()
    A = reconstructed_connection(h_map, psi, CFG)
    worst = 0.0
    for x in GridSpec(-2.0, 2.0, 9).nodes(2):
        worst = max(worst, abs(A.component(x, 0).matrix[0, 0] - x[1] / 2.0))
        worst = max(worst, abs(A.component(x, 1).matrix[0, 0] + x[0] / 2.0))
    elapsed = time.monotonic() - start
    record_criterion(
        1,
        "analytic holonomy reconstructs (y/2, -x/2) on the 9x9 grid",
        worst <= 1e-6 and elapsed <= 5.0,
        f"max err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_vertical_component():
    preset = hf.get_preset("paper-sec6")
    h_map, psi = preset.holonomy_map(), preset.frame()
    curve = TrivializedCurve.vertical(
        psi, [1.0, 2.0], lambda i: GroupElement(MULTIPLICATIVE_REALS, [[2.0 + i]])
    )
    got = connection_form_action(h_map, curve, 0.0, CFG).matrix[0, 0]
    record_criterion(
        2,
        "vertical tangent reproduces the Maurer-Cartan value 1/z at z = 2",
        abs(got - 0.5) <= 1e-8,
        f"got {got:.12f}",
    )


def test_criterion_3_gauge_equivalence_by_curvature():
    preset = hf.get_preset("paper-sec6")
    h_map, psi = preset.holonomy_map(), preset.frame()
    a_rec = reconstructed_connection(h_map, psi, CFG)
    a_in = preset.connection
    worst = 0.0
    for x in GridSpec(-2.0, 2.0, 9).nodes(2):
        f_rec = curvature(a_rec, x, 0, 1, CFG).matrix[0, 0]
        f_in = curvature(a_in, x, 0, 1, CFG).matrix[0, 0]
        worst = max(worst, abs(f_rec - f_in), abs(f_rec - (-1.0)))
    record_criterion(
        3,
        "reconstructed and input curvature agree (both -1) over the grid",
        worst <= 1e-4,
        f"max defect {worst:.2e}",
    )


def test_criterion_4_abelian_round_trip():
    start = time.monotonic()
    preset = hf.get_preset("abelian-ydx")
    report = round_trip_report(
        preset.connection,
        preset.frame(),
        GridSpec(-1.0, 1.0, 9),
        CFG,
        steps_per_segment=64,
        tolerances={"curvature": 1e-4},
    )
    h_map = preset.holonomy_map(64)
    square = eval_holonomy(h_map, unit_square_loop()).matrix[0, 0]
    verts = polyline_vertices(unit_square_loop())
    expected = math.exp(polyline_ydx_integral(verts))
    assert abs(polyline_ydx_integral(verts) - (-shoelace_area(verts[:-1]))) < 1e-15
    elapsed = time.monotonic() - start
    ok = (
        report.max_curvature_defect <= 1e-4
        and not report.failures
        and abs(square - expected) <= 1e-8
        and elapsed <= 30.0
    )
    record_criterion(
        4,
        "transport-sourced round trip: curvature defect and unit-square holonomy",
        ok,
        f"curvature {report.max_curvature_defect:.2e}, square err {abs(square - expected):.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_axiom_suite():
    sec6 = hf.get_preset("paper-sec6")
    abelian = audit_axioms(
        sec6.holonomy_map(),
        samples=100,
        seed=2024,
        tolerances=(1e-10, 1e-8, 2.0 * AXIOM3_REFERENCE["paper-sec6"]),
        axiom3_shift=((1.0, 1.0), (1.0, 0.0)),
    )
    twist = hf.get_preset("su2-twist")
    su2 = audit_axioms(
        twist.holonomy_map(128),
        samples=100,
        seed=2024,
        tolerances=(1e-6, 1e-8, 2.0 * AXIOM3_REFERENCE["su2-twist"]),
        axiom3_shift=((0.5, 0.5), (1.0, 0.0)),
    )
    shear = hf.get_preset("su2-shear")
    shear_proxy = check_axiom3(
        shear.holonomy_map(128), _anchor_family(shear, (0.5, 0.5)), grid=21
    )
    ok = (
        abelian.all_passed
        and su2.all_passed
        and shear_proxy <= 2.0 * AXIOM3_REFERENCE["su2-shear"]
    )
    record_criterion(
        5,
        "loop-law audit: composition, thin loops, smoothness proxy",
        ok,
        f"abelian a1 {abelian.axiom1_max_defect:.1e}, su2 a1 {su2.axiom1_max_defect:.1e}, "
        f"a2 {max(abelian.axiom2_max_defect, su2.axiom2_max_defect):.1e}",
    )


def _anchor_family(preset, anchor):
    psi = preset.frame()
    anchor = np.array(anchor, dtype=float)
    step = np.array([1.0, 0.0])
    return lambda u: reconstruction_loop(psi, anchor, anchor + u * step)


def test_criterion_6_nonabelian_round_trip():
    preset = hf.get_preset("su2-shear")
    report = round_trip_report(
        preset.connection,
        preset.frame(),
        GridSpec(-1.0, 1.0, 5),
        CFG,
        steps_per_segment=128,
        tolerances={"curvature": 1e-3, "transport": 1e-4},
        transport_paths=10,
    )
    ok = (
        report.max_curvature_defect <= 1e-3
        and report.max_transport_defect <= 1e-4
        and not report.failures
    )
    record_criterion(
        6,
        "SU(2) round trip: curvature norms and holonomy-only transport",
        ok,
        f"curvature {report.max_curvature_defect:.2e}, transport {report.max_transport_defect:.2e}",
    )


def test_criterion_7_frame_covariance():
    preset = hf.get_preset("paper-sec6")
    h_map, psi = preset.holonomy_map(), preset.frame()
    dogleg = axis_dogleg_family(ORIGIN)
    t_value = transition_function(h_map, dogleg, psi, [1.0, 1.0]).matrix[0, 0]
    a_rad = reconstructed_connection(h_map, psi, CFG)
    a_dog = reconstructed_connection(h_map, dogleg, CFG)
    relating = lambda x: transition_function(h_map, psi, dogleg, x)
    worst = 0.0
    for x in GridSpec(-1.5, 1.5, 4).nodes(2):
        for mu in (0, 1):
            expected = gauge_transform_potential(a_rad, relating, x, mu, CFG).matrix
            worst = max(worst, float(np.linalg.norm(a_dog.component(x, mu).matrix - expected)))
    ok = worst <= 1e-5 and abs(t_value - math.exp(-0.5)) <= 1e-9
    record_criterion(
        7,
        "frames related by the transition gauge transformation",
        ok,
        f"covariance defect {worst:.2e}, transition err {abs(t_value - math.exp(-0.5)):.2e}",
    )


def test_criterion_8_convergence_orders():
    preset = hf.get_preset("paper-sec6")
    analytic = preset.holonomy_map()
    reference = eval_holonomy(analytic, unit_square_loop()).matrix[0, 0]
    transport_errors = []
    for steps in (4, 8, 16, 32):
        h_map = HolonomyMap.transport(preset.connection, ORIGIN, steps)
        got = eval_holonomy(h_map, unit_square_loop()).matrix[0, 0]
        transport_errors.append(abs(got - reference))
    transport_orders = [
        math.log2(a / b) for a, b in zip(transport_errors[:-1], transport_errors[1:])
    ]

    quartic = hf.get_preset("abelian-quartic")
    h_map, psi = quartic.holonomy_map(), quartic.frame()
    x = np.array([1.1, 0.7])
    fd_errors = []
    for h in (0.04, 0.02, 0.01):
        cfg = FdConfig(h=h, richardson=True, curvature_h=0.05)
        got = reconstruct_potential(h_map, psi, x, 0, cfg)[0].matrix[0, 0]
        fd_errors.append(abs(got - quartic.closed_form(x, 0)[0, 0]))
    fd_orders = [math.log2(a / b) for a, b in zip(fd_errors[:-1], fd_errors[1:])]

    ok = min(transport_orders) >= 3.5 and min(fd_orders) >= 3.0
    record_criterion(
        8,
        "transport order >= 3.5 under step doubling; difference order >= 3 with extrapolation",
        ok,
        f"transport {['%.2f' % o for o in transport_orders]}, difference {['%.2f' % o for o in fd_orders]}",
    )
