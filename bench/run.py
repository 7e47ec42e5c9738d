#!/usr/bin/env python3
"""Benchmark of the holonomy-forge command line, measured from outside.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--tiny]
    python3 bench/run.py --workload all          # every workload, one after another

Each operation starts a fresh interpreter (``launch.py``) that imports the
package from ``src/`` and runs ``holonomy_forge.cli.main`` on one workload,
then this process checks what it wrote against closed forms and stated
tolerances, and checks that every launch with the same seed wrote the same
bytes.  One process runs one launch at a time, single-threaded.

With ``--trace 0`` a run makes a few set-up probes, then launches the
subcommand until ``--seconds`` have passed (at least twice), and reports the
median set-up time, subcommand wall time and peak resident memory.  With
``--trace 1`` it alternates untraced and traced launches (``layertrace.py``)
and reports the per-layer numbers, the tracing overhead and the worst
defect as a share of its tolerance.  Metric names and units are those of
``BENCHMARK.json``.  The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

``--seed`` makes the inputs: the CLI's own ``--seed`` for the randomized
subcommands, and a small shift of each end of the grid box, so that no
cache can be tuned to one fixed set of nodes.  ``--tiny`` shrinks every
workload (grid 3, 2 audit samples) for the harness's smoke test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

SETUP_PROBES = 3  # set-up-only launches per untraced run, besides the full ones
MIN_ROUNDS = 2  # full launches per untraced run, at least; a traced run makes one pair or more
HARD_LIMIT_S = 165.0  # a run ends within this, whatever --seconds says

# The measured process gets one thread everywhere and no thread pool.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class CheckFailed(Exception):
    """An output of the CLI is missing, malformed or out of tolerance."""


class SetupError(Exception):
    """The program could not be started at all; no result can be given."""


# --- outcome checks ---------------------------------------------------------
# Closed forms and tolerances are copied from the presets at the commit that
# added this benchmark, so later commits are held to the same bar.


def _sec6_potential(x: float, y: float, mu: int) -> list[complex]:
    # paper-sec6: radial-frame potential of y dx is (y/2, -x/2).
    return [complex(y / 2.0 if mu == 0 else -x / 2.0)]


def _su2_shear_potential(x: float, y: float, mu: int) -> list[complex]:
    # su2-shear: (-y/2, x/2) times X3 = i sigma_3 / 2, row-major 2x2 entries.
    c = -y / 2.0 if mu == 0 else x / 2.0
    return [0.5j * c, 0j, 0j, -0.5j * c]


def _read_json(out: Path, name: str) -> dict:
    try:
        data = json.loads((out / name).read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{name}: {exc}") from exc
    if not isinstance(data, dict):
        raise CheckFailed(f"{name}: not a JSON object")
    return data


def _ratio_within(name: str, value, tol: float) -> float:
    """Share of its tolerance a reported defect uses; fails above 1."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (ok and math.isfinite(value) and 0.0 <= value <= tol):
        raise CheckFailed(f"{name} = {value!r} is not within tolerance {tol!r}")
    return value / tol


def _axis(lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + k * step for k in range(n - 1)] + [hi]


def _box_matches(reported, box) -> bool:
    return (
        isinstance(reported, list)
        and len(reported) == 2
        and all(isinstance(v, (int, float)) and abs(v - b) <= 1e-12 * (1 + abs(b)) for v, b in zip(reported, box))
    )


def reconstruct_check(closed_form, tol: float):
    def check(case: "Case", out: Path) -> float:
        try:
            lines = (out / "potential.csv").read_text().splitlines()
        except OSError as exc:
            raise CheckFailed(f"potential.csv: {exc}") from exc
        d = math.isqrt(len(closed_form(0.0, 0.0, 0)))
        header = ["x1", "x2", "mu"] + [
            f"{part}_{r}_{c}" for r in range(d) for c in range(d) for part in ("re", "im")
        ]
        if not lines or lines[0].split(",") != header:
            raise CheckFailed("potential.csv: unexpected header")
        axis = _axis(*case.box, case.grid)
        nodes = [(x, y) for x in axis for y in axis]
        rows = lines[1:]
        if len(rows) != 2 * len(nodes):
            raise CheckFailed(f"potential.csv: {len(rows)} rows, expected {2 * len(nodes)}")
        scale = 1e-12 * (1.0 + max(abs(v) for v in case.box))
        worst = 0.0
        for k, line in enumerate(rows):
            (x, y), mu = nodes[k // 2], k % 2
            try:
                vals = [float(v) for v in line.split(",")]
            except ValueError as exc:
                raise CheckFailed(f"potential.csv row {k + 1}: {exc}") from exc
            if len(vals) != len(header) or abs(vals[0] - x) > scale or abs(vals[1] - y) > scale or vals[2] != mu:
                raise CheckFailed(f"potential.csv row {k + 1}: not node ({x!r}, {y!r}), mu {mu}")
            want = closed_form(x, y, mu)
            err = math.sqrt(
                sum((vals[3 + 2 * j] - w.real) ** 2 + (vals[4 + 2 * j] - w.imag) ** 2 for j, w in enumerate(want))
            )
            if not math.isfinite(err):
                raise CheckFailed(f"potential.csv row {k + 1}: non-finite value")
            worst = max(worst, err)
        if _read_json(out, "reconstruct_summary.json").get("pass") is not True:
            raise CheckFailed("reconstruct_summary.json does not report a pass")
        return _ratio_within("max reconstruction error", worst, tol)

    return check


def audit_check(tols: dict[str, float]):
    def check(case: "Case", out: Path) -> float:
        report = _read_json(out, "axiom_report.json")
        if report.get("samples") != case.samples:
            raise CheckFailed(f"axiom_report.json: samples {report.get('samples')!r} != {case.samples}")
        ratios = [_ratio_within(key, report.get(key), tol) for key, tol in tols.items()]
        if report.get("pass") != [True, True, True]:
            raise CheckFailed("axiom_report.json does not report three passes")
        return max(ratios)

    return check


def roundtrip_check(tols: dict[str, float]):
    def check(case: "Case", out: Path) -> float:
        report = _read_json(out, "roundtrip_report.json")
        if report.get("failures") != []:
            raise CheckFailed(f"roundtrip_report.json lists failures: {report.get('failures')!r}")
        grid = report.get("grid")
        if not isinstance(grid, dict) or grid.get("resolution") != case.grid or not _box_matches(grid.get("box"), case.box):
            raise CheckFailed(f"roundtrip_report.json: grid {grid!r} is not the requested one")
        return max(_ratio_within(f"max_{key}_defect", report.get(f"max_{key}_defect"), tol) for key, tol in tols.items())

    return check


# --- workloads --------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    command: str
    preset: str
    size: dict
    tiny: dict
    box: tuple[float, float] | None  # the preset's box; each seed shifts its ends
    seeded: bool  # the subcommand takes --seed
    check: Callable


# Why each workload is here, and which layer should move its wall_s, is the
# "why" of BENCHMARK.json.  Sizes keep one launch at 2-8 s, so that a run
# takes the median of several launches: single launches of the same work
# differ by 10-20% on a shared 2-core machine.  Roundtrip uses 16 transport
# steps because its fixed transport cross-check (10 paths) keeps a launch at
# 10 s or more with the preset's 64.
WORKLOADS = {
    "reconstruct-abelian": Workload(
        "reconstruct", "paper-sec6", {"grid": 13}, {"grid": 3}, (-2.0, 2.0), False,
        reconstruct_check(_sec6_potential, 1e-6),
    ),
    "reconstruct-su2": Workload(
        "reconstruct", "su2-shear", {"grid": 5}, {"grid": 3}, (-1.0, 1.0), False,
        reconstruct_check(_su2_shear_potential, 1e-3),
    ),
    "audit-su2": Workload(
        "audit", "su2-twist", {"samples": 30}, {"samples": 2}, None, True,
        audit_check({"axiom1_max_defect": 1e-6, "axiom2_max_defect": 1e-8, "axiom3_max_second_difference": 0.2}),
    ),
    "roundtrip-abelian": Workload(
        "roundtrip", "abelian-ydx", {"grid": 5, "steps": 16}, {"grid": 3, "steps": 16}, (-1.0, 1.0), True,
        roundtrip_check({"curvature": 1e-4, "gauge": 1e-5, "transport": 1e-4}),
    ),
}


@dataclass(frozen=True)
class Case:
    """One workload at one seed: the CLI arguments and what to expect."""

    workload: Workload
    argv: tuple[str, ...]
    box: tuple[float, float] | None
    grid: int | None
    samples: int | None

    def check(self, out: Path) -> float:
        return self.workload.check(self, out)


def shifted_box(seed: int, lo: float, hi: float) -> tuple[float, float]:
    """Each end moves by up to 4% of the half-width, chosen by the seed."""
    rng = random.Random(seed)
    half = (hi - lo) / 2.0
    return round(lo + rng.uniform(-0.04, 0.04) * half, 4), round(hi + rng.uniform(-0.04, 0.04) * half, 4)


def make_case(name: str, seed: int, tiny: bool = False) -> Case:
    wl = WORKLOADS[name]
    size = wl.tiny if tiny else wl.size
    argv = [wl.command, "--preset", wl.preset]
    for key, value in size.items():
        argv += [f"--{key}", str(value)]
    box = None
    if wl.box is not None:
        box = shifted_box(seed, *wl.box)
        argv.append(f"--box={box[0]!r},{box[1]!r}")
    if wl.seeded:
        argv += ["--seed", str(seed)]
    return Case(wl, tuple(argv), box, size.get("grid"), size.get("samples"))


# --- launching --------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("HOLONOMY_FORGE_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Launch:
    setup_s: float | None = None
    wall_s: float | None = None
    cpu_s: float | None = None
    rss_kb: int | None = None
    layers: dict | None = None
    notes: list = field(default_factory=list)
    versions: dict = field(default_factory=dict)
    outputs: dict | None = None  # file name -> bytes
    defect_ratio: float | None = None
    error: str | None = None


def launch(case: Case, work: Path, *, trace: bool = False, probe: bool = False, timeout: float = 120.0) -> Launch:
    """Run one fresh interpreter; a probe stops after set-up."""
    tmp = Path(tempfile.mkdtemp(dir=work))
    try:
        out, result_path = tmp / "out", tmp / "result.json"
        cmd = [sys.executable, str(BENCH / "launch.py"), str(result_path), "1" if trace else "0", case.workload.preset]
        if not probe:
            cmd += [*case.argv, f"--out={out}"]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return Launch(error=f"timed out after {timeout:.0f} s")
        stderr_tail = proc.stderr.strip()[-2000:]
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError):
            raise SetupError(f"the program did not start (exit code {proc.returncode}): {stderr_tail}") from None
        program = Path(result["program"]).resolve()
        if (ROOT / "src") not in program.parents:
            raise SetupError(f"holonomy_forge was imported from {program}, not from {ROOT / 'src'}")
        run = Launch(setup_s=result["ready"] - start, versions=result.get("versions", {}))
        if probe:
            if proc.returncode != 0:
                raise SetupError(f"set-up probe exited with {proc.returncode}: {stderr_tail}")
            return run
        run.wall_s = result.get("wall_s")
        run.cpu_s = result.get("cpu_s")
        run.rss_kb = result.get("max_rss_kb")
        run.layers = result.get("layers")
        run.notes = result.get("notes", [])
        if proc.returncode != 0 or result.get("exit_code") != 0:
            run.error = f"exit code {proc.returncode}/{result.get('exit_code')}: {stderr_tail}"
            return run
        try:
            run.outputs = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            run.defect_ratio = case.check(out)
        except (OSError, CheckFailed) as exc:
            run.error = str(exc)
        return run
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# --- one run ----------------------------------------------------------------


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def _layer_unit(key: str) -> str:
    if key.endswith("_ms"):
        return "ms"
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool, work: Path):
    """Measure one workload: (case, metrics by name as (value, unit), attempted, failed, launches)."""
    case = make_case(name, seed, tiny)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    setups: list[float] = []
    if not trace:
        for _ in range(1 if tiny else SETUP_PROBES):
            setups.append(launch(case, work, probe=True, timeout=deadline - time.monotonic()).setup_s)
    plain: list[Launch] = []
    traced: list[Launch] = []
    reference = None
    failed = 0
    rounds = 0
    while rounds < (1 if trace else MIN_ROUNDS) or time.monotonic() - start < seconds:
        for with_trace in (False, True) if trace else (False,):
            run = launch(case, work, trace=with_trace, timeout=deadline - time.monotonic())
            if run.error is None and reference is not None and run.outputs != reference:
                run.error = "outputs differ from an earlier launch with the same seed"
            if run.error is not None:
                failed += 1
                print(f"failed launch ({'traced' if with_trace else 'untraced'}): {run.error}", file=sys.stderr)
            elif reference is None:
                reference = run.outputs
            (traced if with_trace else plain).append(run)
        rounds += 1
        if time.monotonic() > deadline:
            break
    launches = plain + traced
    if trace:
        metrics = {}
        layer_runs = [r.layers for r in traced if r.layers]
        for key in layer_runs[0] if layer_runs else ():
            metrics[key] = (_median(r[key] for r in layer_runs), _layer_unit(key))
        untraced_wall = _median(r.wall_s for r in plain)
        overhead = _median(r.wall_s for r in traced) / untraced_wall - 1.0 if untraced_wall else 0.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        ratios = [r.defect_ratio for r in launches if r.defect_ratio is not None]
        metrics["check.defect_ratio"] = (max(ratios) if ratios else 0.0, "ratio")
    else:
        setups += [r.setup_s for r in plain]
        metrics = {
            "setup_s": (_median(setups), "s"),
            "wall_s": (_median(r.wall_s for r in plain), "s"),
            "peak_rss_mb": (_median(r.rss_kb for r in plain) / 1024.0, "MB"),
        }
    return case, metrics, len(launches), failed, launches


def select_metrics(measured: dict, wanted: list[dict]) -> dict:
    """The metrics BENCHMARK.json names, in its order, with its units."""
    out = {}
    for spec in wanted:
        if spec["name"] not in measured:
            # The traced child died before summarizing; report what is known.
            value, unit = 0.0, spec["unit"]
        else:
            value, unit = measured[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']}: measured in {unit}, BENCHMARK.json says {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment(launches: list[Launch]) -> dict:
    versions = next((r.versions for r in launches if r.versions), {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **versions,
        "commit": _commit(),
        "threads": {var: "1" for var in THREAD_VARS} | {"HOLONOMY_FORGE_THREADS": "unset"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; known: {', '.join(WORKLOADS)}")
    if not (ROOT / "src" / "holonomy_forge" / "cli.py").is_file():
        print(f"error: no holonomy_forge sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    results = []
    try:
        for name in names:
            case, measured, attempted, failed, launches = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.tiny, work
            )
            metrics = select_metrics(measured, wanted)
            print(f"# workload {name}, seed {args.seed}: holonomy-forge {' '.join(case.argv)}")
            print("env " + json.dumps(environment(launches)))
            for note in sorted({n for r in launches for n in r.notes}):
                print(f"note: {note}")
            for label, attr in (("set-up s", "setup_s"), ("wall s", "wall_s"), ("cpu s", "cpu_s")):
                print(f"launches, {label}: " + " ".join(f"{getattr(r, attr):.4f}" for r in launches if getattr(r, attr) is not None))
            for key, m in metrics.items():
                print(f"{name:20s} {key:55s} {m['value']:.6g} {m['unit']}")
            results.append((name, {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if len(results) == 1:
        print(json.dumps(results[0][1]))
    else:
        for name, result in results:
            print(json.dumps({"workload": name, **result}))
        print(json.dumps({
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}.{k}": v for n, r in results for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
