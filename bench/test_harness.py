"""Smoke test of the benchmark harness at tiny sizes (grid 3, 2 audit samples).

    python3 -m pytest bench/test_harness.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit, in
both the untraced and the traced mode, that a corrupted output counts as a
failed operation, and that without the program no result is printed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--seed", "3", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2, proc.stderr
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        assert result["metrics"]["holonomy.eval_holonomy.calls"]["value"] > 0
        assert 0.0 < result["metrics"]["check.defect_ratio"]["value"] <= 1.0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _corrupt_csv_value(out: Path):
    path = out / "potential.csv"
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[-2] = repr(float(cells[-2]) + 1e-3)
    path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")


def _truncate_csv(out: Path):
    path = out / "potential.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")


def _raise_axiom2_defect(out: Path):
    path = out / "axiom_report.json"
    report = json.loads(path.read_text())
    report["axiom2_max_defect"] = 1e-6
    path.write_text(json.dumps(report))


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("reconstruct-abelian", _corrupt_csv_value),
        ("reconstruct-su2", _truncate_csv),
        ("audit-su2", _raise_axiom2_defect),
    ],
)
def test_corrupted_output_is_a_failure(workload, corrupt, tmp_path, monkeypatch):
    case = run.make_case(workload, seed=3, tiny=True)
    kept = tmp_path / "kept"
    real_check = run.Case.check

    def corrupt_then_check(self, out):
        shutil.copytree(out, kept)
        assert real_check(self, out) <= 1.0
        corrupt(out)
        return real_check(self, out)

    monkeypatch.setattr(run.Case, "check", corrupt_then_check)
    launch = run.launch(case, tmp_path)
    assert kept.is_dir(), launch.error
    assert launch.error is not None


def test_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", SPEC["workloads"][0]["name"])
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
