import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import holonomy_forge
from holonomy_forge.cli import main
from holonomy_forge.presets import iter_presets


def read(path):
    with open(path) as fh:
        return fh.read()


def count_samples(monkeypatch) -> dict:
    """Kernel calls, lattice points and probe pieces sampled by the
    transport kernels."""
    from holonomy_forge import holonomy

    counts, real = {"calls": 0, "points": 0, "probed": 0}, holonomy.sample_pieces

    def counting(cubic, ctrl, tmap, u):
        counts["calls"] += 1
        counts["points"] += len(cubic) * len(u)
        counts["probed"] += len(cubic) if len(u) == 5 else 0
        return real(cubic, ctrl, tmap, u)

    monkeypatch.setattr(holonomy, "sample_pieces", counting)
    return counts


# su2-twist's field as a connection file.
SU2_TWIST = {"group": "SU2", "matrix_dim": 2, "dim": 2,
             "components": [[{"coeff": 1.0, "exps": [0, 1], "basis": 0}], [{"coeff": 1.0, "exps": [1, 0], "basis": 2}]]}


def csv_rows(path):
    lines = read(path).strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestPresets:
    def test_list(self, capsys):
        assert main(["presets", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("paper-sec6", "zero-connection", "abelian-ydx", "su2-shear"):
            assert name in out


class TestReconstruct:
    def test_sec6_grid(self, tmp_path):
        code = main([
            "reconstruct", "--preset", "paper-sec6", "--grid", "9", "--box", "-2,2",
            "--out", str(tmp_path),
        ])
        assert code == 0
        header, rows = csv_rows(tmp_path / "potential.csv")
        assert header == ["x1", "x2", "mu", "re_0_0", "im_0_0"]
        assert len(rows) == 81 * 2
        values = {(float(r[0]), float(r[1]), int(r[2])): float(r[3]) for r in rows}
        assert abs(values[(1.0, 2.0, 0)] - 1.0) <= 1e-6
        assert abs(values[(1.0, 2.0, 1)] - (-0.5)) <= 1e-6
        summary = json.loads(read(tmp_path / "reconstruct_summary.json"))
        assert summary["pass"] is True
        assert summary["max_abs_error"] <= 1e-6

    def test_zero_connection_all_zero(self, tmp_path):
        assert main(["reconstruct", "--preset", "zero-connection", "--out", str(tmp_path)]) == 0
        _, rows = csv_rows(tmp_path / "potential.csv")
        assert all(float(r[3]) == 0.0 and float(r[4]) == 0.0 for r in rows)

    def test_custom_input_file(self, tmp_path):
        conn = {
            "name": "custom",
            "group": "MultiplicativeReals",
            "dim": 2,
            "components": [[{"coeff": 2.0, "exps": [0, 1], "basis": 0}],
                           [{"coeff": 1.0, "exps": [1, 0], "basis": 0}]],
        }
        src = tmp_path / "conn.json"
        src.write_text(json.dumps(conn))
        out = tmp_path / "out"
        assert main(["reconstruct", "--input", str(src), "--grid", "3", "--out", str(out)]) == 0
        _, rows = csv_rows(out / "potential.csv")
        values = {(float(r[0]), float(r[1]), int(r[2])): float(r[3]) for r in rows}
        # radial reconstruction of 2y dx + x dy is (y/2, -x/2)
        assert abs(values[(1.0, 1.0, 0)] - 0.5) <= 1e-6
        assert abs(values[(1.0, 1.0, 1)] + 0.5) <= 1e-6

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["reconstruct", "--preset", "paper-sec6", "--grid", "5", "--out", str(out)]) == 0
        assert read(a / "potential.csv") == read(b / "potential.csv")
        assert read(a / "reconstruct_summary.json") == read(b / "reconstruct_summary.json")

    def test_fd_h_override(self, tmp_path):
        code = main(["reconstruct", "--preset", "paper-sec6", "--grid", "3",
                     "--fd-h", "0.001", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads(read(tmp_path / "reconstruct_summary.json"))
        assert summary["fd_h"] == 0.001

    def test_fd_h_outside_valid_range(self, tmp_path):
        assert main(["reconstruct", "--preset", "paper-sec6", "--fd-h", "0.5",
                     "--out", str(tmp_path)]) == 1


class TestAudit:
    def test_sec6_passes(self, tmp_path):
        code = main(["audit", "--preset", "paper-sec6", "--samples", "50", "--seed", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        report = json.loads(read(tmp_path / "axiom_report.json"))
        assert list(report.keys()) == [
            "axiom1_max_defect", "axiom2_max_defect", "axiom3_max_second_difference",
            "samples", "pass", "steps", "integration_estimates",
        ]
        # An analytic map has no step count to control.
        assert report["steps"] is None and report["integration_estimates"] is None
        assert report["samples"] == 50
        assert report["pass"] == [True, True, True]
        assert report["axiom1_max_defect"] <= 1e-10

    def test_under_resolved_transport_fails_axiom2(self, tmp_path):
        code = main(["audit", "--preset", "su2-twist", "--samples", "6", "--steps", "4",
                     "--out", str(tmp_path)])
        assert code == 2
        # tolerance failure still writes a complete, valid report
        report = json.loads(read(tmp_path / "axiom_report.json"))
        assert report["pass"][1] is False

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["audit", "--preset", "paper-sec6", "--samples", "20", "--seed", "9",
                  "--out", str(out)])
        assert read(a / "axiom_report.json") == read(b / "axiom_report.json")

    def test_error_controlled_run_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["audit", "--preset", "su2-twist", "--samples", "5", "--out", str(out)]) == 0
        assert read(a / "axiom_report.json") == read(b / "axiom_report.json")

    def test_error_controlled_by_default(self, tmp_path, monkeypatch):
        # Each law takes a tenth of its gate (axiom 3: a fortieth times the
        # grid step 1/20 squared) per quantity, capped at the preset's 128.
        counts = count_samples(monkeypatch)
        argv = ["audit", "--preset", "su2-twist", "--samples", "30", "--seed", "1"]
        assert main([*argv, "--steps", "128", "--out", str(tmp_path / "fixed")]) == 0
        fixed = dict(counts)
        counts.update(points=0, probed=0)
        assert main([*argv, "--out", str(tmp_path)]) == 0
        assert counts["points"] <= fixed["points"] / 4
        report = json.loads(read(tmp_path / "axiom_report.json"))
        assert report["pass"] == [True, True, True]
        assert report["steps"] == [16, 64, 8]
        per_loop = [1e-6 / 10, 1e-8 / 10, 0.2 / 40 / 20**2]
        assert all(0.0 < e <= t for e, t in zip(report["integration_estimates"], per_loop))
        assert report["axiom2_max_defect"] <= 1e-8
        fixed = json.loads(read(tmp_path / "fixed" / "axiom_report.json"))
        assert fixed["steps"] is None and fixed["integration_estimates"] is None

    @pytest.mark.parametrize("seed", [0, 16])
    @pytest.mark.parametrize("preset", ["abelian-ydx", "su2-shear", "su2-twist"])
    def test_error_controlled_audit_passes_at_the_preset_gates(self, tmp_path, preset, seed):
        # Seed 16 of abelian-ydx holds the thin loop whose defect comes
        # closest to its gate (7.95e-9 against 1e-8) over seeds 0-49.
        assert main(["audit", "--preset", preset, "--samples", "100", "--seed", str(seed), "--out", str(tmp_path)]) == 0
        report = json.loads(read(tmp_path / "axiom_report.json"))
        assert report["pass"] == [True, True, True] and max(report["steps"]) <= 128

    def test_gate_unmet_at_the_cap_fails_naming_the_law(self, tmp_path, capsys):
        conn = {**SU2_TWIST, "steps": 8, "tolerances": {"axiom1": 1.0, "axiom2": 1e-12}}
        src = tmp_path / "conn.json"
        src.write_text(json.dumps(conn))
        out = tmp_path / "out"
        assert main(["audit", "--input", str(src), "--samples", "4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: IntegrationError: axiom 2, thin loop ") and "at 8 steps per piece" in err
        assert not out.exists()


class TestReconstructSu2:
    def test_summary_defect_within_preset_tolerance(self, tmp_path):
        code = main(["reconstruct", "--preset", "su2-shear", "--grid", "3", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads(read(tmp_path / "reconstruct_summary.json"))
        assert summary["max_abs_error"] <= 1e-3
        header, rows = csv_rows(tmp_path / "potential.csv")
        assert header[3:] == [
            "re_0_0", "im_0_0", "re_0_1", "im_0_1", "re_1_0", "im_1_0", "re_1_1", "im_1_1",
        ]


    def test_error_controlled_by_default(self, tmp_path, monkeypatch):
        # A tenth of the 1e-3 gate goes to integration, capped at the
        # preset's 128 steps: 8 steps per piece meet it at every node.
        from holonomy_forge import cli

        calls = []
        real = cli.reconstruct_potential
        monkeypatch.setattr(cli, "reconstruct_potential", lambda h_map, psi, x, mu, cfg, tol: calls.append(
            (h_map.steps, tol)) or real(h_map, psi, x, mu, cfg, tol))
        code = main(["reconstruct", "--preset", "su2-shear", "--grid", "5", "--out", str(tmp_path)])
        assert code == 0
        assert calls == [(128, 1e-3 / 10.0)] * 2
        summary = json.loads(read(tmp_path / "reconstruct_summary.json"))
        assert summary["steps"] == 8
        assert 0.0 < summary["max_integration_estimate"] <= 1e-4
        assert summary["max_abs_error"] <= 1e-3

    @pytest.mark.parametrize(
        "argv, steps",
        [
            (["--preset", "su2-shear", "--steps", "128"], 128),
            (["--preset", "su2-twist"], 128),  # no reconstruct gate
            (["--preset", "paper-sec6"], None),  # analytic
        ],
    )
    def test_estimate_is_null_for_fixed_and_analytic_runs(self, tmp_path, argv, steps):
        assert main(["reconstruct", *argv, "--grid", "3", "--out", str(tmp_path)]) == 0
        summary = json.loads(read(tmp_path / "reconstruct_summary.json"))
        assert summary["steps"] == steps
        assert summary["max_integration_estimate"] is None

    def test_summary_of_a_connection_file_without_closed_form(self, tmp_path):
        # The steps and estimate come from the rule's calls, which the grid
        # output makes when there is no closed form to compare against.
        src = tmp_path / "conn.json"
        src.write_text(json.dumps({**SU2_TWIST, "steps": 12, "tolerances": {"reconstruct": 1e-3}}))
        assert main(["reconstruct", "--input", str(src), "--grid", "5", "--out", str(tmp_path)]) == 0
        summary = json.loads(read(tmp_path / "reconstruct_summary.json"))
        assert summary["steps"] == 8
        assert 0.0 < summary["max_integration_estimate"] <= 1e-4
        assert summary["max_abs_error"] is None and summary["pass"] is True

    def test_abelian_plan_probes_each_piece_once(self, tmp_path, monkeypatch):
        # The passes at 8, 16, ... share one probe of the distinct pieces.
        counts = count_samples(monkeypatch)
        assert main(["reconstruct", "--preset", "abelian-ydx", "--grid", "5", "--out", str(tmp_path)]) == 0
        assert counts["probed"] == 432

    def test_gate_below_the_rounding_floor_fails_the_run(self, tmp_path, capsys):
        conn = {"group": "SU2", "matrix_dim": 2, "dim": 2, "tolerances": {"reconstruct": 1e-14},
                "components": [[{"coeff": 1.0, "exps": [0, 1], "basis": 0}], [{"coeff": 1.0, "exps": [1, 0], "basis": 2}]]}
        src = tmp_path / "conn.json"
        src.write_text(json.dumps(conn))
        out = tmp_path / "out"
        assert main(["reconstruct", "--input", str(src), "--grid", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: IntegrationError: point [") and "at 64 steps per piece" in err
        assert not out.exists()
        assert main(["reconstruct", "--input", str(src), "--grid", "3", "--steps", "64", "--out", str(out)]) == 0


class TestRoundtrip:
    def test_abelian_ydx(self, tmp_path):
        code = main(["roundtrip", "--preset", "abelian-ydx", "--grid", "3", "--steps", "32",
                     "--out", str(tmp_path)])
        assert code == 0
        report = json.loads(read(tmp_path / "roundtrip_report.json"))
        assert report["max_curvature_defect"] <= 1e-4

    def test_zero_connection(self, tmp_path):
        code = main(["roundtrip", "--preset", "zero-connection", "--grid", "3",
                     "--steps", "16", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads(read(tmp_path / "roundtrip_report.json"))
        assert list(report.keys()) == [
            "grid", "max_curvature_defect", "max_gauge_defect", "max_transport_defect",
            "tolerances", "failures",
        ]
        assert report["max_curvature_defect"] <= 1e-10
        assert report["failures"] == []

    def test_su2_run_is_deterministic(self, tmp_path):
        # The SU(2) stack path of the node defects: gauge field, inverse and
        # conjugated curvature as (m, 2, 2) stacks.
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["roundtrip", "--preset", "su2-shear", "--grid", "3", "--steps", "8", "--out", str(out)]) == 0
        assert read(a / "roundtrip_report.json") == read(b / "roundtrip_report.json")


    def test_wide_box_corners_fail_by_step_size(self, tmp_path):
        # On [-30, 30]^2 the relating gauge value at a corner is exp(-450),
        # whose inverse the group check used to refuse as "not invertible".
        # The corners now fail as StepTooLarge: each frame leg carries a
        # flux of hundreds, so the difference loops at h = 1e-4 are far
        # from the identity.
        code = main(["roundtrip", "--preset", "paper-sec6", "--box=-30,30", "--grid", "4", "--out", str(tmp_path)])
        assert code == 2
        failures = json.loads(read(tmp_path / "roundtrip_report.json"))["failures"]
        corners = [f for f in failures if sorted(map(abs, f[0])) == [30, 30]]
        assert len(corners) == 4
        assert all(kind == "StepTooLarge" for _, kind, _ in corners), corners


class TestKernelCalls:
    # A kernel call holds at most 8192 entries of its (samples, d, d)
    # temporaries: the 1x1 round trip packs its samples into fewer, longer
    # calls, and SU(2)'s 2048 samples per call stay where they were.  The
    # holonomy-only transport of the 10 sample paths is one batch, 2 calls
    # where one batch per path took 20, over the same samples.
    def test_abelian_roundtrip(self, tmp_path, monkeypatch):
        counts = count_samples(monkeypatch)
        argv = ["roundtrip", "--preset", "abelian-ydx", "--grid", "5", "--steps", "16", "--seed", "1"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        assert counts["calls"] == 22 and counts["points"] == 105_458

    def test_su2_roundtrip(self, tmp_path, monkeypatch):
        # The transport cross-check's drive takes 2 difference loops per
        # lattice sample, where one quotient per axis took 4.
        counts = count_samples(monkeypatch)
        argv = ["roundtrip", "--preset", "su2-shear", "--grid", "3", "--steps", "16", "--seed", "1"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        assert counts["calls"] == 52 and counts["points"] == 85_584

    def test_su2_audit(self, tmp_path, monkeypatch):
        counts = count_samples(monkeypatch)
        assert main(["audit", "--preset", "su2-twist", "--samples", "30", "--seed", "1", "--out", str(tmp_path)]) == 0
        assert counts["calls"] == 17 and counts["points"] == 20_734


def count_norm_callers(monkeypatch) -> collections.Counter:
    """np.linalg.norm calls, by the module and function that made them."""
    calls, real = collections.Counter(), np.linalg.norm

    def counting(*args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's own frame
            frame = frame.f_back
        calls[frame.f_globals["__name__"].rsplit(".", 1)[-1], frame.f_code.co_name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    return calls


class TestGridCheckCalls:
    # The workloads' arguments at seed 1, and the PathFamily.tables calls
    # each makes.  The built-in frames copy the base point and targets into
    # their ends, so tables never takes its tolerance check, whose first
    # step is a norm call.
    WORKLOADS = {
        "reconstruct-abelian": (["reconstruct", "--preset", "paper-sec6", "--grid", "13", "--box=-2.0585,2.0556"], 8),
        "reconstruct-su2": (["reconstruct", "--preset", "su2-shear", "--grid", "5", "--box=-1.0293,1.0278"], 4),
        "audit-su2": (["audit", "--preset", "su2-twist", "--samples", "30", "--seed", "1"], 2),
        "roundtrip-abelian": (
            ["roundtrip", "--preset", "abelian-ydx", "--grid", "5", "--steps", "16", "--box=-1.0293,1.0278", "--seed", "1"],
            14,
        ),
    }

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_frame_tables_take_no_tolerance_check(self, tmp_path, monkeypatch, workload):
        from holonomy_forge.path_algebra import PathFamily

        argv, want = self.WORKLOADS[workload]
        norms, tables, real = count_norm_callers(monkeypatch), [], PathFamily.tables
        monkeypatch.setattr(PathFamily, "tables", lambda psi, points: tables.append(1) or real(psi, points))
        assert main([*argv, "--out", str(tmp_path)]) == 0
        assert len(tables) == want and norms["path_algebra", "tables"] == 0

    def test_reconstruct_check_is_one_closed_form_call_per_direction(self, tmp_path, monkeypatch):
        # 169 nodes in 2 directions took 338 closed-form calls and as many
        # norm calls; a 1x1 stack's norms take none.
        import dataclasses

        from holonomy_forge import cli

        preset, calls = holonomy_forge.get_preset("paper-sec6"), []
        counted = dataclasses.replace(preset, closed_form=lambda x, mu: calls.append(len(x)) or preset.closed_form(x, mu))
        monkeypatch.setattr(cli, "get_preset", lambda name: counted)
        norms = count_norm_callers(monkeypatch)
        assert main([*self.WORKLOADS["reconstruct-abelian"][0], "--out", str(tmp_path)]) == 0
        assert calls == [169, 169]
        assert norms["cli", "_cmd_reconstruct"] == norms["lie_core", "_norms"] == 0


@pytest.mark.parametrize("preset", [p.name for p in iter_presets()])
def test_roundtrip_passes_at_every_preset_default(tmp_path, preset):
    # abelian-quartic exited 2 here at 64 steps: RK4 truncation put its
    # gauge defect at 6.8e-5 against a gate of 1e-5.
    assert main(["roundtrip", "--preset", preset, "--grid", "3", "--out", str(tmp_path)]) == 0
    assert json.loads(read(tmp_path / "roundtrip_report.json"))["failures"] == []


class TestErrors:
    def test_unknown_preset_exits_1_and_writes_nothing(self, tmp_path):
        out = tmp_path / "never"
        assert main(["reconstruct", "--preset", "nope", "--out", str(out)]) == 1
        assert not out.exists()

    def test_missing_source(self, tmp_path):
        assert main(["reconstruct", "--out", str(tmp_path)]) == 1

    def test_bad_box(self, tmp_path):
        assert main(["reconstruct", "--preset", "paper-sec6", "--box", "2,-2",
                     "--out", str(tmp_path)]) == 1

    def test_bad_flag_value(self, tmp_path):
        assert main(["reconstruct", "--preset", "paper-sec6", "--grid", "one",
                     "--out", str(tmp_path)]) == 1

    def test_malformed_input_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["reconstruct", "--input", str(bad), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "term",
        [
            {"basis": -1, "exps": [0, 1]},
            {"basis": 1, "exps": [0, 1]},
            {"basis": 0, "exps": [0, 1, 0]},
            {"basis": 0, "exps": [1]},
            {"basis": 0, "exps": [0, -1]},
        ],
        ids=["negative-basis", "basis-past-u1", "long-exps", "short-exps", "negative-exponent"],
    )
    def test_malformed_polynomial_term(self, tmp_path, capsys, term):
        conn = {"group": "U1", "dim": 2, "components": [[{"coeff": 1.0, **term}], []]}
        src = tmp_path / "conn.json"
        src.write_text(json.dumps(conn))
        out = tmp_path / "never"
        assert main(["reconstruct", "--input", str(src), "--grid", "3", "--out", str(out)]) == 1
        assert "error: malformed connection file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_coefficient_is_an_input_error(self, tmp_path, capsys, literal):
        # json.load accepts these literals; the connection file must not.
        src = tmp_path / "conn.json"
        src.write_text('{"group": "SU2", "matrix_dim": 2, "dim": 2, "components": '
                       f'[[{{"coeff": {literal}, "exps": [0, 1], "basis": 0}}], []]}}')
        out = tmp_path / "never"
        assert main(["reconstruct", "--input", str(src), "--grid", "3", "--out", str(out)]) == 1
        assert "error: malformed connection file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("basepoint", ["[NaN, 0.0]", "[0.0, -Infinity]", "[0.0]"])
    def test_bad_basepoint_is_an_input_error(self, tmp_path, capsys, basepoint):
        # A nan base point used to pass the frame's start check and give the
        # input potential instead of its radial-gauge reconstruction.
        src = tmp_path / "conn.json"
        src.write_text('{"group": "U1", "dim": 2, "components": '
                       f'[[{{"coeff": 1.0, "exps": [0, 1], "basis": 0}}], []], "basepoint": {basepoint}}}')
        out = tmp_path / "never"
        assert main(["reconstruct", "--input", str(src), "--grid", "3", "--out", str(out)]) == 1
        assert "error: malformed connection file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reconstruct", "audit", "roundtrip"])
    def test_overflowing_su2_field_fails_the_run(self, tmp_path, capsys, command):
        # The transport products of a 1e300 coefficient overflow to nan;
        # each subcommand used to exit 0 with nan or zero defects.
        conn = {"group": "SU2", "matrix_dim": 2, "dim": 2,
                "components": [[{"coeff": 1e300, "exps": [0, 1], "basis": 0}], []]}
        src = tmp_path / "conn.json"
        src.write_text(json.dumps(conn))
        out = tmp_path / "out"
        samples = ["--samples", "2"] if command == "audit" else []
        assert main([command, "--input", str(src), "--grid", "3", *samples, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        if command == "roundtrip":
            report = json.loads(read(out / "roundtrip_report.json"))
            assert report["failures"] and all(f[1] == "IntegrationError" for f in report["failures"])
        else:
            assert "error: IntegrationError: " in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["reconstruct", "--preset", "paper-sec6", "--box=-20000,20000", "--grid", "2"], "StepTooLarge"),
            (["reconstruct", "--input", "REALS", "--grid", "3"], "IntegrationError"),
        ],
        ids=["huge-box", "negative-propagator"],
    )
    def test_numerical_errors_are_named_failures(self, tmp_path, capsys, argv, name):
        # A named numerical error ends the run with exit 2 and one error
        # line, not a traceback.
        conn = {"group": "MultiplicativeReals", "dim": 2, "backend": "transport", "box": [-5.0, 5.0],
                "components": [[{"coeff": -800.0, "exps": [0, 1], "basis": 0}], []]}
        src = tmp_path / "reals.json"
        src.write_text(json.dumps(conn))
        argv = [str(src) if a == "REALS" else a for a in argv]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert f"error: {name}: " in capsys.readouterr().err

    def test_fd_h_range_names_the_flag(self, tmp_path, capsys):
        # 0.01 lies in FdConfig's (0, 0.1) but above the CLI's curvature
        # step; the error states the range the flag really has.
        out = tmp_path / "never"
        assert main(["reconstruct", "--preset", "paper-sec6", "--fd-h", "0.01", "--out", str(out)]) == 1
        assert "error: --fd-h must lie in (0, 0.001], got 0.01" in capsys.readouterr().err
        assert main(["reconstruct", "--preset", "paper-sec6", "--grid", "3", "--fd-h", "0.001",
                     "--out", str(out)]) == 0

    def test_non_finite_floats_are_json_strings(self):
        from holonomy_forge.cli import _json_text

        text = _json_text({"a": float("nan"), "b": np.inf, "c": -np.inf, "d": 0.1})
        assert json.loads(text) == {"a": "nan", "b": "inf", "c": "-inf", "d": 0.1}

    def test_no_tmp_files_left_behind(self, tmp_path):
        main(["audit", "--preset", "paper-sec6", "--samples", "5", "--out", str(tmp_path)])
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_audit_needs_a_sample(self, tmp_path, samples):
        out = tmp_path / "never"
        assert main(["audit", "--preset", "paper-sec6", "--samples", samples, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("preset, box", [("su2-shear", "0,inf"), ("paper-sec6", "-inf,1"), ("su2-shear", "nan,1")])
    @pytest.mark.parametrize("command", ["reconstruct", "roundtrip"])
    def test_non_finite_box_is_an_input_error(self, tmp_path, capsys, command, preset, box):
        # An infinite end makes NaN grid nodes: the box is refused before any
        # node is computed, not reported as a pass or a tolerance failure.
        out = tmp_path / "never"
        assert main([command, "--preset", preset, "--grid", "3", "--box", box, "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reconstruct", "audit", "roundtrip"])
    def test_negative_seed_is_an_input_error(self, tmp_path, capsys, command):
        out = tmp_path / "never"
        assert main([command, "--preset", "su2-shear", "--grid", "3", "--seed", "-1", "--out", str(out)]) == 1
        assert "error: --seed" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_defect_fails_the_run(self, tmp_path, monkeypatch):
        # max(0.0, nan) is 0.0, so a max() fold would drop a NaN defect.
        import dataclasses

        from holonomy_forge import cli

        preset = dataclasses.replace(
            holonomy_forge.get_preset("paper-sec6"), closed_form=lambda x, mu: np.full(np.shape(x)[:-1] + (1, 1), np.nan)
        )
        monkeypatch.setattr(cli, "get_preset", lambda name: preset)
        assert main(["reconstruct", "--preset", "paper-sec6", "--grid", "3", "--out", str(tmp_path)]) == 2
        # A nan defect is written as the string "nan", so the file stays JSON.
        summary = json.loads(read(tmp_path / "reconstruct_summary.json"))
        assert summary["max_abs_error"] == "nan" and summary["pass"] is False

    @pytest.mark.parametrize("command", ["reconstruct", "audit", "roundtrip"])
    @pytest.mark.parametrize("flag, value", [("--steps", "0"), ("--steps", "-1"), ("--fd-h", "0"), ("--fd-h", "-0.001")])
    def test_bad_steps_and_fd_h_are_input_errors(self, tmp_path, command, flag, value):
        # Zero must not fall back to the preset default, and a negative
        # step count must not escape as a traceback.
        out = tmp_path / "never"
        assert main([command, "--preset", "su2-shear", "--grid", "3", flag, value, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, change",
        [
            ("reconstruct", {"components": [[{"coeff": 1.0, "exps": [0, 1.5], "basis": 0}], []]}),
            ("reconstruct", {"components": [[{"coeff": 1.0, "exps": [0, 1], "basis": 0.7}], []]}),
            ("reconstruct", {"dim": 2.9}),
            ("reconstruct", {"group": "GLn", "matrix_dim": 2.9}),
            ("reconstruct", {"backend": "transport", "steps": 8.5}),
            ("reconstruct", {"backend": "transport", "steps": 0}),
            ("reconstruct", {"backend": "bogus"}),
            ("reconstruct", {"box": [1.0]}),
            ("roundtrip", {"tolerances": {"curvature": "tiny"}}),
            ("audit", {"tolerances": {"axiom1": "tiny"}}),
            ("roundtrip", {"tolerances": {"curvatur": 1e-30}}),
            ("audit", {"tolerances": {"axiom_1": 1e-30}}),
            ("reconstruct", {"tolerances": {"reconstruction": 1e-30}}),
            ("reconstruct", {"backend": "transport", "tolerances": {"reconstruct": 0}}),
            ("audit", {"backend": "transport", "tolerances": {"axiom2": -1e-8}}),
            ("roundtrip", {"tolerances": {"gauge": float("nan")}}),
        ],
        ids=["float-exponent", "float-basis", "float-dim", "float-matrix-dim", "float-steps", "zero-steps",
             "unknown-backend", "one-number-box", "string-tolerance", "string-axiom-tolerance",
             "misspelt-roundtrip-tolerance", "misspelt-audit-tolerance", "misspelt-reconstruct-tolerance",
             "zero-tolerance", "negative-tolerance", "nan-tolerance"],
    )
    def test_connection_file_values_are_checked(self, tmp_path, capsys, command, change):
        # Each value used to be truncated, accepted as given or left to fail
        # later as a traceback or a numerical error (exit 2).
        conn = {"group": "U1", "dim": 2, "components": [[{"coeff": 1.0, "exps": [0, 1], "basis": 0}], []], **change}
        src = tmp_path / "conn.json"
        src.write_text(json.dumps(conn))
        out = tmp_path / "never"
        samples = ["--samples", "2"] if command == "audit" else []
        assert main([command, "--input", str(src), "--grid", "3", *samples, "--out", str(out)]) == 1
        assert "error: malformed connection file" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("command", ["reconstruct", "audit"])
    @pytest.mark.parametrize("steps", [1, 3, 5, 7])
    def test_odd_cap_of_an_error_controlled_run_names_steps(self, tmp_path, capsys, command, steps):
        # Step doubling halves the count, so it cannot start from an odd
        # count below 8; --steps fixes the count, and then the run goes on.
        conn = {**SU2_TWIST, "steps": steps, "tolerances": {"reconstruct": 1.0, "axiom1": 1.0, "axiom2": 1.0}}
        src = tmp_path / "conn.json"
        src.write_text(json.dumps(conn))
        argv = [command, "--input", str(src), "--grid", "3"] + (["--samples", "2"] if command == "audit" else [])
        assert main([*argv, "--out", str(tmp_path / "never")]) == 1
        assert f"error: steps {steps} cannot be error-controlled" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()
        assert main([*argv, "--steps", str(steps), "--out", str(tmp_path / "fixed")]) in (0, 2)

    def test_infinite_gates_are_allowed(self, tmp_path):
        conn = {**SU2_TWIST, "tolerances": {"axiom1": float("inf"), "axiom3": float("inf")}}
        src = tmp_path / "conn.json"
        src.write_text(json.dumps(conn))
        assert main(["audit", "--input", str(src), "--samples", "2", "--out", str(tmp_path)]) == 0
        report = json.loads(read(tmp_path / "axiom_report.json"))
        assert report["steps"][0] == report["steps"][2] == 8


_IMPORT_GUARD = """
import json, sys
from holonomy_forge import cli

out = sys.argv[1]
runs = [
    ["reconstruct", "--preset", "paper-sec6", "--grid", "3"],
    ["reconstruct", "--preset", "su2-shear", "--grid", "3"],
    ["audit", "--preset", "su2-twist", "--samples", "2"],
    ["audit", "--preset", "paper-sec6", "--samples", "2"],
    ["roundtrip", "--preset", "abelian-ydx", "--grid", "3", "--steps", "8"],
    ["roundtrip", "--preset", "su2-shear", "--grid", "3", "--steps", "8"],
]
codes, late = [], set()
for argv in runs:
    before = set(sys.modules)
    codes.append(cli.main(argv + ["--out", out]))
    late |= set(sys.modules) - before
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy, "inside_main": sorted(late)}))
"""


def test_subcommands_import_no_scipy_and_no_module_inside_main(tmp_path):
    # SciPy is only for GL(n) exp/log, so the 1x1 and SU(2) presets never
    # load it; the modules a run needs (numpy.random, locale for argparse's
    # messages) load with the package, not on first use inside main.
    src = str(Path(holonomy_forge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD, str(tmp_path)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0] * 6
    assert result["scipy"] == []
    assert result["inside_main"] == []
