"""Command-line front end: grid reconstruction, axiom audits, round trips.

Subcommands: ``reconstruct``, ``audit``, ``roundtrip``, ``presets list``.
Exit codes: 0 all checks within tolerance, 1 input error, 2 tolerance
failure or a named numerical error.  Outputs are written to temporary
files and renamed into place, so interrupted runs never leave partial
files.  Identical configurations (including the seed) produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import locale  # argparse's gettext imports it on first use, inside main
import os
import sys

import numpy as np

from .holonomy import ConnectionField, audit_axioms
from .lie_core import MULTIPLICATIVE_REALS, SU2, U1, GroupSpec, gln
from .presets import Preset, get_preset, iter_presets
from .reconstruction import (
    FdConfig,
    GridSpec,
    potential_grid_csv,
    reconstruct_potential,
    round_trip_report,
)

__all__ = ["main", "entrypoint"]


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route them through the
    # input-error path (exit 1) instead, since 2 means tolerance failure.
    def error(self, message):
        raise _InputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="holonomy-forge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid_default=9):
        p.add_argument("--preset", help="name of a built-in preset")
        p.add_argument("--input", help="restricted polynomial connection file (JSON)")
        p.add_argument("--grid", type=int, default=grid_default, metavar="N")
        p.add_argument("--box", metavar="lo,hi", help="per-axis domain box")
        p.add_argument("--fd-h", type=float, dest="fd_h", metavar="X", help="difference step")
        p.add_argument(
            "--steps",
            type=int,
            metavar="N",
            help="fix the transport steps per segment; without it, on a transport preset, reconstruct "
            "(given a reconstruct tolerance) and audit take per point or loop the fewest steps, up to the "
            "preset's default, whose step-doubling estimate is within a tenth of the gate (axiom 3: a "
            "fortieth of the gate times the family grid step squared)",
        )
        p.add_argument("--seed", type=int, default=0, metavar="N")
        p.add_argument("--out", default=".", metavar="DIR")

    common(sub.add_parser("reconstruct", help="recover the potential on a grid"))
    audit = sub.add_parser("audit", help="randomized loop-law audit")
    common(audit)
    audit.add_argument("--samples", type=int, default=100, metavar="N")
    common(sub.add_parser("roundtrip", help="connection -> holonomy -> connection report"))
    presets = sub.add_parser("presets", help="preset registry")
    presets.add_argument("action", choices=["list"])
    return parser


def _json_text(obj, indent: int = 0) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_json_text(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + ", ".join(_json_text(v, indent) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)) or obj is None:
        return json.dumps(bool(obj) if obj is not None else None)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # JSON has no nan or infinity literals: such floats are written as
        # the strings "nan", "inf" and "-inf".
        text = f"{float(obj):.17g}"
        return text if np.isfinite(obj) else json.dumps(text)
    return json.dumps(str(obj))


def _write_atomic(directory: str, name: str, text: str) -> str:
    os.makedirs(directory, exist_ok=True)
    final = os.path.join(directory, name)
    tmp = final + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, final)
    return final


_GROUPS = {
    "MultiplicativeReals": lambda d: MULTIPLICATIVE_REALS,
    "U1": lambda d: U1,
    "SU2": lambda d: SU2,
    "GLn": lambda d: gln(d),
}


# The gates a connection file may set, as the presets name them.
_TOLERANCE_NAMES = ("reconstruct", "axiom1", "axiom2", "axiom3", "curvature", "gauge", "transport")


def _checked(value, kind=float, least=None):
    """A JSON number, or with ``kind=int`` an integer of at least ``least``;
    1.5, true or "2" raise ``ValueError`` rather than being converted."""
    if isinstance(value, bool) or not isinstance(value, (int, kind)) or (least is not None and value < least):
        raise ValueError(f"expected a {kind.__name__} >= {least}, got {value!r}")
    return kind(value)


def _load_custom(path: str) -> Preset:
    """Restricted connection input: polynomial coefficients per component."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _InputError(f"cannot read connection file {path!r}: {exc}") from exc
    try:
        group = data["group"]
        if group not in _GROUPS:
            raise _InputError(f"unknown group {group!r}")
        spec: GroupSpec = _GROUPS[group](_checked(data.get("matrix_dim", 1), int, 1))
        dim = _checked(data["dim"], int, 1)
        components = [
            [(_checked(t["coeff"]), tuple(_checked(e, int, 0) for e in t["exps"]), _checked(t["basis"], int, 0))
             for t in comp]
            for comp in data["components"]
        ]
        if len(components) != dim:
            raise _InputError("components must list one term set per direction")
        connection = ConnectionField.from_polynomial(dim, spec, components)
        backend = data.get("backend", "analytic" if spec.is_abelian else "transport")
        if backend not in ("analytic", "transport"):
            raise ValueError(f"backend must be 'analytic' or 'transport', got {backend!r}")
        if backend == "analytic" and not spec.is_abelian:
            raise _InputError("analytic backend requires an abelian group")
        tolerances = {k: _checked(v) for k, v in dict(data.get("tolerances", {})).items()}
        unknown = sorted(set(tolerances) - set(_TOLERANCE_NAMES))
        if unknown:
            raise ValueError(f"unknown tolerances {unknown}; the names are {list(_TOLERANCE_NAMES)}")
        unusable = {k: v for k, v in tolerances.items() if not v > 0.0}
        if unusable:
            raise ValueError(f"tolerances must be positive numbers (infinity allowed), got {unusable}")
        box = tuple(_checked(v) for v in data.get("box", [-1.0, 1.0]))
        if len(box) != 2:
            raise ValueError(f"box must be two numbers lo, hi, got {list(box)}")
        basepoint = tuple(_checked(v) for v in data.get("basepoint", [0.0] * dim))
        if len(basepoint) != dim or not np.isfinite(basepoint).all():
            raise ValueError(f"basepoint must be {dim} finite numbers, got {list(basepoint)}")
        return Preset(
            name=str(data.get("name", os.path.basename(path))),
            description="user-supplied polynomial connection",
            spec=spec,
            dim=dim,
            basepoint=basepoint,
            connection=connection,
            backend=backend,
            default_steps=_checked(data.get("steps", 64), int, 1),
            box=box,
            closed_form=None,
            tolerances=tolerances,
            axiom3_anchor=None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"malformed connection file {path!r}: {exc}") from exc


def _resolve_preset(args) -> Preset:
    if args.input and args.preset:
        raise _InputError("use either --preset or --input, not both")
    if args.input:
        return _load_custom(args.input)
    if not args.preset:
        raise _InputError("one of --preset or --input is required")
    try:
        return get_preset(args.preset)
    except KeyError as exc:
        raise _InputError(exc.args[0]) from exc


def _grid_from(args, preset: Preset) -> GridSpec:
    if args.grid < 2:
        raise _InputError("--grid must be at least 2")
    lo, hi = preset.box
    if args.box:
        try:
            lo, hi = (float(v) for v in args.box.split(","))
        except ValueError as exc:
            raise _InputError(f"--box expects lo,hi, got {args.box!r}") from exc
    try:
        return GridSpec(lo, hi, args.grid)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _fd_config(args) -> FdConfig:
    if args.fd_h is None:
        return FdConfig()
    # The CLI keeps the default curvature step, which h may not exceed.
    if not 0.0 < args.fd_h <= FdConfig.curvature_h:
        raise _InputError(f"--fd-h must lie in (0, {FdConfig.curvature_h:g}], got {args.fd_h!r}")
    return FdConfig(h=args.fd_h)


def _steps(args, preset: Preset) -> int:
    if args.steps is None:
        return preset.default_steps
    if args.steps < 1:
        raise _InputError("--steps must be at least 1")
    return args.steps


def _controlled(args, h_map, gated: bool = True) -> bool:
    """Whether a run takes error control: a transport map, a gate to
    control against, and no --steps.  Its passes start at min(8, steps)
    and halve it, so an odd count below 8 is an input error."""
    controlled = gated and h_map.steps is not None and args.steps is None
    if controlled and min(8, h_map.steps) % 2:
        raise _InputError(
            f"steps {h_map.steps} cannot be error-controlled: step doubling needs an even count "
            "or one of at least 8; give --steps to fix the count"
        )
    return controlled


def _cmd_reconstruct(args) -> int:
    preset = _resolve_preset(args)
    grid = _grid_from(args, preset)
    cfg = _fd_config(args)
    h_map = preset.holonomy_map(_steps(args, preset))
    tol = preset.tolerances.get("reconstruct")
    # Error control spends a tenth of the gate on integration; --steps fixes the count.
    controlled = _controlled(args, h_map, tol is not None)
    nodes, psi, share = grid.nodes(preset.dim), preset.frame(), tol / 10.0 if controlled else None
    per_mu = [reconstruct_potential(h_map, psi, nodes, mu, cfg, share) for mu in range(preset.dim)]
    values, steps, estimates = (np.stack(part) for part in zip(*per_mu))
    max_err = None
    if preset.closed_form is not None:
        # np.max, not a max() fold, so that a NaN defect is not dropped.
        errs = [
            float(np.linalg.norm(m - np.asarray(preset.closed_form(x, mu))))
            for mu in range(preset.dim)
            for x, m in zip(nodes, values[mu])
        ]
        max_err = float(np.max(errs, initial=0.0))
    ok = max_err is None or (bool(np.isfinite(max_err)) and (tol is None or max_err <= tol))
    summary = {
        "preset": preset.name,
        "grid": grid.describe(preset.dim),
        "fd_h": cfg.h,
        "steps": int(steps.max()) if controlled else h_map.steps,
        "backend": preset.backend,
        "max_abs_error": max_err,
        "max_integration_estimate": float(estimates.max()) if controlled else None,
        "tolerance": tol,
        "pass": bool(ok),
    }
    _write_atomic(args.out, "potential.csv", potential_grid_csv(values, grid))
    _write_atomic(args.out, "reconstruct_summary.json", _json_text(summary) + "\n")
    if not ok:
        print(f"reconstruct: defect {max_err:.3e} is not finite or exceeds tolerance {tol}", file=sys.stderr)
    return 0 if ok else 2


def _cmd_audit(args) -> int:
    preset = _resolve_preset(args)
    if args.samples < 1:
        raise _InputError("--samples must be at least 1")
    _fd_config(args)  # unused by the audit, but a bad value is still an input error
    h_map = preset.holonomy_map(_steps(args, preset))
    controlled = _controlled(args, h_map)
    tols = (
        preset.tolerances.get("axiom1", 1e-6),
        preset.tolerances.get("axiom2", 1e-8),
        preset.tolerances.get("axiom3", float("inf")),
    )
    report = audit_axioms(
        h_map,
        samples=args.samples,
        seed=args.seed,
        tolerances=tols,
        axiom3_shift=None if preset.axiom3_anchor is None else (preset.axiom3_anchor, np.eye(preset.dim)[0]),
        error_control=controlled,
    )
    _write_atomic(args.out, "axiom_report.json", _json_text(report.to_json_dict()) + "\n")
    if not report.all_passed:
        print(f"audit: defects exceed tolerances {tols}", file=sys.stderr)
    return 0 if report.all_passed else 2


def _cmd_roundtrip(args) -> int:
    preset = _resolve_preset(args)
    grid = _grid_from(args, preset)
    cfg = _fd_config(args)
    tolerances = {
        k: preset.tolerances[k] for k in ("curvature", "gauge", "transport") if k in preset.tolerances
    }
    report = round_trip_report(
        preset.connection,
        preset.frame(),
        grid,
        cfg,
        steps_per_segment=_steps(args, preset),
        tolerances=tolerances,
        seed=args.seed,
    )
    _write_atomic(args.out, "roundtrip_report.json", _json_text(report.to_json_dict()) + "\n")
    if not report.within():
        print("roundtrip: defects exceed tolerances", file=sys.stderr)
    return 0 if report.within() else 2


def _cmd_presets(args) -> int:
    for p in iter_presets():
        print(f"{p.name:18s} {p.spec.name.value:20s} {p.description}")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse refuses option values with a leading dash; fold "--box -2,2"
    # into "--box=-2,2" so negative box bounds parse.
    for k, tok in enumerate(argv[:-1]):
        if tok == "--box":
            argv[k : k + 2] = [f"--box={argv[k + 1]}"]
            break
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:
            raise _InputError("--seed must be at least 0")
        if args.command == "presets":
            return _cmd_presets(args)
        if args.command == "reconstruct":
            return _cmd_reconstruct(args)
        if args.command == "audit":
            return _cmd_audit(args)
        if args.command == "roundtrip":
            return _cmd_roundtrip(args)
        raise _InputError(f"unknown command {args.command!r}")
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        # A named numerical error (StepTooLarge, IntegrationError, ...):
        # the run has no trustworthy answer, which fails it like a defect.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
