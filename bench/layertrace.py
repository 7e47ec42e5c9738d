"""Outside-in layer tracer for the benchmark's traced runs.

``launch.py`` installs it in the child interpreter after set-up and before
the CLI subcommand runs.  It replaces each traced public function of the
program's modules with a wrapper that keeps a span (name, start, end,
parent) in memory, in every module namespace that imported the function
by name, so calls between modules and inside a module both pass through
it.  Nothing under ``src/`` changes.

A traced name that the program no longer defines is reported as absent and
its metrics read zero; the run goes on.  Counts of holonomy work are
derived from the arguments of the wrapped calls, not from counters inside
the program.  The wrappers return what the wrapped function returns, so a
traced run writes the same bytes as an untraced one.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# Layer (module of holonomy_forge) -> public functions traced in it.
TRACED = (
    ("path_algebra", ("reconstruction_loop", "thin_reduce", "compose_paths", "reparametrize")),
    ("holonomy", ("eval_holonomy", "transport_along", "check_axiom1", "check_axiom2", "check_axiom3")),
    ("lie_core", ("log_map", "exp_map", "project_to_group")),
    (
        "reconstruction",
        ("reconstruct_potential", "curvature", "gauge_transform_potential", "horizontal_transport"),
    ),
)

# Field samples per smooth piece of the analytic backend (its Gauss-Legendre rule).
ANALYTIC_SAMPLES_PER_PIECE = 32


def _pieces(path) -> int:
    """Smooth pieces the integrators visit: breakpoint gaps of positive length."""
    bps = path.breakpoints
    return int((bps[1:] > bps[:-1]).sum())


def _transport_work(pieces: int, steps: int) -> tuple[int, int, int]:
    # RK4 samples the coefficient on a half-step lattice: 2n+1 points per piece.
    return pieces, pieces * steps, pieces * (2 * steps + 1)


def _eval_holonomy_work(h_map, loop, *args, **kwargs):
    pieces = _pieces(loop.path)
    if h_map.kind == "analytic_abelian":
        return pieces, 0, pieces * ANALYTIC_SAMPLES_PER_PIECE
    return _transport_work(pieces, int(h_map.backend.steps_per_segment))


def _transport_along_work(field, path, g0, steps_per_segment=64):
    return _transport_work(_pieces(path), int(steps_per_segment))


# Traced function -> rule giving (pieces, rk4 steps, field samples) of one call.
WORK_RULES = {
    "holonomy.eval_holonomy": _eval_holonomy_work,
    "holonomy.transport_along": _transport_along_work,
}


class Tracer:
    """Spans and counts of one traced CLI run, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        # One [name index, start, end, parent span index or -1] per call.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.absent: list[str] = []
        self.work = [0, 0, 0]  # pieces, rk4 steps, field samples
        self.work_errors = 0
        self.pf_calls = 0
        self.pf_misses = 0
        self.pf_memo_seen = True

    def install(self, package: str = "holonomy_forge") -> "Tracer":
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for layer, names in TRACED:
            module = sys.modules.get(f"{package}.{layer}")
            for name in names:
                key = f"{layer}.{name}"
                fn = getattr(module, name, None)
                if not callable(fn):
                    self.absent.append(key)
                    continue
                wrapper = self._wrap(key, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
        self._count_potential_field(sys.modules.get(f"{package}.reconstruction"))
        return self

    def _wrap(self, key: str, fn):
        name_index = len(self.names)
        self.names.append(key)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        rule = WORK_RULES.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rule is not None:
                self._add_work(rule, args, kwargs)
            span = [name_index, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _add_work(self, rule, args, kwargs):
        try:
            done = rule(*args, **kwargs)
        except (AttributeError, TypeError, ValueError):
            # The program's data model moved away from what the rule reads.
            self.work_errors += 1
            return
        for k in range(3):
            self.work[k] += done[k]

    def _count_potential_field(self, module):
        cls = getattr(module, "PotentialField", None)
        call = getattr(cls, "__call__", None)
        if cls is None or call is None:
            self.absent.append("reconstruction.PotentialField.__call__")
            return

        @functools.wraps(call)
        def counted(pf, *args, **kwargs):
            # A miss is a call after which the memo holds one entry more.
            memo = getattr(pf, "_memo", None)
            before = len(memo) if isinstance(memo, dict) else None
            result = call(pf, *args, **kwargs)
            self.pf_calls += 1
            if before is None:
                self.pf_memo_seen = False
            elif len(memo) > before:
                self.pf_misses += 1
            return result

        cls.__call__ = counted

    def summary(self) -> dict[str, float]:
        """Per-layer numbers: calls, total and self time, and percentiles
        of call duration for every traced name, plus the work counts."""
        child = [0.0] * len(self.spans)
        for name_index, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        durations: list[list[float]] = [[] for _ in self.names]
        self_s = [0.0] * len(self.names)
        for k, (name_index, start, end, _) in enumerate(self.spans):
            durations[name_index].append(end - start)
            self_s[name_index] += end - start - child[k]
        out: dict[str, float] = {}
        for layer, names in TRACED:
            for name in names:
                key = f"{layer}.{name}"
                k = self.names.index(key) if key in self.names else None
                ds = durations[k] if k is not None else []
                out[f"{key}.calls"] = len(ds)
                out[f"{key}.total_s"] = sum(ds)
                out[f"{key}.self_s"] = self_s[k] if k is not None else 0.0
                out[f"{key}.p50_ms"] = 1e3 * statistics.median(ds) if ds else 0.0
                out[f"{key}.p90_ms"] = 1e3 * _p90(ds)
        out["holonomy.pieces"], out["holonomy.rk4_steps"], out["holonomy.field_samples"] = self.work
        out["reconstruction.potential_field.calls"] = self.pf_calls
        hit_ratio = 1.0 - self.pf_misses / self.pf_calls if self.pf_calls else 0.0
        out["reconstruction.potential_field.memo_hit_ratio"] = hit_ratio if self.pf_memo_seen else 0.0
        return out

    def notes(self) -> list[str]:
        notes = [f"absent: {key}" for key in self.absent]
        if self.work_errors:
            notes.append(f"holonomy work not countable on {self.work_errors} calls")
        if not self.pf_memo_seen:
            notes.append("PotentialField memo not visible; memo_hit_ratio reads 0")
        return notes


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]
