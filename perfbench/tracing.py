"""Spans around each layer's entry points, recorded from outside the program.

Each entry point is wrapped at the name its caller looks it up by (a module
global or a class attribute), so a call through that name opens a span with
its name, start, end, parent and op.  Spans stay in memory; ``layer_metrics``
turns them into per-layer counts and times when the run ends.  An entry point
that a later refactor removes is reported missing and not traced.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from time import perf_counter

from workloads import conjugate_name

# (module, attribute as the caller looks it up, span name)
ENTRY_POINTS = (
    ("cavens.runner", "integrate", "dynamics.integrate"),
    ("cavens.oracle", "integrate", "dynamics.integrate"),
    ("cavens.witnesses", "decouple3", "closure"),
    ("cavens.witnesses", "decouple4", "closure"),
    ("cavens.witnesses", "number_triple_product", "closure"),
    ("cavens.oracle", "decouple3", "closure"),
    ("cavens.oracle", "decouple4", "closure"),
    ("cavens.oracle", "number_triple_product", "closure"),
    ("cavens.runner", "evaluate", "witnesses.evaluate"),
    ("cavens.oracle", "evaluate", "witnesses.evaluate"),
    ("cavens.runner", "run_scenario", "runner.run_scenario"),
    ("cavens.io_cli", "run_scenario", "runner.run_scenario"),
    ("cavens.io_cli", "table_matrix", "runner.table_matrix"),
    ("cavens.io_cli", "chi_sweep", "runner.chi_sweep"),
    ("cavens.runner", "WitnessSeries.column", "runner.column"),
    ("cavens.io_cli", "parse_config", "io_cli.parse_config"),
    ("cavens.io_cli", "write_trajectory", "io_cli.emit"),
    ("cavens.io_cli", "write_witness_series", "io_cli.emit"),
    ("cavens.io_cli", "write_sign_matrix", "io_cli.emit"),
    ("cavens.io_cli", "write_sweep", "io_cli.emit"),
    ("cavens.io_cli", "write_closure_report", "io_cli.emit"),
    ("cavens.io_cli", "closure_report", "oracle.closure_report"),
    ("cavens.oracle", "build_generator", "oracle.build_generator"),
    ("cavens.oracle", "evolve_path", "oracle.evolve_path"),
    ("cavens.oracle", "Liouvillian.apply", "oracle.apply"),
    ("cavens.oracle", "expectation", "oracle.expectation"),
    ("cavens.oracle", "exact_witnesses", "oracle.exact_witnesses"),
)

RUNNER_SPANS = ("runner.run_scenario", "runner.table_matrix", "runner.chi_sweep")

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = (
    ("dynamics.integrate.calls", "count/op", "lower"),
    ("dynamics.integrate.busy_s", "s/op", "lower"),
    ("dynamics.conj_mismatch_max", "1", "lower"),
    ("closure.calls", "count/op", "lower"),
    ("closure.busy_s", "s/op", "lower"),
    ("witnesses.evaluate.calls", "count/op", "lower"),
    ("witnesses.evaluate.self_s", "s/op", "lower"),
    ("witnesses.errors", "1", "lower"),
    ("runner.scenarios", "count/op", "lower"),
    ("runner.self_s", "s/op", "lower"),
    ("runner.column.calls", "count/op", "lower"),
    ("runner.column.busy_s", "s/op", "lower"),
    ("io_cli.parse_config.busy_s", "s/op", "lower"),
    ("io_cli.emit.self_s", "s/op", "lower"),
    ("io_cli.rows_written", "rows/op", "higher"),
    ("io_cli.bytes_written", "B/op", "lower"),
    ("oracle.build_generator.busy_s", "s/op", "lower"),
    ("oracle.evolve_path.busy_s", "s/op", "lower"),
    ("oracle.apply.calls", "count/op", "lower"),
    ("oracle.apply.busy_s", "s/op", "lower"),
    ("oracle.expectation.calls", "count/op", "lower"),
    ("oracle.expectation.busy_s", "s/op", "lower"),
    ("oracle.exact_witnesses.self_s", "s/op", "lower"),
    ("oracle.rho_path_mb", "MB_computed", "lower"),
    ("oracle.trace_defect_max", "1", "lower"),
    ("share.dynamics", "1", "lower"),
    ("share.witnesses_closure", "1", "lower"),
    ("run.fail_ratio", "1", "lower"),
    ("trace.overhead", "1", "lower"),
    ("trace.missing", "count", "lower"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at op level
    op: int
    error: bool


class Tracer:
    """Wraps the entry points, records spans, and restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self.missing: list[str] = []
        self.conj_mismatch = 0.0
        self.rho_path_mb = 0.0
        self.trace_defect = 0.0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._conj_pairs: list[tuple[int, int]] = []

    def install(self) -> None:
        model = importlib.import_module("cavens.model")
        names = getattr(model, "MOMENT_NAMES", None)
        if names is None:
            self.missing.append("cavens.model.MOMENT_NAMES")
        else:
            index = {n: i for i, n in enumerate(names)}
            self._conj_pairs = [(i, index[conjugate_name(n)]) for n, i in index.items()]
        after = {
            "dynamics.integrate": self._after_integrate,
            "oracle.evolve_path": self._after_evolve_path,
        }
        for module, attr, name in ENTRY_POINTS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except AttributeError:
                self.missing.append(f"{module}.{attr}")
                continue
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, after.get(name)))

    def restore(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def _wrap(self, fn, name, after):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, False)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if after is not None:
                # inspection time is a child span, so it leaves the callers' self time
                hook = Span("trace.hook", perf_counter(), 0.0, span.parent, self.op, False)
                spans.append(hook)
                after(result)
                hook.end = perf_counter()
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_integrate(self, traj) -> None:
        states = traj.states
        for i, j in self._conj_pairs:
            self.conj_mismatch = max(
                self.conj_mismatch, float(abs(states[:, i] - states[:, j].conj()).max())
            )

    def _after_evolve_path(self, rhos) -> None:
        self.rho_path_mb = max(self.rho_path_mb, rhos.size * 16 / 1e6)
        traces = rhos.trace(axis1=1, axis2=2)
        self.trace_defect = max(self.trace_defect, float(abs(traces - 1.0).max()))


def layer_metrics(tracer: Tracer, ops_used: int, wall_seconds: float, scale: float,
                  rows: float, nbytes: float) -> dict:
    """Per-op layer metrics over the spans of ops ``0 .. ops_used - 1``.

    ``wall_seconds``, ``rows`` and ``nbytes`` are totals over the same ops;
    times per op are multiplied by ``scale``, the ops' scaled-to-wall ratio,
    so they read at the same nominal host speed as the end-to-end times.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    used = [(k, s) for k, s in enumerate(spans) if 0 <= s.op < ops_used]

    def calls(*names):
        return sum(1 for _, s in used if s.name in names) / ops_used

    def wall(*names):
        return sum(s.end - s.start for _, s in used if s.name in names) / ops_used

    def busy(*names):
        return wall(*names) * scale

    def self_time(*names):
        return sum(s.end - s.start - child[k] for k, s in used if s.name in names) / ops_used * scale

    evaluate = [s for _, s in used if s.name == "witnesses.evaluate"]
    closure_outside = sum(
        s.end - s.start for _, s in used
        if s.name == "closure" and (s.parent < 0 or spans[s.parent].name != "witnesses.evaluate")
    ) / ops_used
    per_op = wall_seconds / ops_used
    return {
        "dynamics.integrate.calls": calls("dynamics.integrate"),
        "dynamics.integrate.busy_s": busy("dynamics.integrate"),
        "dynamics.conj_mismatch_max": tracer.conj_mismatch,
        "closure.calls": calls("closure"),
        "closure.busy_s": busy("closure"),
        "witnesses.evaluate.calls": calls("witnesses.evaluate"),
        "witnesses.evaluate.self_s": self_time("witnesses.evaluate"),
        "witnesses.errors": sum(s.error for s in evaluate) / len(evaluate) if evaluate else 0.0,
        "runner.scenarios": calls("runner.run_scenario"),
        "runner.self_s": self_time(*RUNNER_SPANS),
        "runner.column.calls": calls("runner.column"),
        "runner.column.busy_s": busy("runner.column"),
        "io_cli.parse_config.busy_s": busy("io_cli.parse_config"),
        "io_cli.emit.self_s": self_time("io_cli.emit"),
        "io_cli.rows_written": rows / ops_used,
        "io_cli.bytes_written": nbytes / ops_used,
        "oracle.build_generator.busy_s": busy("oracle.build_generator"),
        "oracle.evolve_path.busy_s": busy("oracle.evolve_path"),
        "oracle.apply.calls": calls("oracle.apply"),
        "oracle.apply.busy_s": busy("oracle.apply"),
        "oracle.expectation.calls": calls("oracle.expectation"),
        "oracle.expectation.busy_s": busy("oracle.expectation"),
        "oracle.exact_witnesses.self_s": self_time("oracle.exact_witnesses"),
        "oracle.rho_path_mb": tracer.rho_path_mb,
        "oracle.trace_defect_max": tracer.trace_defect,
        "share.dynamics": wall("dynamics.integrate") / per_op,
        "share.witnesses_closure": (wall("witnesses.evaluate") + closure_outside) / per_op,
        "trace.missing": float(len(tracer.missing)),
    }
