"""Run one cavens benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sign-table --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` next to this directory.  One client
runs one op at a time (closed loop): a warm-up op, then ops from the
workload's seeded cycle until ``--seconds`` have passed.  Every op's CSV is
checked against ``reference.json``.  Op times are wall seconds scaled to a
nominal host speed by a calibration kernel timed between ops (see
``Speedometer``); the unscaled wall times are in the detail line.  With ``--trace 0`` the last line holds
the end-to-end metrics; with ``--trace 1`` the first half of the time runs
untraced and the second half traced, and the last line holds the per-layer
metrics.  Exits 2 without a result when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402

END_TO_END = (
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("samples_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_PROCESSES = 3
# time of Speedometer's kernel on the 2-vCPU box the baseline was recorded on
CAL_NOMINAL_S = 0.014
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import cavens, cavens.io_cli\n"
    "print(time.perf_counter() - t0)\n"
)


class Speedometer:
    """Tracks the host's speed with a fixed kernel of Python and small numpy work.

    On shared cores the speed of this host drifts by up to 1.5x within a
    minute, and every op drifts with it.  The kernel is independent of the
    program, so ``scale(seconds, before, after)`` -- the time times
    ``CAL_NOMINAL_S`` over the kernel's time around it -- cancels the drift
    without hiding a change in the program.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((27, 27))
        self._vector = rng.standard_normal(27)
        self._table = {i: float(i) for i in range(64)}

    def tick(self) -> float:
        """Seconds the kernel takes now."""
        t0 = perf_counter()
        total, x, table = 0.0, self._vector, self._table
        for i in range(20000):
            total += table[i & 63] * 1.0001
            if i % 8 == 0:
                x = self._matrix @ x
                x = x / abs(x).max()
        return perf_counter() - t0

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        return seconds * CAL_NOMINAL_S * 2 / (before + after)


@dataclass
class OpResult:
    seconds: float         # wall time
    scaled: float          # wall time at the nominal host speed
    tick: float            # kernel time just after the op
    outcome: workloads.Outcome
    rows: int
    nbytes: int


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import ``cavens.io_cli`` from this checkout's ``src``; returns (module, seconds)."""
    if not (SRC / "cavens" / "io_cli.py").is_file():
        raise ProgramMissing(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import cavens
    import cavens.io_cli as io_cli
    seconds = perf_counter() - t0
    if SRC.resolve() not in Path(cavens.__file__).resolve().parents:
        raise ProgramMissing(f"cavens was imported from {cavens.__file__}, not {SRC}")
    return io_cli, seconds


def import_seconds_fresh() -> float:
    """Time ``import cavens, cavens.io_cli`` in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Runs ops of one workload in this process and checks their output."""

    def __init__(self, io_cli, workdir: Path, reference: dict, speed: Speedometer):
        self.io_cli = io_cli
        self.speed = speed
        self.tracer: Tracer | None = None
        self.workdir = workdir
        self.reference = reference
        self.out = workdir / "out.csv"
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.scenarios = 0
        self.failed_scenarios = 0
        self.known_defects = 0

    def cli(self, argv, out: Path):
        """Run one command line; returns (exit code or None, seconds, stderr text)."""
        sink_out, sink_err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with redirect_stdout(sink_out), redirect_stderr(sink_err):
            try:
                code = self.io_cli.main(list(argv) + ["--out", str(out)])
            except Exception:
                traceback.print_exc()
                code = None
        return code, perf_counter() - t0, sink_err.getvalue()

    def side_run(self, argv):
        out = self.workdir / "side.csv"
        code, _, _ = self.cli(argv, out)
        return out if code == 0 else None

    def run(self, op: workloads.Op, before: float, index: int = -1) -> tuple[OpResult, float]:
        """Run and check one op; ``before`` is the kernel time just before it.

        Returns the result and the kernel time just after it.  Spans are
        attributed to op ``index`` while the op runs, not while it is checked.
        """
        if op.config:
            Path(op.argv[op.argv.index("--config") + 1]).write_text(op.config, encoding="utf-8")
        self.out.unlink(missing_ok=True)
        if self.tracer is not None:
            self.tracer.op = index
        code, seconds, err = self.cli(op.argv, self.out)
        if self.tracer is not None:
            self.tracer.op = -1
        after = self.speed.tick()
        if code == 0:
            outcome = workloads.check(op, self.out, self.reference, self.side_run)
            nbytes = self.out.stat().st_size
            rows = max(0, sum(1 for _ in self.out.open(encoding="utf-8")) - 1)
        else:
            outcome = workloads.Outcome(scenarios=len(op.keys), failed_scenarios=len(op.keys))
            outcome.problems.append(f"{' '.join(op.argv)}: exit {code}: {err.strip()[-300:]}")
            nbytes = rows = 0
        self.attempted += 1
        self.failed += bool(outcome.problems)
        self.scenarios += outcome.scenarios
        self.failed_scenarios += outcome.failed_scenarios
        self.known_defects += outcome.known_defects
        self.problems += outcome.problems
        scaled = Speedometer.scale(seconds, before, after)
        return OpResult(seconds, scaled, after, outcome, rows, nbytes), after

    def phase(self, ops, seconds: float) -> list[OpResult]:
        """Run the cycle from its start until ``seconds`` have passed (at least one op)."""
        results = []
        deadline = perf_counter() + seconds
        tick = self.speed.tick()
        while not results or perf_counter() < deadline:
            i = len(results)
            result, tick = self.run(ops[i % len(ops)], tick, i)
            results.append(result)
        return results


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten ops beyond it: (value, percentile, ops beyond)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        io_cli, first_import = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    # import time is mostly loading files and shared libraries, which the
    # kernel does not track, so set-up is reported in unscaled wall seconds
    setup = [import_seconds_fresh() for _ in range(SETUP_PROCESSES)]
    speed = Speedometer()
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

    scratch = ROOT / ".bench_tmp"
    workdir = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(io_cli, workdir, reference, speed)
        ops = workloads.make_ops(args.workload, args.seed, workdir)
        runner.run(ops[0], speed.tick())  # warm-up: fills the program's caches, checked but not timed
        if args.trace:
            plain = runner.phase(ops, args.seconds / 2)
            tracer = runner.tracer = Tracer()
            tracer.install()
            try:
                timed = runner.phase(ops, args.seconds / 2)
            finally:
                tracer.restore()
        else:
            timed = runner.phase(ops, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if scratch.is_dir() and not any(scratch.iterdir()):
            scratch.rmdir()

    times = [r.scaled for r in timed]
    wall = [r.seconds for r in timed]
    tail_value, tail_pct, beyond = tail(times)
    fail_ratio = runner.failed_scenarios / runner.scenarios
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_timed": len(times),
        "op_seconds": [round(t, 4) for t in times],
        "op_wall_seconds": [round(t, 4) for t in wall],
        "kernel_seconds": [round(r.tick, 5) for r in timed],
        "op_p50_wall_s": statistics.median(wall),
        "import_in_this_process_s": first_import,
        "cycle": [op.describe() for op in ops],
        "op_tail_percentile": round(tail_pct, 1),
        "op_tail_ops_beyond": beyond,
        "setup_samples_s": setup,
        "scenarios": runner.scenarios,
        "failed_scenarios": runner.failed_scenarios,
        "known_defect_scenarios": runner.known_defects,
        "fail_ratio": fail_ratio,
        "problems": runner.problems[:20],
    }
    if args.trace:
        used = len(timed) // len(ops) * len(ops) or len(timed)
        metrics = layer_metrics(
            tracer, used, sum(wall[:used]), sum(times[:used]) / sum(wall[:used]),
            sum(r.rows for r in timed[:used]), sum(r.nbytes for r in timed[:used]),
        )
        metrics["run.fail_ratio"] = fail_ratio
        metrics["trace.overhead"] = statistics.median(times) / statistics.median(r.scaled for r in plain)
        detail["ops_untraced"] = len(plain)
        detail["layer_ops_used"] = used
        detail["missing_entry_points"] = tracer.missing
        spec = [(name, unit) for name, unit, _ in LAYER_METRICS]
    else:
        total = sum(times)
        metrics = {
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail_value,
            "samples_per_s": sum(r.outcome.samples for r in timed) / total,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        spec = END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  ops {len(times)} timed + 1 warm-up"
          f"  ({runner.attempted} attempted, {runner.failed} failed)")
    for name, unit in spec:
        print(f"  {name:32s} {metrics[name]:.6g} {unit}")
    print(f"  {'fail_ratio':32s} {fail_ratio:.6g} 1  "
          f"({runner.failed_scenarios} of {runner.scenarios} scenarios,"
          f" {runner.known_defects} known defects)")
    print(f"  op_tail_s is p{tail_pct:.1f} of {len(times)} ops, {beyond} beyond it")
    for problem in runner.problems[:20]:
        print(f"  problem: {problem}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in spec
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
