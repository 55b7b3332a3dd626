"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Every workload runs for one second with ``--trace 0`` and ``--trace 1``;
   the last line must be the result object with exactly the metric names and
   units that ``BENCHMARK.json`` declares, and the run must be correct.
2. For one op of each workload, the output check must pass against the
   reference, pass against a reference moved by a tenth of the tolerance, and
   fail against one moved by ten times the tolerance (and, for the sign
   table, one with a flipped cell).  A sweep row whose reference status is
   an error must be accepted on its invariants alone.
3. In a directory holding only ``BENCHMARK.json`` and the benchmark, the
   benchmark must exit non-zero without printing a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as w  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_shapes(spec: dict) -> None:
    for workload in (x["name"] for x in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                                   "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            expect(result["correct"] is True and result["failed"] == 0, f"{label}: correct")
            expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            expect(got == want, f"{label}: metric names and units")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{label}: metric values are numbers")


def compared_value(op: w.Op, ref: dict) -> tuple[list, int]:
    """A reference list and the index of a value the check compares for ``op``."""
    if op.kind == "table":
        return next(iter(ref["sign-table"][op.keys[0]].values())), 1  # [cell, min_value]
    if op.kind == "sweep":
        key = next(k for k in op.keys if ref["steady-sweep"][k]["status"] == "ok")
        values = ref["steady-sweep"][key]["values"][op.witness]
    elif op.kind in ("witnesses", "moments"):
        values = ref["simulate-csv"][op.keys[0]][op.kind][str(w.SIM_REF_EVERY)]
    else:
        values = ref["oracle-check"][op.keys[0]][str(w.ORACLE_REF_EVERY)]
    return values, next(i for i, v in enumerate(values) if v is not None)


def check_teeth(io_cli, reference: dict, workdir: Path) -> None:
    runner = run.Runner(io_cli, workdir, reference, run.Speedometer())
    for workload in w.WORKLOADS:
        op = w.make_ops(workload, 1, workdir)[0]
        if op.config:
            Path(op.argv[op.argv.index("--config") + 1]).write_text(op.config, encoding="utf-8")
        out = workdir / "out.csv"
        code, _, err = runner.cli(op.argv, out)
        expect(code == 0, f"{workload}: op runs {err.strip()[-200:]}")

        def problems(ref):
            return w.check(op, out, ref, runner.side_run).problems

        expect(not problems(reference), f"{workload}: passes against the reference")
        for scale, should_fail in ((0.1, False), (10.0, True)):
            ref = copy.deepcopy(reference)
            values, i = compared_value(op, ref)
            values[i] += scale * (w.ATOL + w.RTOL * abs(values[i]))
            expect(bool(problems(ref)) == should_fail,
                   f"{workload}: reference moved by {scale:g} x tolerance "
                   + ("fails" if should_fail else "passes"))
        if op.kind == "table":
            ref = copy.deepcopy(reference)
            cell, _ = compared_value(op, ref)
            cell[0] = "tick" if cell[0] == "cross" else "cross"
            expect(bool(problems(ref)), f"{workload}: flipped tick/cross fails")
        if op.kind == "sweep":
            ref = copy.deepcopy(reference)
            key = next(k for k in op.keys if ref["steady-sweep"][k]["status"] == "ok")
            ref["steady-sweep"][key]["status"] = "error: recorded failure"
            expect(not problems(ref), f"{workload}: a row fixed since the reference passes on invariants")


def check_without_program(spec: dict, scratch: Path) -> None:
    bare = scratch / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"without the program: exit {proc.returncode}, no result printed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([x["name"] for x in spec["workloads"]] == list(w.WORKLOADS), "BENCHMARK.json workloads")
    check_shapes(spec)
    io_cli, _ = run.import_program()
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    scratch = ROOT / ".bench_tmp" / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        check_teeth(io_cli, reference, scratch)
        check_without_program(spec, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any((ROOT / ".bench_tmp").iterdir()):
            (ROOT / ".bench_tmp").rmdir()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
