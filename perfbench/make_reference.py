"""Record the expected output of every pooled input into ``reference.json``.

    python3 perfbench/make_reference.py

Runs each input of the workload pools once through ``cavens.io_cli.main``
and keeps the values the output check compares: sign cells with their
``min_value``, sweep rows (status and every pooled witness), sampled rows of
the simulate and oracle-check CSVs.  Re-run it only when the program's output
is meant to change, and say so where the change is recorded.
"""

from __future__ import annotations

import io
import json
import math
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as w  # noqa: E402
from cavens import io_cli  # noqa: E402


def cli(argv, out: Path) -> None:
    with redirect_stdout(io.StringIO()):
        code = io_cli.main(list(argv) + ["--out", str(out)])
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")


def numbers(cells) -> list:
    """Floats for JSON at 12 significant digits; NaN becomes null."""
    return [None if math.isnan(v) else float(f"{v:.12g}") for v in w.to_floats(cells)]


def sign_table(tmp: Path) -> dict:
    ref = {}
    out = tmp / "table.csv"
    for chi in w.TABLE_CHIS:
        cli(("table", "--chi-grid", chi, "--samples", str(w.TABLE_SAMPLES)), out)
        for config, _, witness, cell, min_value, _ in w.read_csv(out)[1]:
            ref.setdefault(f"{config}|{chi}", {})[witness] = [cell, numbers([min_value])[0]]
    return ref


def steady_sweep(tmp: Path) -> dict:
    ref = {}
    out = tmp / "sweep.csv"
    n = w.SWEEP_SAMPLES
    for preset in w.PRESETS:
        for witness in w.SWEEP_WITNESSES:
            cli(("sweep", "--preset", preset, "--chi-grid", ",".join(w.SWEEP_CHIS),
                 "--witness", witness, "--tmax", w.SWEEP_TMAX, "--samples", str(n)), out)
            rows = w.read_csv(out)[1]
            for k, chi in enumerate(w.SWEEP_CHIS):
                block = rows[k * n:(k + 1) * n]
                entry = ref.setdefault(f"{preset}|{chi}", {"status": block[0][3], "values": {}})
                if entry["status"] != block[0][3]:
                    raise SystemExit(f"sweep {preset} {chi}: status differs between witnesses")
                if not entry["status"].startswith("error:"):
                    entry["values"][witness] = numbers(r[2] for r in block)
    return ref


def simulate_csv(tmp: Path) -> dict:
    ref = {}
    out, cfg = tmp / "sim.csv", tmp / "sim.cfg"
    for preset in w.PRESETS:
        for chi in w.SIM_CHIS:
            for init in w.SIM_INITS:
                cfg.write_text(w.config_text(preset, chi, init, w.SIM_TMAX, w.SIM_SAMPLES))
                entry = ref.setdefault(w.sim_key(preset, chi, init), {})
                for kind, extra, header_key in (("witnesses", (), "witness_header"),
                                                ("moments", ("--moments",), "moment_header")):
                    cli(("simulate", "--config", str(cfg)) + extra, out)
                    header, rows = w.read_csv(out)
                    ref[header_key] = header
                    entry[kind] = {
                        str(i): numbers(rows[i][1:]) for i in range(0, w.SIM_SAMPLES, w.SIM_REF_EVERY)
                    }
    return ref


def oracle_check(tmp: Path) -> dict:
    ref = {}
    out, cfg = tmp / "oracle.csv", tmp / "oracle.cfg"
    for preset in w.ORACLE_PRESETS:
        for chi in w.ORACLE_CHIS:
            cfg.write_text(w.config_text(preset, chi, (w.ORACLE_INIT,) * 3, w.ORACLE_TMAX, w.ORACLE_SAMPLES))
            cli(("oracle-check", "--config", str(cfg), "--nmax", w.ORACLE_NMAX), out)
            header, rows = w.read_csv(out)
            ref["header"] = header
            ref[f"{preset}|{chi}"] = {
                str(i): numbers(rows[i][1:]) for i in range(0, w.ORACLE_SAMPLES, w.ORACLE_REF_EVERY)
            }
    return ref


def main() -> None:
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        tmp = Path(tmp)
        reference = {
            "tolerance": {"atol": w.ATOL, "rtol": w.RTOL},
            "sign-table": sign_table(tmp),
            "steady-sweep": steady_sweep(tmp),
            "simulate-csv": simulate_csv(tmp),
            "oracle-check": oracle_check(tmp),
        }
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
