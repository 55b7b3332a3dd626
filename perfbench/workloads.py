"""The four benchmark workloads: seeded ``cavens`` command lines and output checks.

Every op is one command line run in-process through ``cavens.io_cli.main``.
The CLI is the stable contract, so refactors behind it do not break the
benchmark.  Inputs are drawn from fixed pools, which lets ``reference.json``
(written by ``make_reference.py``) hold the expected output for every seed.

A workload's ops form a cycle of seeded inputs that a run repeats until its
time is up.  Each cycle mixes the pool evenly (every preset, and every form of
``simulate``), so op-time medians depend on the mix, not on which seed drew it.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sign-table", "steady-sweep", "simulate-csv", "oracle-check")

PRESETS = ("AA", "AN", "NA", "NN")

# sign-table: `cavens table` over two drive strengths at the default t_max 10.
# 101 samples (not the default 1001) keep one op near 0.7 s, so a run holds
# enough ops for a median and a tail; witnesses still dominate each scenario.
TABLE_CHIS = ("0", "0.05", "0.1", "0.15", "0.2", "0.25", "0.3", "0.35", "0.4")
TABLE_SAMPLES = 101

# steady-sweep: late-time drive scan; the long RK45 horizon dominates.
SWEEP_CHIS = (
    "0", "0.025", "0.05", "0.075", "0.1", "0.125", "0.15", "0.175", "0.2",
    "0.225", "0.25", "0.275", "0.3", "0.325", "0.35", "0.375", "0.4",
)
SWEEP_GRID = 9
SWEEP_WITNESSES = ("var_x_A", "mandel_C", "hz_e_AB", "duan_BC", "steering_CA", "bisep_e_AB_C")
SWEEP_TMAX = "200"
SWEEP_SAMPLES = 21

# simulate-csv: full witness CSV alternating with --moments
SIM_CHIS = ("0", "0.2", "0.4")
SIM_INITS = (("1", "1", "1"), ("0.2", "0.5", "0"))
SIM_TMAX = "10"
SIM_SAMPLES = 501
SIM_REF_EVERY = 100

# oracle-check: criterion 4's shape (init 0.2, t_max 5, 51 samples) at n_max 3
# instead of 6, which keeps one op near 0.4 s instead of 15 s; the same oracle
# code runs, on a 64-state instead of a 343-state basis.
ORACLE_PRESETS = ("AN", "NA")
ORACLE_CHIS = ("0", "0.2", "0.4")
ORACLE_NMAX = "3"
ORACLE_TMAX = "5"
ORACLE_SAMPLES = 51
ORACLE_INIT = "0.2"
ORACLE_REF_EVERY = 10

CYCLE = 8

# Output tolerance: |got - ref| <= ATOL + RTOL * |ref|.  An exact propagator
# differs from the reference RK45 run by <= 2e-9 on these pools (t_max 200
# included); a wrong formula moves witnesses by far more than 1e-6.
ATOL = 1e-6
RTOL = 1e-6
# invariants for scenarios that failed when the reference was recorded
CONJ_TOL = 1e-6
OCC_FLOOR = -1e-9


@dataclass(frozen=True)
class Op:
    """One command line; ``--out`` is appended when it runs."""

    kind: str             # table | sweep | witnesses | moments | oracle
    argv: tuple
    keys: tuple           # reference keys of the scenarios the op runs
    config: str = ""      # config file text written before the run, if any
    witness: str = ""

    def describe(self) -> str:
        """The command line, with a config file shown by its contents' key."""
        if not self.config:
            return " ".join(self.argv)
        return f"{self.argv[0]} --config <{self.keys[0]}>" + (" --moments" if self.kind == "moments" else "")


@dataclass
class Outcome:
    """What one op produced, as judged by the output check."""

    scenarios: int
    failed_scenarios: int = 0
    known_defects: int = 0     # failed scenarios that also failed in the reference
    samples: int = 0           # time-grid samples behind the CSV
    problems: list = field(default_factory=list)


def make_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The seeded cycle of ops for one workload; config files go to ``workdir``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sign-table":
        ops = []
        for _ in range(CYCLE):
            chis = sorted(rng.sample(TABLE_CHIS, 2), key=float)
            ops.append(Op(
                "table",
                ("table", "--chi-grid", ",".join(chis), "--samples", str(TABLE_SAMPLES)),
                tuple(f"{p}|{c}" for p in PRESETS for c in chis),
            ))
        return ops
    if workload == "steady-sweep":
        presets = list(PRESETS) * (CYCLE // len(PRESETS))
        rng.shuffle(presets)
        ops = []
        for preset in presets:
            chis = sorted(rng.sample(SWEEP_CHIS, SWEEP_GRID), key=float)
            witness = rng.choice(SWEEP_WITNESSES)
            ops.append(Op(
                "sweep",
                ("sweep", "--preset", preset, "--chi-grid", ",".join(chis),
                 "--witness", witness, "--tmax", SWEEP_TMAX, "--samples", str(SWEEP_SAMPLES)),
                tuple(f"{preset}|{c}" for c in chis),
                witness=witness,
            ))
        return ops
    if workload == "simulate-csv":
        presets = list(PRESETS) * (CYCLE // len(PRESETS))
        rng.shuffle(presets)
        ops = []
        for i, preset in enumerate(presets):
            chi = rng.choice(SIM_CHIS)
            init = rng.choice(SIM_INITS)
            kind = "witnesses" if i % 2 == 0 else "moments"
            cfg = workdir / f"sim{i}.cfg"
            argv = ("simulate", "--config", str(cfg)) + (("--moments",) if kind == "moments" else ())
            text = config_text(preset, chi, init, SIM_TMAX, SIM_SAMPLES)
            ops.append(Op(kind, argv, (sim_key(preset, chi, init),), config=text))
        return ops
    if workload == "oracle-check":
        # the whole pool, seeded order: the costs of its inputs differ by 1.6x,
        # so a partial mix would move the median and the tail
        pool = [(p, c) for p in ORACLE_PRESETS for c in ORACLE_CHIS]
        rng.shuffle(pool)
        ops = []
        for i, (preset, chi) in enumerate(pool):
            cfg = workdir / f"oracle{i}.cfg"
            ops.append(Op("oracle", ("oracle-check", "--config", str(cfg), "--nmax", ORACLE_NMAX),
                          (f"{preset}|{chi}",),
                          config=config_text(preset, chi, (ORACLE_INIT,) * 3, ORACLE_TMAX, ORACLE_SAMPLES)))
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def sim_key(preset: str, chi: str, init) -> str:
    return f"{preset}|{chi}|{','.join(init)}"


def config_text(preset: str, chi: str, init, t_max: str, samples: int) -> str:
    return (
        f"preset = {preset}\nchi = {chi}\n"
        f"init_na = {init[0]}\ninit_nb = {init[1]}\ninit_nc = {init[2]}\n"
        f"t_max = {t_max}\nsamples = {samples}\n"
    )


# ---------------------------------------------------------------------------
# CSV parsing and comparison
# ---------------------------------------------------------------------------

def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def close(got: float, ref) -> bool:
    """Tolerance test; ``ref`` None stands for NaN (Mandel at zero occupation)."""
    if ref is None:
        return math.isnan(got)
    return abs(got - ref) <= ATOL + RTOL * abs(ref)


def compare(label: str, got, ref, problems: list) -> None:
    if len(got) != len(ref):
        problems.append(f"{label}: {len(got)} values, reference has {len(ref)}")
        return
    for j, (g, r) in enumerate(zip(got, ref)):
        if not close(g, r):
            problems.append(f"{label}[{j}]: {g!r} differs from reference {r!r}")
            return


def to_floats(cells) -> list[float]:
    return [float(c) for c in cells]


def conjugate_name(name: str) -> str:
    """Stored name of the conjugate moment: ``ABd`` -> ``AdB``, ``AdA`` -> ``AdA``."""
    toggled = [f[0] if f.endswith("d") else f + "d" for f in re.findall(r"[A-Z]d?", name)]
    return "".join(sorted(toggled, key=lambda f: (f[0], not f.endswith("d"))))


def check_invariants(label: str, header, rows, problems: list) -> None:
    """Conjugate-pair consistency and non-negative occupations of a moment CSV."""
    names = [h[3:] for h in header[1::2]]  # header is tau, re_X, im_X, ...
    index = {n: i for i, n in enumerate(names)}
    pairs = [(i, index[conjugate_name(n)]) for n, i in index.items()]
    occupations = [i for n, i in index.items() if conjugate_name(n) == n]
    mismatch, lowest = 0.0, math.inf
    for row in rows:
        parts = to_floats(row[1:])
        z = [complex(parts[k], parts[k + 1]) for k in range(0, len(parts), 2)]
        mismatch = max([mismatch] + [abs(z[i] - z[j].conjugate()) for i, j in pairs])
        lowest = min([lowest] + [z[i].real for i in occupations])
    if mismatch > CONJ_TOL:
        problems.append(f"{label}: conjugate mismatch {mismatch:.3e}")
    if lowest < OCC_FLOOR:
        problems.append(f"{label}: negative occupation {lowest:.3e}")


def _grid_ok(label, rows, t_max: float, samples: int, problems: list) -> bool:
    if len(rows) != samples:
        problems.append(f"{label}: {len(rows)} rows, expected {samples}")
        return False
    for i, row in enumerate(rows):
        if not close(float(row[0]), t_max * i / (samples - 1)):
            problems.append(f"{label}: tau[{i}] = {row[0]}")
            return False
    return True


# ---------------------------------------------------------------------------
# output checks, one per op kind
# ---------------------------------------------------------------------------

def check(op: Op, out: Path, ref: dict, run_cli) -> Outcome:
    """Compare an op's CSV against the reference.

    ``run_cli(argv)`` runs an extra command line (outside the op's timing) and
    returns the path of its CSV; it is used only to check the invariants of a
    scenario that failed in the reference but succeeds now.
    """
    if op.kind == "table":
        return _check_table(op, out, ref["sign-table"])
    if op.kind == "sweep":
        return _check_sweep(op, out, ref["steady-sweep"], run_cli)
    if op.kind in ("witnesses", "moments"):
        return _check_simulate(op, out, ref["simulate-csv"])
    return _check_oracle(op, out, ref["oracle-check"])


def _pool_chi(text: str, pool) -> str | None:
    for c in pool:
        if math.isclose(float(text), float(c), rel_tol=0, abs_tol=1e-12):
            return c
    return None


def _check_table(op: Op, out: Path, ref: dict) -> Outcome:
    res = Outcome(scenarios=len(op.keys), samples=len(op.keys) * TABLE_SAMPLES)
    header, rows = read_csv(out)
    if header != ["config", "chi", "witness", "cell", "min_value", "argmin_tau"]:
        res.problems.append(f"table header {header}")
        return res
    seen = {k: 0 for k in op.keys}
    for row in rows:
        key = f"{row[0]}|{_pool_chi(row[1], TABLE_CHIS)}"
        cells = ref.get(key)
        if key not in seen or cells is None or row[2] not in cells:
            res.problems.append(f"table row {row[:3]} not expected")
            continue
        seen[key] += 1
        cell, min_value = cells[row[2]]
        if row[3] != cell:
            res.problems.append(f"table {key} {row[2]}: {row[3]}, reference {cell}")
        # argmin_tau is not compared: flat minima make it jump on 1e-12 changes
        if not close(float(row[4]), min_value):
            res.problems.append(f"table {key} {row[2]}: min_value {row[4]}, reference {min_value!r}")
    for key, n in seen.items():
        if n != len(ref.get(key, ())):
            res.problems.append(f"table {key}: {n} cells, reference has {len(ref.get(key, ()))}")
    return res


def _check_sweep(op: Op, out: Path, ref: dict, run_cli) -> Outcome:
    res = Outcome(scenarios=len(op.keys))
    header, rows = read_csv(out)
    if header != ["chi", "tau", op.witness, "status"]:
        res.problems.append(f"sweep header {header}")
        return res
    if len(rows) != len(op.keys) * SWEEP_SAMPLES:
        res.problems.append(f"sweep: {len(rows)} rows, expected {len(op.keys) * SWEEP_SAMPLES}")
        return res
    res.samples = len(rows)
    for k, key in enumerate(op.keys):
        block = rows[k * SWEEP_SAMPLES:(k + 1) * SWEEP_SAMPLES]
        preset, chi = key.split("|")
        label = f"sweep {key} {op.witness}"
        if {r[3] for r in block} != {block[0][3]} or _pool_chi(block[0][0], (chi,)) is None:
            res.problems.append(f"{label}: inconsistent rows")
            continue
        taus = [r[1:] for r in block]
        if not _grid_ok(label, taus, float(SWEEP_TMAX), SWEEP_SAMPLES, res.problems):
            continue
        expected = ref[key]
        status = block[0][3]
        if status.startswith("error:"):
            res.failed_scenarios += 1
            if expected["status"].startswith("error:"):
                res.known_defects += 1
            else:
                res.problems.append(f"{label}: new failure {status}")
        elif expected["status"].startswith("error:"):
            # failed in the reference, succeeds now: invariants only
            moments = run_cli(("simulate", "--preset", preset, "--chi", chi, "--moments",
                               "--tmax", SWEEP_TMAX, "--samples", str(SWEEP_SAMPLES)))
            if moments is None:
                res.problems.append(f"{label}: invariant run failed")
            else:
                mh, mr = read_csv(moments)
                check_invariants(label, mh, mr, res.problems)
        else:
            compare(label, to_floats(r[2] for r in block), expected["values"][op.witness], res.problems)
    return res


def _check_simulate(op: Op, out: Path, ref: dict) -> Outcome:
    res = Outcome(scenarios=1)
    key = op.keys[0]
    header, rows = read_csv(out)
    label = f"simulate {op.kind} {key}"
    want = ref["moment_header"] if op.kind == "moments" else ref["witness_header"]
    if header != want:
        res.problems.append(f"{label}: header differs from reference")
        return res
    if not _grid_ok(label, rows, float(SIM_TMAX), SIM_SAMPLES, res.problems):
        return res
    res.samples = len(rows)
    if op.kind == "moments":
        check_invariants(label, header, rows, res.problems)
    expected = ref[key][op.kind]
    for i in range(0, SIM_SAMPLES, SIM_REF_EVERY):
        compare(f"{label} row {i}", to_floats(rows[i][1:]), expected[str(i)], res.problems)
    return res


def _check_oracle(op: Op, out: Path, ref: dict) -> Outcome:
    res = Outcome(scenarios=1)
    key = op.keys[0]
    header, rows = read_csv(out)
    label = f"oracle-check {key}"
    if header != ref["header"]:
        res.problems.append(f"{label}: header differs from reference")
        return res
    if not _grid_ok(label, rows, float(ORACLE_TMAX), ORACLE_SAMPLES, res.problems):
        return res
    res.samples = len(rows)
    for i in range(0, ORACLE_SAMPLES, ORACLE_REF_EVERY):
        compare(f"{label} row {i}", to_floats(rows[i][1:]), ref[key][str(i)], res.problems)
    return res
