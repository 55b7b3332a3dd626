"""Config parsing, CSV emission and the command-line interface.

Config files are plain ``key = value`` lines; ``#`` starts a comment.  A run
is specified either by a ``preset`` (AA, AN, NA, NN) or by explicit model
parameters; the two spellings are mutually exclusive except for ``chi``,
which may override a preset's drive strength.  Unset keys take the
documented defaults (detunings 1, couplings/decays/baths 0, initial
occupations 1, t_max 10, samples 1001, threshold 1e-4).

Every command resolves one base ``Scenario`` from ``--config`` or
``--preset`` (never both) and its override flags, and hands it to the
runner.  Each subcommand registers only the flags it honours, so any other
flag is a usage error: ``table`` scores every preset and takes no
``--preset``/``--chi``, ``sweep`` varies chi itself and takes no ``--chi``,
and only ``table`` takes ``--threshold``.  A config that sets a key the
command does not read is rejected with its line number, whatever its value:
``table`` reads only the run keys (no ``preset`` or model parameters),
``sweep`` reads no ``chi``, and only ``table`` reads ``threshold``.  So are
an empty entry in a ``--chi-grid`` or ``--witnesses`` list and a repeating
``--witnesses`` list.  ``oracle-check`` warns on stderr when its Fock
truncation leaks enough to blur the closure errors it reports.

All CSV output is UTF-8 with a header row and a deterministic byte stream
for identical inputs; complex moments are split into ``re_<name>`` /
``im_<name>`` column pairs.  Every product is handed to one writer as a list
of columns (float arrays and string lists), which formats each row with one
``%`` template: ``%.17g`` per float column, ``%s`` per string column.
"""

from __future__ import annotations

import argparse
import re
import sys
from contextlib import nullcontext
from dataclasses import fields, replace
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import IntegrationError, Trajectory, integrate
from .model import (
    MOMENT_NAMES,
    Scenario,
    SystemParams,
    initial_state,
    occupations,
    preset_params,
)
from .runner import CELLS, SignMatrix, SweepSurface, WitnessSeries, chi_sweep, run_scenario, table_matrix
from .witnesses import WITNESS_NAMES, InternalConsistencyError, column_name

if TYPE_CHECKING:  # the oracle, and scipy with it, loads only for oracle-check
    from .oracle import ClosureReport, FockBasisSpec

__all__ = ["ConfigError", "parse_config", "format_config", "main"]

_PARAM_KEYS = tuple(f.name for f in fields(SystemParams))
_RUN_KEYS = ("init_na", "init_nb", "init_nc", "t_max", "samples", "threshold")
_ALL_KEYS = ("preset",) + _PARAM_KEYS + _RUN_KEYS
# the config keys each command reads: only table scores ticks, and it runs every preset
_READS = {"table": _RUN_KEYS, "sweep": tuple(k for k in _ALL_KEYS[:-1] if k != "chi")}
_READS["simulate"] = _READS["oracle-check"] = _ALL_KEYS[:-1]  # all but threshold
# the config key of each scenario field a bound names otherwise, and the flag of each field
_KEYS = {"sample_count": "samples", "n_a0": "init_na", "n_b0": "init_nb", "n_c0": "init_nc"}
_FLAGS = {"chi": "--chi", "t_max": "--tmax", "sample_count": "--samples", "threshold": "--threshold"}
# oracle-check warns when the truncated commutator defect reaches this
LEAKAGE_DEFECT_TOL = 1e-4


class ConfigError(ValueError):
    """Config file problem; ``line`` is set for a syntax or key problem, a bound names its lines."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _parse_lines(text: str):
    """Yield (line_number, key, raw_value) for every assignment line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        yield lineno, key, value


def _renamed(exc: ValueError, label) -> str:
    """``exc``'s message, the field that leads each of its problems named ``label(field)``."""
    problems = (problem.partition(" ") for problem in str(exc).split("; "))
    return "; ".join(label(name) + sep + rest for name, sep, rest in problems)


def parse_config(text: str) -> Scenario:
    """Resolve a config file into a fully specified scenario."""
    seen: dict[str, tuple[int, str]] = {}
    for lineno, key, value in _parse_lines(text):
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in seen:
            raise ConfigError(f"duplicate key {key!r} (first set on line {seen[key][0]})", lineno)
        seen[key] = (lineno, value)

    if "preset" in seen:
        for key in _PARAM_KEYS:
            if key != "chi" and key in seen:
                raise ConfigError(f"explicit {key!r} conflicts with 'preset'", seen[key][0])

    def number(key: str, default, kind=float):
        if key not in seen:
            return default
        lineno, value = seen[key]
        try:
            return kind(value)
        except ValueError:
            noun = "number" if kind is float else "integer"
            raise ConfigError(f"malformed {noun} {value!r} for {key!r}", lineno) from None

    if "preset" in seen:
        lineno, label = seen["preset"]
        try:
            params = preset_params(label, number("chi", 0.0))
        except ValueError as exc:
            raise ConfigError(str(exc), lineno) from None
    else:
        params = SystemParams(**{f.name: number(f.name, f.default) for f in fields(SystemParams)})
    occ = [number(key, 1.0) for key in _RUN_KEYS[:3]]  # the initial occupations
    run = dict(t_max=number("t_max", Scenario.t_max),
               sample_count=number("samples", Scenario.sample_count, int),
               threshold=number("threshold", Scenario.threshold))
    try:
        return Scenario(params=params, initial=initial_state(*occ), **run)
    except ValueError as exc:  # a bound, named by its key on its line
        at = {key: f"line {line}: {key}" for key, (line, _) in seen.items()}
        raise ConfigError(_renamed(exc, lambda field: at.get(_KEYS.get(field, field), field))) from None


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def format_config(scenario: Scenario) -> str:
    """Echo a scenario as explicit-parameter config text (parse round trips)."""
    p = scenario.params
    occ = occupations(scenario.initial)
    lines = [f"{key} = {_fmt(getattr(p, key))}" for key in _PARAM_KEYS]
    lines += [f"init_n{mode} = {_fmt(n)}" for mode, n in zip("abc", occ)]
    lines += [
        f"t_max = {_fmt(scenario.t_max)}",
        f"samples = {scenario.sample_count}",
        f"threshold = {_fmt(scenario.threshold)}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _write_columns(dest, header: list[str], columns) -> None:
    """Write equal-length columns under ``header``, one CSV row per index.

    A float array is written as ``%.17g``, a list of strings as it is.  Rows
    are streamed through one ``%`` template, so cells go in only as arguments.
    """
    template = ",".join("%.17g" if isinstance(col, np.ndarray) else "%s" for col in columns) + "\n"
    values = [col.tolist() if isinstance(col, np.ndarray) else col for col in columns]
    opened = nullcontext(dest) if hasattr(dest, "write") else open(dest, "w", encoding="utf-8", newline="")
    with opened as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(template % row for row in zip(*values))


def _re_im(z: np.ndarray) -> np.ndarray:
    """Columns of ``(n, k)`` complex ``z`` as ``(2k, n)`` real rows: re, im of each in turn."""
    return np.stack([z.real, z.imag], axis=-1).reshape(len(z), -1).T


def write_trajectory(traj: Trajectory, dest) -> None:
    header = ["tau"] + [f"{part}_{name}" for name in MOMENT_NAMES for part in ("re", "im")]
    _write_columns(dest, header, [traj.taus, *_re_im(traj.states)])


def _selected(columns: list[str] | None) -> list[str]:
    """The witness columns of ``columns`` (``None``: all) in table order; main checks them before a run."""
    if columns is not None:
        unknown = sorted(set(columns) - set(WITNESS_NAMES))
        if unknown:
            raise KeyError(f"unknown witness column(s): {', '.join(unknown)}")
        if not columns:
            raise ValueError("no witness column selected")
        repeated = sorted({c for c in columns if columns.count(c) > 1})
        if repeated:
            raise ValueError(f"duplicate witness column(s): {', '.join(repeated)}")
    return [n for n in WITNESS_NAMES if columns is None or n in columns]


def write_witness_series(series: WitnessSeries, dest, columns: list[str] | None = None) -> None:
    names = _selected(columns)
    _write_columns(dest, ["tau"] + names, [series.taus] + [series.column(n) for n in names])


def write_sign_matrix(matrix: SignMatrix, dest) -> None:
    header = ["config", "chi", "witness", "cell", "min_value", "argmin_tau"]
    _write_columns(dest, header, [
        [config for config, _ in matrix.columns for _ in CELLS],
        np.repeat(np.array([chi for _, chi in matrix.columns], dtype=float), len(CELLS)),
        [column_name(row, key) for row, key in CELLS] * len(matrix.columns),
        ["tick" if t else "cross" for t in matrix.ticks.ravel()],
        matrix.min_value.ravel(),
        matrix.argmin_tau.ravel(),
    ])


def write_sweep(surface: SweepSurface, dest) -> None:
    n = len(surface.taus)
    _write_columns(dest, ["chi", "tau", surface.witness, "status"], [
        np.repeat(surface.chis, n),
        np.tile(surface.taus, len(surface.chis)),
        surface.values.ravel(),
        [status for status in surface.status for _ in range(n)],
    ])


def write_closure_report(report: ClosureReport, dest) -> None:
    header = ["tau"] + [
        f"{part}_{name}_{side}" for name in report.correlator_names
        for side in ("exact", "closed") for part in ("re", "im")
    ] + [f"{name}_{side}" for name in WITNESS_NAMES for side in ("exact", "closed")]
    correlators = np.stack([report.exact, report.closed], axis=-1)
    witnesses = np.stack([report.witness_exact, report.witness_closed], axis=-1)
    _write_columns(dest, header, [
        report.taus,
        *_re_im(correlators.reshape(len(report.taus), -1)),
        *witnesses.reshape(len(report.taus), -1).T,
    ])


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # no prefix matching: ``--chi`` must not pass for ``--chi-grid``
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # a value such as -1e-3 or -0.2,0.2 is a value, not an unknown flag (argparse takes only -1 and -.5)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise _UsageError(message)


def _add_common(sub, preset: bool = True):
    """Base-scenario flags; with ``preset``, one of --config/--preset is required."""
    source = sub.add_mutually_exclusive_group(required=preset)
    source.add_argument("--config", type=Path, help="config file path")
    if preset:
        source.add_argument("--preset", help="configuration label (AA, AN, NA, NN)")
    sub.add_argument("--tmax", type=float, help="time span override")
    sub.add_argument("--samples", type=int, help="sample count override")
    sub.add_argument("--out", type=Path, help="output CSV path (default stdout)")


@cache  # parsing keeps no state in the parser, so one serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="cavens", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="one scenario -> witness time-series CSV")
    _add_common(sim)
    sim.add_argument("--chi", type=float, help="drive strength override")
    form = sim.add_mutually_exclusive_group()
    form.add_argument("--witnesses", help="comma list of witness columns (default all)")
    form.add_argument("--moments", action="store_true",
                      help="emit the raw moment trajectory instead of witnesses")

    tab = subs.add_parser("table", help="sign matrix over all configurations")
    _add_common(tab, preset=False)
    tab.add_argument("--threshold", type=float, help="tick threshold override")
    tab.add_argument("--chi-grid", default="0,0.2",
                     help="comma list of drive strengths (default 0,0.2)")

    swp = subs.add_parser("sweep", help="drive-strength sweep of one witness")
    _add_common(swp)
    swp.add_argument("--chi-grid", required=True, help="comma list of drive strengths")
    swp.add_argument("--witness", required=True, help="witness column to sweep")

    orc = subs.add_parser("oracle-check", help="closure-error report against the oracle")
    _add_common(orc)
    orc.add_argument("--chi", type=float, help="drive strength override")
    orc.add_argument("--nmax", type=int, default=6, help="Fock truncation per mode")
    return parser


def _resolve_scenario(args) -> Scenario:
    """The command's base scenario: config, preset or defaults, then the flags."""
    if args.config is not None:
        text = Path(args.config).read_text(encoding="utf-8")
        scenario = parse_config(text)
        for lineno, key, _ in _parse_lines(text):
            if key not in _READS[args.command]:
                raise ConfigError(f"{args.command} does not read {key!r}", lineno)
    elif getattr(args, "preset", None) is not None:
        scenario = Scenario(params=preset_params(args.preset))
    else:
        scenario = Scenario(params=SystemParams())
    given = {field: v for field, flag in _FLAGS.items() if (v := getattr(args, flag[2:], None)) is not None}
    try:
        if "chi" in given:
            scenario = scenario.with_params(chi=given.pop("chi"))
        return replace(scenario, **given)
    except ValueError as exc:  # a bound, named by its flag
        raise _UsageError(_renamed(exc, lambda field: _FLAGS.get(field, field))) from None


def _entries(text: str, what: str) -> list[str]:
    """The comma-separated entries of ``text``; an empty one is rejected, not dropped."""
    parts = [part.strip() for part in text.split(",")]
    if "" in parts:
        raise _UsageError(f"empty entry in {what} {text!r}")
    return parts


def _parse_grid(text: str, base: Scenario) -> list[float]:
    """The drive strengths of ``--chi-grid``, each checked as ``base``'s chi; a bound names the flag and entry."""
    parts = _entries(text, "chi grid")
    try:
        grid = [float(part) for part in parts]
    except ValueError:
        raise _UsageError(f"malformed chi grid {text!r}") from None
    for part, chi in zip(parts, grid):
        try:
            base.with_params(chi=chi)
        except ValueError as exc:  # a bound, named by its flag and entry
            label = f"--chi-grid entry {part}"
            raise _UsageError(_renamed(exc, lambda field: label if field == "chi" else field)) from None
    return grid


def closure_report(scenario: Scenario, basis: FockBasisSpec) -> ClosureReport:
    """``oracle.closure_report``, importing the oracle on the first call."""
    from . import oracle

    return oracle.closure_report(scenario, basis)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        scenario = _resolve_scenario(args)
        dest = sys.stdout if args.out is None else args.out
        if args.command == "simulate":
            if args.moments:
                write_trajectory(integrate(scenario), dest)
            else:
                columns = None if args.witnesses is None else _selected(_entries(args.witnesses, "witness list"))
                _, series = run_scenario(scenario)
                write_witness_series(series, dest, columns)
        elif args.command == "table":
            write_sign_matrix(table_matrix(scenario, _parse_grid(args.chi_grid, scenario)), dest)
        elif args.command == "sweep":
            write_sweep(chi_sweep(scenario, _parse_grid(args.chi_grid, scenario), args.witness), dest)
        elif args.command == "oracle-check":
            from .oracle import FockBasisSpec

            try:
                basis = FockBasisSpec(args.nmax)
            except ValueError as exc:  # a bound, named by its flag
                raise _UsageError(_renamed(exc, lambda field: "--nmax" if field == "n_max" else field)) from None
            report = closure_report(scenario, basis)
            write_closure_report(report, dest)
            defect = (args.nmax + 1) * report.truncation_leakage
            if defect >= LEAKAGE_DEFECT_TOL:
                print(f"cavens: warning: truncation defect (n_max+1)*P_top = {defect:.3e} >= "
                      f"{LEAKAGE_DEFECT_TOL:.0e}; the errors include truncation error", file=sys.stderr)
            if args.out is not None:
                for name, err in report.max_abs_error.items():
                    print(f"max |exact - closed| {name}: {err:.3e}")
                print(f"truncation leakage (top-level population): {report.truncation_leakage:.3e}")
        return 0
    # numeric failures first: LinAlgError subclasses ValueError
    except (IntegrationError, InternalConsistencyError, np.linalg.LinAlgError) as exc:
        print(f"cavens: numeric failure: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, ConfigError, KeyError, ValueError, OSError) as exc:
        # str() of a KeyError quotes its message
        print(f"cavens: error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
