"""Generated command lines and config files through ``io_cli.main``, in process.

Every run must end in exit 0 with the command's CSV, or in exit 1 or 2 with
exactly one ``cavens:`` line on stderr; a traceback or a warning fails the
test.  Half the draws are clean (a valid source and flags, keys the command
reads), half dirty (NaN, inf, negative, fractional, empty and malformed
values, missing and foreign flags, unknown, repeated and conflicting keys).
The valid values stay inside a work budget (samples <= 200, t_max <= 20,
n_max <= 2, rates and couplings of modest size), because an accepted but
large run is slow, not wrong: RK45 and the oracle's Taylor steps both grow
with t_max times the generator's size.  So huge values are drawn only where
the cost does not grow with them; the bounds past the budget that the
program enforces are cases of ``test_cli_names_a_bound_by_its_key_and_line_or_its_flag``.
The draws are derandomized, so every run takes the same ones.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavens.io_cli import main
from cavens.model import MOMENT_NAMES
from cavens.oracle import _REPORT_WORDS
from cavens.witnesses import WITNESS_NAMES

# values no number parser should take, or that parse to a non-finite number
_BAD = ["nan", "-nan", "inf", "-inf", "1e999", "abc", "1e", "0x10", "1,2", "--", " ", ""]
_SIGNED = ["delta_a", "delta_b", "delta_c", "g_a", "g_b"]
_RATES, _BATHS = ["gamma_a", "gamma_b", "gamma_c"], ["n_a", "n_b", "n_c"]
_PARAMS = _SIGNED + ["chi"] + _RATES + _BATHS
_RUN = ["init_na", "init_nb", "init_nc", "t_max", "samples"]
# what each command reads (table also reads threshold) and the flags it takes besides its source
_READS = {"simulate": _PARAMS + _RUN, "oracle-check": _PARAMS + _RUN, "table": _RUN + ["threshold"],
          "sweep": [key for key in _PARAMS if key != "chi"] + _RUN}
_FLAGS = {"simulate": ["--chi", "--witnesses", "--moments"], "oracle-check": ["--chi"],
          "table": ["--chi-grid", "--threshold"], "sweep": []}


def _number(strategy, huge=(), dirty=False, bad=("-1",)):
    """A number in budget as text, or an entry of ``huge``, or if ``dirty`` a value the program must reject."""
    choices = [strategy.map(repr)] + [st.sampled_from(list(huge))] * bool(huge)
    return st.one_of(choices + [st.sampled_from(_BAD + list(bad))] * dirty)


def _values(command: str, dirty: bool) -> dict:
    """Per config key, the values drawn for it.

    The moment engine's cost does not grow with the drive or the bath
    occupations; the oracle's Taylor steps do, so they take a smaller
    budget, and for them a huge drive is one whose coefficients overflow,
    which fails the run at tau 0.
    """
    oracle = command == "oracle-check"
    bound = 2.0 if oracle else 10.0
    signed, rate = st.floats(-bound, bound), st.floats(0.0, bound)
    values = {key: _number(signed, dirty=dirty, bad=()) for key in _SIGNED}
    values |= {key: _number(rate, dirty=dirty) for key in _RATES}
    values |= {key: _number(rate, () if oracle else ["1e300"], dirty) for key in _BATHS}
    # not huge: RK45 crawls when a huge occupation sits beside an empty mode (init_na = init_nc = 1e50 on AA)
    values |= {key: _number(rate, dirty=dirty) for key in _RUN[:3]}
    values |= dict(
        chi=_number(signed, ["1.7e308", "-1.7e308"] + ([] if oracle else ["1e300", "-1e200"]), dirty, bad=()),
        t_max=_number(st.floats(0.0, 20.0, exclude_min=True), ["1e-300"], dirty, bad=("-1", "0", "5e-324")),
        samples=st.one_of([st.integers(2, 200).map(str)]
                          + [st.sampled_from(_BAD + ["-1", "0", "1", "2.5", "1e3", "1000001", "10" * 7])] * dirty),
        threshold=_number(st.floats(0.0, 1.0, exclude_min=True), ["1e308"], dirty, bad=("-1", "0")),
    )
    return values


def _list(entries, dirty: bool, unique: bool = False):
    """A comma list of 1 to 3 drawn entries; if ``dirty``, also an empty entry or list."""
    return st.one_of([st.lists(entries, min_size=1, max_size=3, unique=unique).map(",".join)]
                     + [st.sampled_from([",", "", "0,,1", "0,"])] * dirty)


@st.composite
def _config(draw, command: str, dirty: bool, values: dict) -> str:
    """Config text of keys the command reads, under a preset or explicit.

    If ``dirty``, also a key it does not read, an unknown or repeated key, a
    malformed line or one that conflicts with ``preset``.
    """
    keys = _READS[command] + ["preset"] * (command != "table")
    if dirty:
        keys += ["threshold", "bogus", "preset"]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=5, unique=not dirty))
    if not dirty and "preset" in chosen:  # a preset takes no explicit parameter but chi
        chosen = [key for key in chosen if key not in _SIGNED + _RATES + _BATHS]
    preset = st.sampled_from(["AA", "AN", "NA", "NN", "an", " NN "] + ["XX", "A A"] * dirty)
    lines = [f"{key} = {draw(preset if key == 'preset' else values.get(key, st.just('1')))}" for key in chosen]
    lines += draw(st.lists(st.sampled_from(["# a comment", "", "chi = 0.1 # the drive"]
                                           + ["t_max", "= 1", "chi ="] * dirty), max_size=2))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@st.composite
def _invocations(draw):
    """``(argv, config text or None)``: one command with a valid source and flags, or, if dirty, any."""
    command = draw(st.sampled_from(sorted(_READS)))
    dirty = draw(st.booleans())
    values = _values(command, dirty)
    witnesses = st.sampled_from(WITNESS_NAMES)
    if dirty:
        witnesses = st.one_of(witnesses, st.sampled_from(["bogus", "", "tau"]))
    flags = {"--tmax": values["t_max"], "--samples": values["samples"], "--chi": values["chi"],
             "--threshold": values["threshold"], "--witness": witnesses,
             "--nmax": st.one_of([st.integers(1, 2).map(str)]
                                 + [st.sampled_from(_BAD + ["0", "-1", "8", "2.5", "1000000000"])] * dirty),
             "--preset": st.sampled_from(["AA", "AN", "NA", "NN", "an"] + ["XX", ""] * dirty),
             "--witnesses": _list(witnesses, dirty, unique=not dirty),
             "--chi-grid": _list(st.sampled_from(["0", "0.2", "-0.4", "1e300"]) if command == "table"
                                 else values["chi"], dirty)}
    optional = ["--tmax", "--samples"] + _FLAGS[command]
    argv = [command]
    chosen = draw(st.lists(st.sampled_from(optional), unique=True))
    if command == "sweep":
        chosen += ["--chi-grid", "--witness"]
    config = None
    source = draw(st.sampled_from(["preset", "config"] + ["none"] * (command == "table" or dirty)
                                  + ["both"] * dirty))
    if source in ("preset", "both") and command != "table":
        chosen.append("--preset")
    if source in ("config", "both"):
        config = draw(_config(command, dirty, values))
    if "--witnesses" in chosen and "--moments" in chosen and not dirty:  # the two forms exclude each other
        chosen.remove("--moments")
    if dirty:  # drop a required flag, or add one the command does not take
        chosen = draw(st.lists(st.sampled_from(chosen + ["--nmax", "--threshold", "--chi", "--bogus"]),
                               unique=True, max_size=6))
    if command == "oracle-check" and "--nmax" not in chosen:  # its default, 6, is over the budget
        chosen.append("--nmax")
    for flag in draw(st.permutations(chosen)):
        argv += [flag] if flag == "--moments" else [flag, draw(flags.get(flag, st.just("1")))]
    return argv, config


def _header(argv: list[str]) -> str:
    """The first CSV line of a successful run of ``argv``."""
    command = argv[0]
    if command == "table":
        return "config,chi,witness,cell,min_value,argmin_tau"
    if command == "sweep":
        return f"chi,tau,{argv[argv.index('--witness') + 1]},status"
    if command == "oracle-check":
        names = [f"{part}_{name}_{side}" for name in _REPORT_WORDS for side in ("exact", "closed")
                 for part in ("re", "im")]
        return ",".join(["tau"] + names + [f"{n}_{side}" for n in WITNESS_NAMES for side in ("exact", "closed")])
    if "--moments" in argv:
        return ",".join(["tau"] + [f"{part}_{name}" for name in MOMENT_NAMES for part in ("re", "im")])
    if "--witnesses" in argv:
        chosen = argv[argv.index("--witnesses") + 1].split(",")
        return ",".join(["tau"] + [n for n in WITNESS_NAMES if n in chosen])
    return ",".join(["tau", *WITNESS_NAMES])


def _run(argv: list[str], config: str | None) -> tuple[int, str, str]:
    """``main(argv)`` with ``config`` as ``--config``, warnings raised as errors: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = Path(tmp) / "run.cfg"
            path.write_text(config, encoding="utf-8")
            argv = argv + ["--config", str(path)]
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=120, deadline=None, derandomize=True)  # the same draws on every run, as a tier-1 test
@given(_invocations())
# overflowing moments: the report names the overflow before its decoupled words can warn
@example((["oracle-check", "--nmax", "1", "--tmax", "1", "--samples", "3"], "init_na = 1e300\ninit_nb = 1e300\n"))
# jump rates gamma (n + 1) and gamma n that both overflow: their infinities cancel in M without a warning
@example((["simulate", "--samples", "3"], "gamma_a = 1e300\nn_a = 1e300\n"))
def test_every_generated_command_line_exits_cleanly(invocation):
    argv, config = invocation
    code, out, err = _run(*invocation)
    assert code in (0, 1, 2)
    if code:
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("cavens: ") and err.endswith("\n"), err
        assert "Traceback" not in err and "Warning" not in err
    else:
        header, *rows = out.splitlines()
        assert header == _header(argv)
        assert rows and all(row.count(",") == header.count(",") for row in rows)
        # oracle-check may warn that its truncation blurs the errors it reports
        assert err == "" or (argv[0] == "oracle-check" and err.startswith("cavens: warning: truncation defect")
                             and err.count("\n") == 1)
