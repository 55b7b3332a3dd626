import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cavens.io_cli as io_cli
from cavens.io_cli import (
    ConfigError,
    format_config,
    main,
    parse_config,
    write_closure_report,
    write_sign_matrix,
    write_sweep,
    write_trajectory,
    write_witness_series,
)
from cavens.dynamics import IntegrationError, integrate
from cavens.model import MOMENT_NAMES, Moment, Scenario, SystemParams, initial_state, preset_params
from cavens.runner import CELLS, SignMatrix, SweepSurface, run_scenario, table_matrix, chi_sweep
from cavens.witnesses import WITNESS_NAMES


def _csv(write, obj):
    """Header and rows of the CSV that ``write`` makes of ``obj``."""
    buf = io.StringIO()
    write(obj, buf)
    lines = buf.getvalue().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _floats(rows, cols=slice(None)) -> np.ndarray:
    return np.array([[float(x) for x in row[cols]] for row in rows])


def test_parse_preset_with_chi_override():
    sc = parse_config("preset = AN\nchi = 0.2\n")
    assert sc.params == preset_params("AN", 0.2)
    assert sc.t_max == 10.0
    assert sc.sample_count == 1001
    assert sc == Scenario(params=preset_params("AN", 0.2))
    assert sc.threshold == 1e-4
    assert sc.initial[Moment.AdA] == 1.0


def test_parse_preset_conflicts_with_explicit_decay():
    with pytest.raises(ConfigError, match="line 2.*conflicts"):
        parse_config("preset = AA\ngamma_a = 1\n")


def test_parse_explicit_equals_preset():
    text = "g_a = 0.2\ng_b = 0.02\ngamma_a = 2\ngamma_b = 0.2\ngamma_c = 0.2\nchi = 0\n"
    assert parse_config(text) == parse_config("preset = AN\nchi = 0\n")


def test_parse_error_reporting():
    with pytest.raises(ConfigError, match="line 1.*unknown key"):
        parse_config("bogus = 1\n")
    with pytest.raises(ConfigError, match="line 3.*duplicate"):
        parse_config("chi = 0.1\n# fine\nchi = 0.2\n")
    with pytest.raises(ConfigError, match="line 2.*malformed number"):
        parse_config("chi = 0.1\nt_max = ten\n")
    with pytest.raises(ConfigError, match="line 1.*expected"):
        parse_config("just some words\n")
    with pytest.raises(ConfigError, match="unknown configuration"):
        parse_config("preset = XX\n")
    with pytest.raises(ConfigError, match="gamma_a must be >= 0"):
        parse_config("gamma_a = -2\n")
    with pytest.raises(ConfigError, match="^line 1: samples must be >= 2$"):
        parse_config("samples = 1\n")


def test_parse_comments_and_defaults():
    sc = parse_config("# full comment line\n\npreset = NN  # trailing comment\n")
    assert sc.params == preset_params("NN", 0.0)
    empty = parse_config("")
    assert empty.params == SystemParams()  # detunings 1, everything else 0


def test_config_echo_round_trip():
    sc = parse_config("preset = NA\nchi = 0.2\nt_max = 7.5\nsamples = 400\n"
                      "init_na = 0.25\nthreshold = 2e-4\n")
    assert parse_config(format_config(sc)) == sc


_finite = st.floats(-10.0, 10.0)
_non_negative = st.floats(0.0, 10.0)
# (t_max, samples) whose sample grid increases strictly, as Scenario requires
_grids = st.tuples(st.floats(0.0, 1e6, exclude_min=True), st.integers(2, 10**6)).filter(
    lambda grid: (np.diff(np.linspace(0.0, *grid)) > 0).all())


@settings(max_examples=60, deadline=None)
@given(sc=st.builds(
    lambda grid, **fields: Scenario(t_max=grid[0], sample_count=grid[1], **fields),
    params=st.builds(
        SystemParams,
        delta_a=_finite, delta_b=_finite, delta_c=_finite,
        g_a=_finite, g_b=_finite, chi=_finite,
        gamma_a=_non_negative, gamma_b=_non_negative, gamma_c=_non_negative,
        n_a=_non_negative, n_b=_non_negative, n_c=_non_negative,
    ),
    initial=st.builds(initial_state, _non_negative, _non_negative, _non_negative),
    grid=_grids,
    threshold=st.floats(0.0, 1e3, exclude_min=True),
))
def test_config_echo_round_trips_any_valid_scenario(sc):
    assert parse_config(format_config(sc)) == sc


def test_trajectory_csv_layout(tmp_path):
    sc = Scenario(params=SystemParams(delta_a=1), initial=initial_state(1, 0, 0),
                  t_max=1.0, sample_count=2)
    traj = integrate(sc)
    out = tmp_path / "traj.csv"
    write_trajectory(traj, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    assert header[:3] == ["tau", "re_A", "im_A"]
    assert len(header) == 1 + 2 * 27
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    # the <AdA> column round trips the exact initial value
    col = header.index("re_AdA")
    assert float(first[col]) == 1.0


def test_trajectory_csv_round_trips_every_number():
    traj = integrate(Scenario(params=preset_params("AN", 0.2), t_max=2.0, sample_count=7))
    header, rows = _csv(write_trajectory, traj)
    assert header == ["tau"] + [f"{part}_{n}" for n in MOMENT_NAMES for part in ("re", "im")]
    values = _floats(rows)
    np.testing.assert_array_equal(values[:, 0], traj.taus)
    np.testing.assert_array_equal(values[:, 1::2], traj.states.real)
    np.testing.assert_array_equal(values[:, 2::2], traj.states.imag)


def test_csv_determinism_and_roundtrip_precision(tmp_path):
    sc = Scenario(params=preset_params("AN", 0.2), t_max=1.0, sample_count=9)
    _, series = run_scenario(sc)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_witness_series(series, a)
    write_witness_series(series, b)
    assert a.read_bytes() == b.read_bytes()
    header, rows = _csv(write_witness_series, series)
    assert header == ["tau"] + list(WITNESS_NAMES)
    np.testing.assert_array_equal(_floats(rows), np.column_stack([series.taus, series.table]))


def test_witness_column_filter():
    sc = Scenario(params=preset_params("AN", 0.0), t_max=1.0, sample_count=3)
    _, series = run_scenario(sc)
    buf = io.StringIO()
    write_witness_series(series, buf, ["steering_BA", "mandel_A"])
    header = buf.getvalue().splitlines()[0]
    assert header == "tau,mandel_A,steering_BA"  # canonical order is kept
    with pytest.raises(KeyError, match="unknown witness"):
        write_witness_series(series, io.StringIO(), ["bogus"])


def test_sign_matrix_csv_row_shape():
    matrix = table_matrix(Scenario(params=SystemParams(), t_max=1.0, sample_count=41))
    buf = io.StringIO()
    write_sign_matrix(matrix, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "config,chi,witness,cell,min_value,argmin_tau"
    assert len(lines) == 1 + 288
    row = next(l for l in lines if l.startswith("NA,0,steering_AB,"))
    fields = row.split(",")
    assert fields[3] in ("tick", "cross")
    assert np.isfinite(float(fields[4])) and 0 < float(fields[5]) <= 1.0
    # partition cells are emitted with CSV-safe names
    assert any(l.startswith("AA,0,bisep_e_AB_C,") for l in lines)


def test_sign_matrix_csv_round_trips_every_number():
    matrix = table_matrix(Scenario(params=SystemParams(), t_max=1.0, sample_count=21), (0.0, 0.15))
    header, rows = _csv(write_sign_matrix, matrix)
    assert header == ["config", "chi", "witness", "cell", "min_value", "argmin_tau"]
    assert len(rows) == len(matrix.columns) * len(CELLS)
    for k, row in enumerate(rows):
        (config, chi), (name, key) = matrix.columns[k // len(CELLS)], CELLS[k % len(CELLS)]
        assert row[0] == config and float(row[1]) == chi
        assert row[2] == f"{name}_{key.replace('|', '_')}"
        assert row[3] == ("tick" if matrix.ticks.flat[k] else "cross")
    values = _floats(rows, slice(4, 6))
    np.testing.assert_array_equal(values[:, 0], matrix.min_value.ravel())
    np.testing.assert_array_equal(values[:, 1], matrix.argmin_tau.ravel())


def test_sweep_csv(tmp_path):
    surface = chi_sweep(Scenario(params=preset_params("NN"), t_max=1.0, sample_count=5),
                        [0.0, 0.2], "duan_AB")
    out = tmp_path / "sweep.csv"
    write_sweep(surface, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "chi,tau,duan_AB,status"
    assert len(lines) == 1 + 2 * 5
    assert lines[1].endswith(",ok")
    _, rows = _csv(write_sweep, surface)
    values = _floats(rows, slice(0, 3))
    np.testing.assert_array_equal(values[:, 0], np.repeat(surface.chis, 5))
    np.testing.assert_array_equal(values[:, 1], np.tile(surface.taus, 2))
    np.testing.assert_array_equal(values[:, 2], surface.values.ravel())


def test_sweep_csv_keeps_a_failed_row(monkeypatch):
    import cavens.runner as runner_mod

    real = runner_mod.integrate_batch

    def flaky(scenarios):
        scenarios = list(scenarios)
        return [IntegrationError("synthetic failure", 0.5) if sc.params.chi == 0.1 else result
                for sc, result in zip(scenarios, real(scenarios))]

    monkeypatch.setattr(runner_mod, "integrate_batch", flaky)
    surface = chi_sweep(Scenario(params=preset_params("AN"), t_max=1.0, sample_count=4),
                        [0.0, 0.1], "mandel_A")
    _, rows = _csv(write_sweep, surface)
    assert [row[3] for row in rows] == [s for s in surface.status for _ in range(4)]
    assert rows[4][2] == "nan" and surface.status[1].startswith("error:")
    np.testing.assert_array_equal(_floats(rows, slice(2, 3))[:, 0], surface.values.ravel())


def test_closure_report_csv():
    from cavens.oracle import FockBasisSpec, closure_report

    sc = Scenario(params=preset_params("AN", 0.2), initial=initial_state(0.2, 0.2, 0.2),
                  t_max=0.5, sample_count=3)
    report = closure_report(sc, FockBasisSpec(2))
    buf = io.StringIO()
    write_closure_report(report, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("tau,re_nn_AB_exact,im_nn_AB_exact,re_nn_AB_closed")
    assert len(lines) == 4
    header, rows = _csv(write_closure_report, report)
    names = report.correlator_names
    assert header[1:4 * len(names) + 1] == [
        f"{part}_{n}_{side}" for n in names
        for side in ("exact", "closed") for part in ("re", "im")]
    assert header[4 * len(names) + 1:] == [f"{n}_{side}" for n in WITNESS_NAMES
                                           for side in ("exact", "closed")]
    values = _floats(rows)
    np.testing.assert_array_equal(values[:, 0], report.taus)
    pairs = values[:, 1:4 * len(names) + 1].reshape(len(rows), len(names), 2, 2)
    np.testing.assert_array_equal(pairs[:, :, 0, 0], report.exact.real)
    np.testing.assert_array_equal(pairs[:, :, 0, 1], report.exact.imag)
    np.testing.assert_array_equal(pairs[:, :, 1, 0], report.closed.real)
    np.testing.assert_array_equal(pairs[:, :, 1, 1], report.closed.imag)
    witnesses = values[:, 4 * len(names) + 1:].reshape(len(rows), len(WITNESS_NAMES), 2)
    np.testing.assert_array_equal(witnesses[..., 0], report.witness_exact)
    np.testing.assert_array_equal(witnesses[..., 1], report.witness_closed)


_EDGE_FLOATS = [0.0, -0.0, float("nan"), float(np.copysign(np.nan, -1.0)), float("inf"),
                float("-inf"), 5e-324, 1.7976931348623157e308, 0.1, 1 / 3, 2**53 + 1.0, 1e17]


def _written(header, columns) -> str:
    buf = io.StringIO()
    io_cli._write_columns(buf, header, columns)
    return buf.getvalue()


def _per_value_csv(header, columns) -> str:
    """Reference text: every float through ``format(float(x), ".17g")`` on its own."""
    cells = [[format(float(x), ".17g") for x in col] for col in columns]
    return "".join(",".join(row) + "\n" for row in [header, *zip(*cells)])


def test_float_cells_match_per_value_17g_on_edge_values():
    edge = np.array(_EDGE_FLOATS)
    columns = [edge, edge[::-1].copy(), -edge]
    text = _written(["a", "b", "c"], columns)
    assert text == _per_value_csv(["a", "b", "c"], columns)
    assert text.splitlines()[1:5] == ["0,1e+17,-0", "-0,9007199254740992,0",
                                      "nan,0.33333333333333331,nan", "nan,0.10000000000000001,nan"]


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), max_size=60), width=st.integers(1, 3))
def test_float_cells_match_per_value_17g_on_any_bit_pattern(bits, width):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    columns = list(values[: len(values) - len(values) % width].reshape(width, -1))
    header = [f"c{k}" for k in range(width)]
    assert _written(header, columns) == _per_value_csv(header, columns)


_PERCENT_CELLS = ("100%", "%s", "%%", "%.17g")


def test_string_cells_with_percent_signs_are_written_unchanged():
    surface = SweepSurface("mandel_A", np.array([0.0, 0.5, 1.0, 2.0]), np.array([0.0, 1.0]),
                           np.zeros((4, 2)), tuple(f"error: {s}" for s in _PERCENT_CELLS))
    _, rows = _csv(write_sweep, surface)
    assert [row[3] for row in rows] == [f"error: {s}" for s in _PERCENT_CELLS for _ in range(2)]
    shape = (len(_PERCENT_CELLS), len(CELLS))
    matrix = SignMatrix(1e-4, 1.0, tuple((label, 0.0) for label in _PERCENT_CELLS),
                        np.zeros(shape, dtype=bool), np.ones(shape), np.ones(shape))
    _, rows = _csv(write_sign_matrix, matrix)
    assert [row[0] for row in rows] == [label for label in _PERCENT_CELLS for _ in CELLS]
    assert {row[3] for row in rows} == {"cross"}


def test_a_product_with_zero_rows_writes_its_header_only():
    surface = SweepSurface("mandel_A", np.zeros(0), np.zeros(0), np.zeros((0, 0)), ())
    buf = io.StringIO()
    write_sweep(surface, buf)
    assert buf.getvalue() == "chi,tau,mandel_A,status\n"
    assert _written(["x", "y"], [np.zeros(0), []]) == "x,y\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--preset", "AN", "--chi", "0.2", "--tmax", "1", "--samples", "5"],
    ["simulate", "--preset", "NA", "--tmax", "1", "--samples", "5", "--moments"],
    ["table", "--tmax", "1", "--samples", "5"],
    ["sweep", "--preset", "AN", "--chi-grid", "0,0.2", "--witness", "mandel_C",
     "--tmax", "1", "--samples", "5"],
    ["oracle-check", "--preset", "AN", "--chi", "0.2", "--nmax", "1", "--tmax", "0.5",
     "--samples", "3"],
])
def test_stdout_and_out_file_get_the_same_bytes(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_cli_simulate_to_file(tmp_path):
    out = tmp_path / "run.csv"
    code = main(["simulate", "--preset", "AN", "--chi", "0.2",
                 "--tmax", "1", "--samples", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("tau,mandel_A")
    assert len(lines) == 6


def test_cli_simulate_moments_and_filter(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert main(["simulate", "--preset", "NA", "--tmax", "1", "--samples", "3",
                 "--moments", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").splitlines()[0].startswith("tau,re_A,im_A")
    assert main(["simulate", "--preset", "NA", "--tmax", "1", "--samples", "3",
                 "--witnesses", "duan_AC"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "tau,duan_AC"


def test_cli_simulate_moments_evaluates_no_witness(tmp_path):
    # at t_max 200 RK45's conjugate drift leaves witness residues above
    # IMAG_TOL on this run; the moment CSV needs no witness, so it is written
    out = tmp_path / "m.csv"
    assert main(["simulate", "--preset", "AN", "--chi", "0.2", "--tmax", "200",
                 "--samples", "21", "--moments", "--out", str(out)]) == 0
    expected = io.StringIO()
    write_trajectory(integrate(Scenario(params=preset_params("AN", 0.2), t_max=200.0,
                                        sample_count=21)), expected)
    assert out.read_text(encoding="utf-8") == expected.getvalue()
    assert len(expected.getvalue().splitlines()) == 22


def test_cli_simulate_with_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = AN\nchi = 0.1\nt_max = 1\nsamples = 4\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 5


def test_cli_usage_errors(capsys, tmp_path):
    assert main(["simulate"]) == 1  # no --config / --preset
    assert "error" in capsys.readouterr().err
    assert main(["simulate", "--preset", "ZZ", "--tmax", "1"]) == 1
    assert main(["sweep", "--preset", "AN", "--chi-grid", "0,0.1",
                 "--witness", "nope", "--tmax", "1", "--samples", "3"]) == 1
    assert main(["sweep", "--preset", "AN", "--chi-grid", "0;1",
                 "--witness", "var_x_A"]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n", encoding="utf-8")
    assert main(["simulate", "--config", str(bad)]) == 1
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert main(["no-such-command"]) == 1


def test_cli_table_and_sweep(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["table", "--tmax", "1", "--samples", "31", "--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 289
    out2 = tmp_path / "sweep.csv"
    assert main(["sweep", "--preset", "AN", "--chi-grid", "0,0.2",
                 "--witness", "var_x_A", "--tmax", "1", "--samples", "5",
                 "--out", str(out2)]) == 0
    assert len(out2.read_text(encoding="utf-8").splitlines()) == 11


def test_cli_table_honours_config_occupations(tmp_path):
    cfg = tmp_path / "occ.cfg"
    cfg.write_text("init_na = 0.1\ninit_nb = 0.1\ninit_nc = 0.1\nt_max = 2\nsamples = 21\n",
                   encoding="utf-8")
    out, plain = tmp_path / "occ.csv", tmp_path / "plain.csv"
    assert main(["table", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["table", "--tmax", "2", "--samples", "21", "--out", str(plain)]) == 0
    expected = io.StringIO()
    base = Scenario(params=SystemParams(), initial=initial_state(0.1, 0.1, 0.1),
                    t_max=2.0, sample_count=21)
    write_sign_matrix(table_matrix(base), expected)
    assert out.read_text(encoding="utf-8") == expected.getvalue()
    assert out.read_bytes() != plain.read_bytes()


def test_cli_sweep_with_config(tmp_path):
    sweep = ["sweep", "--chi-grid", "0,0.2", "--witness", "mandel_C", "--tmax", "2", "--samples", "5"]
    cfg, occ = tmp_path / "an.cfg", tmp_path / "occ.cfg"
    cfg.write_text("preset = AN\n", encoding="utf-8")
    occ.write_text("preset = AN\ninit_na = 0.1\ninit_nb = 0.1\ninit_nc = 0.1\n", encoding="utf-8")
    outs = {name: tmp_path / f"{name}.csv" for name in ("preset", "config", "occ")}
    assert main(sweep + ["--preset", "AN", "--out", str(outs["preset"])]) == 0
    assert main(sweep + ["--config", str(cfg), "--out", str(outs["config"])]) == 0
    assert main(sweep + ["--config", str(occ), "--out", str(outs["occ"])]) == 0
    assert outs["config"].read_bytes() == outs["preset"].read_bytes()
    assert outs["occ"].read_bytes() != outs["preset"].read_bytes()


# every config key set alone at its default value; preset has none, so AN
_DEFAULTS = {"preset": "AN", **dict(
    line.split(" = ") for line in format_config(Scenario(SystemParams())).splitlines())}
# the config keys each command reads, as README's command-line table states them
_SCENARIO_KEYS = [key for key in _DEFAULTS if key != "threshold"]
_READS = {
    "simulate": _SCENARIO_KEYS,
    "oracle-check": _SCENARIO_KEYS,
    "sweep": [key for key in _SCENARIO_KEYS if key != "chi"],
    "table": ["init_na", "init_nb", "init_nc", "t_max", "samples", "threshold"],
}
# what each command needs besides --config
_REST = {"simulate": [], "oracle-check": ["--nmax", "1"],
         "sweep": ["--chi-grid", "0", "--witness", "var_x_A"], "table": ["--chi-grid", "0"]}


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "{an}", "--preset", "AN"],
    ["sweep", "--config", "{explicit}", "--preset", "AN", "--chi-grid", "0", "--witness", "var_x_A"],
    ["table", "--preset", "AN"],
    ["table", "--config", "{an}"],
    ["table", "--chi", "0.1"],
    ["sweep", "--preset", "AN", "--chi", "0.1", "--chi-grid", "0", "--witness", "var_x_A"],
    ["simulate", "--preset", "AN", "--threshold", "1e-4"],
    ["oracle-check", "--preset", "AN", "--threshold", "1e-4"],
    ["simulate", "--preset", "AN", "--moments", "--witnesses", "mandel_A"],
    ["simulate", "--config", "{rel_tol}"],
    ["simulate", "--config", "{threshold}"],
    ["sweep", "--config", "{threshold}", "--chi-grid", "0", "--witness", "var_x_A"],
    ["oracle-check", "--config", "{threshold}", "--nmax", "1"],
    ["sweep", "--config", "{chi}", "--chi-grid", "0", "--witness", "var_x_A"],
    ["table", "--chi-grid", ","],
    ["simulate", "--preset", "AN", "--witnesses", ","],
    ["simulate", "--preset", "AN", "--witnesses", "var_x_A,mandel_A,mandel_A"],
    ["table", "--chi-grid", "0,,0.2"],
    ["simulate", "--preset", "AN", "--witnesses", "mandel_A,"],
] + [
    # a key the command does not read, set alone at its default value
    [command, "--config", f"{{default_{key}}}", *_REST[command]]
    for command, reads in _READS.items() for key in _DEFAULTS if key not in reads
])
def test_cli_rejects_inputs_it_would_not_honour(argv, tmp_path, capsys):
    configs = {"an": "preset = AN\n", "explicit": "g_a = 0.2\n",
               "rel_tol": "preset = AN\nrel_tol = 1e-9\n",
               "threshold": "preset = AN\nthreshold = 2e-4\n", "chi": "preset = AN\nchi = 0.3\n",
               **{f"default_{key}": f"{key} = {value}\n" for key, value in _DEFAULTS.items()}}
    paths = {name: tmp_path / f"{name}.cfg" for name in configs}
    for name, text in configs.items():
        paths[name].write_text(text, encoding="utf-8")
    assert main([arg.format(**paths) for arg in argv] + ["--tmax", "1", "--samples", "3"]) == 1
    err = capsys.readouterr().err
    assert "error" in err
    for key in _DEFAULTS:
        if f"{{default_{key}}}" in argv:  # rejected by name and line, whatever its value
            assert err == f"cavens: error: line 1: {argv[0]} does not read {key!r}\n"


@pytest.mark.parametrize("command, key", [
    (command, key) for command, reads in _READS.items() for key in reads
])
def test_cli_accepts_every_key_its_command_reads(command, key, tmp_path, capsys):
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{key} = {_DEFAULTS[key]}\n", encoding="utf-8")
    assert main([command, "--config", str(cfg), *_REST[command], "--tmax", "1", "--samples", "3"]) == 0
    assert "cavens: error" not in capsys.readouterr().err


@pytest.mark.parametrize("witnesses, message", [
    ("bogus", "unknown witness column(s): bogus"),
    ("var_x_A,mandel_A,mandel_A", "duplicate witness column(s): mandel_A"),
])
def test_cli_checks_the_witness_list_before_the_run(witnesses, message, monkeypatch, capsys):
    def run_scenario(scenario):
        raise AssertionError("the run started")

    monkeypatch.setattr(io_cli, "run_scenario", run_scenario)
    assert main(["simulate", "--preset", "AN", "--witnesses", witnesses]) == 1
    assert capsys.readouterr().err == f"cavens: error: {message}\n"


@pytest.mark.parametrize("argv, line", [
    (["simulate", "--preset", "AN", "--witnesses", "bogus"],
     "cavens: error: unknown witness column(s): bogus"),
    (["sweep", "--preset", "AN", "--chi-grid", "0", "--witness", "nope"],
     "cavens: error: unknown witness column 'nope'"),
])
def test_cli_prints_unknown_witness_messages_unquoted(argv, line, capsys):
    assert main(argv + ["--tmax", "1", "--samples", "3"]) == 1
    assert capsys.readouterr().err == line + "\n"


# configs whose initial occupation is not finite or is negative
_BAD_INITS = {"init_nan": "nan", "init_inf": "inf", "init_negative": "-1"}


@pytest.mark.parametrize("argv", [
    ["simulate", "--preset", "AN", "--chi", "nan"],
    ["simulate", "--preset", "AN", "--chi", "inf"],
    ["simulate", "--preset", "AN", "--tmax", "inf"],
    ["table", "--chi-grid", "nan"],
    ["sweep", "--preset", "AN", "--chi-grid", "nan", "--witness", "var_x_A"],
] + [
    # rejected by key and line
    [command, "--config", f"{{{name}}}", *_REST[command]] for command in _READS for name in _BAD_INITS
])
def test_cli_rejects_non_finite_inputs(argv, tmp_path, capsys):
    paths = {name: tmp_path / f"{name}.cfg" for name in _BAD_INITS}
    for name, value in _BAD_INITS.items():
        paths[name].write_text(f"# initial occupations\ninit_na = {value}\n", encoding="utf-8")
    assert main([arg.format(**paths) for arg in argv] + ["--samples", "5"]) == 1
    err = capsys.readouterr().err
    assert "must be finite" in err
    for name, value in _BAD_INITS.items():
        if f"{{{name}}}" in argv:
            assert err == f"cavens: error: line 2: init_na must be finite and >= 0, got {float(value)}\n"


@pytest.mark.parametrize("config, flags, message", [
    ("samples = 1", [], "line 2: samples must be >= 2"),
    ("gamma_a = -2", [], "line 2: gamma_a must be >= 0"),
    ("t_max = nan", [], "line 2: t_max must be finite and > 0"),
    ("gamma_a = -1\ngamma_b = nan", [], "line 2: gamma_a must be >= 0; line 3: gamma_b must be finite"),
    ("preset = AN\nchi = inf", [], "line 3: chi must be finite"),
    ("init_nc = -1", [], "line 2: init_nc must be finite and >= 0, got -1.0"),
    ("", ["--samples", "1"], "--samples must be >= 2"),
    ("", ["--tmax", "nan"], "--tmax must be finite and > 0"),
    ("", ["--chi", "inf"], "--chi must be finite"),
    ("", ["--nmax", "0"], "--nmax must be >= 1"),
    ("", ["--nmax", "8"], "--nmax must be <= 7: basis dimension 729 exceeds cap 512"),
    ("samples = 1000001", [], "line 2: samples must be <= 1000000"),
    ("", ["--samples", "1000000000000"], "--samples must be <= 1000000"),
    ("", ["--chi-grid", "0,nan"], "--chi-grid entry nan must be finite"),
    ("", ["--chi-grid", "inf", "--witness", "mandel_A"], "--chi-grid entry inf must be finite"),
    # a span whose samples' grid cannot increase strictly, in every command
    ("t_max = 5e-324\nsamples = 3", [], "line 2: t_max must be long enough for 3 strictly increasing samples"),
    ("", ["--tmax", "5e-324", "--samples", "3"], "--tmax must be long enough for 3 strictly increasing samples"),
    ("", ["--tmax", "5e-324", "--chi-grid", "0"], "--tmax must be long enough for 1001 strictly increasing samples"),
    ("", ["--tmax", "5e-324", "--chi-grid", "0", "--witness", "mandel_A"],
     "--tmax must be long enough for 1001 strictly increasing samples"),
    ("samples = 3\nt_max = 5e-324", ["--nmax", "1"], "line 3: t_max must be long enough for 3 strictly increasing samples"),
    # far past the work budget of tests/test_cli_fuzz.py
    ("samples = 1000000000000", ["--chi-grid", "0", "--witness", "mandel_A"], "line 2: samples must be <= 1000000"),
    ("", ["--nmax", "1000000000"], "--nmax must be <= 7: basis dimension 1000000003000000003000000001 exceeds cap 512"),
    ("", ["--tmax", "inf", "--chi-grid", "0"], "--tmax must be finite and > 0"),
    # a negative infinity or NaN is a value, in any case, not a flag
    ("", ["--chi", "-inf"], "--chi must be finite"),
    ("", ["--chi", "-NaN"], "--chi must be finite"),
    ("", ["--tmax", "-Infinity"], "--tmax must be finite and > 0"),
    ("", ["--chi-grid", "-inf,0"], "--chi-grid entry -inf must be finite"),
    ("", ["--chi-grid", "-nan,0", "--witness", "mandel_A"], "--chi-grid entry -nan must be finite"),
    # a batch's scenarios together hold at most SAMPLE_CAP samples, named by what set them
    ("", ["--samples", "250001", "--chi-grid", "0"], "--samples must be <= 250000 for 4 scenarios"),
    ("samples = 250001", ["--chi-grid", "0"], "line 2: samples must be <= 250000 for 4 scenarios"),
    ("", ["--chi-grid", "0,0.1", "--samples", "500001", "--witness", "mandel_A"],
     "--samples must be <= 500000 for 2 scenarios"),
])
def test_cli_names_a_bound_by_its_key_and_line_or_its_flag(config, flags, message, tmp_path, capsys):
    cfg = tmp_path / "bound.cfg"
    cfg.write_text(f"# a bound\n{config}\n", encoding="utf-8")
    # --nmax is oracle-check's alone; --chi-grid is table's, and sweep's beside --witness
    command = ("oracle-check" if "--nmax" in flags else "sweep" if "--witness" in flags
               else "table" if "--chi-grid" in flags else "simulate")
    assert main([command, "--config", str(cfg), *flags]) == 1
    assert capsys.readouterr().err == f"cavens: error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--preset", "AN", "--chi", "-1e-3"],
    ["sweep", "--preset", "AN", "--witness", "mandel_A", "--chi-grid", "-0.2,0.2"],
])
def test_cli_takes_a_negative_flag_value_in_any_notation(argv, capsys):
    # the same run as the value joined to its flag by "=", which argparse never reads as a flag
    assert main(argv + ["--tmax", "1", "--samples", "3"]) == 0
    separate = capsys.readouterr()
    assert main(argv[:-2] + [f"{argv[-2]}={argv[-1]}", "--tmax", "1", "--samples", "3"]) == 0
    assert capsys.readouterr() == separate
    assert separate.err == ""


def test_cli_oracle_check(tmp_path, capsys):
    # init 0.1 at n_max 3: the truncation defect (n_max+1) * P_top is about 2.7e-3
    cfg = tmp_path / "o.cfg"
    cfg.write_text("preset = AN\ninit_na = 0.1\ninit_nb = 0.1\ninit_nc = 0.1\n"
                   "t_max = 0.5\nsamples = 3\n", encoding="utf-8")
    out = tmp_path / "report.csv"
    assert main(["oracle-check", "--config", str(cfg), "--nmax", "3",
                 "--out", str(out)]) == 0
    assert out.exists()
    captured = capsys.readouterr()
    assert "max |exact - closed|" in captured.out
    assert "truncation leakage" in captured.out
    assert captured.err.startswith("cavens: warning: truncation defect")
    assert captured.err.count("\n") == 1
    # the warning goes to stderr without --out too, leaving the CSV on stdout alone
    assert main(["oracle-check", "--config", str(cfg), "--nmax", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == out.read_text(encoding="utf-8")
    assert captured.err.startswith("cavens: warning: truncation defect")


def test_cli_oracle_check_vacuum_does_not_warn(tmp_path, capsys):
    # no drive and a vacuum start: nothing leaves the vacuum, so the leakage is 0
    cfg = tmp_path / "o.cfg"
    cfg.write_text("preset = AN\nchi = 0\ninit_na = 0\ninit_nb = 0\ninit_nc = 0\n"
                   "t_max = 0.5\nsamples = 3\n", encoding="utf-8")
    assert main(["oracle-check", "--config", str(cfg), "--nmax", "3",
                 "--out", str(tmp_path / "report.csv")]) == 0
    captured = capsys.readouterr()
    assert "truncation leakage (top-level population): 0.000e+00" in captured.out
    assert captured.err == ""


def test_cli_numeric_failure_exit_code(monkeypatch, capsys):
    def boom(scenario):
        raise IntegrationError("synthetic blowup", 0.5)

    monkeypatch.setattr(io_cli, "run_scenario", boom)
    assert main(["simulate", "--preset", "AN", "--tmax", "1", "--samples", "3"]) == 2
    assert "numeric failure" in capsys.readouterr().err


_OVERFLOW = "integration failed: float64 overflow in the moments or their derivative (last good tau = 0)"


def test_cli_names_the_overflow_of_a_drive_too_strong_for_float64(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--preset", "AN", "--chi-grid", "1e300,0.1", "--witness", "mandel_A",
                 "--samples", "5", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert [row[3] for row in rows] == [f"error: {_OVERFLOW}"] * 5 + ["ok"] * 5
    assert main(["simulate", "--preset", "AN", "--chi", "1e200", "--samples", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cavens: numeric failure: {_OVERFLOW}\n"


_WITNESS_OVERFLOW = "float64 overflow in the witness arithmetic at sample 1"


def test_cli_names_the_overflow_of_witnesses_too_large_for_float64(tmp_path, capsys):
    # at chi 1e150 the moments stay finite (about 1e300), but their products overflow
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--preset", "AN", "--chi-grid", "1e150,0.1", "--witness", "mandel_A",
                 "--samples", "5", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert [row[3] for row in rows] == [f"error: {_WITNESS_OVERFLOW}"] * 5 + ["ok"] * 5
    argv = ["simulate", "--preset", "AN", "--chi", "1e150", "--samples", "3"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"cavens: numeric failure: {_WITNESS_OVERFLOW}\n")
    src = Path(io_cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "cavens", *argv],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"cavens: numeric failure: {_WITNESS_OVERFLOW}\n")


def test_one_parser_serves_commands_in_turn_like_each_alone(capsys):
    runs = (
        ["table", "--chi-grid", "0.1", "--tmax", "1", "--samples", "11"],
        ["sweep", "--preset", "AN", "--chi-grid", "0,0.1", "--witness", "var_x_A",
         "--tmax", "1", "--samples", "5"],
        ["simulate", "--preset", "AA", "--witnesses", "mandel_A", "--moments"],  # exclusive
        ["table", "--tmax", "1", "--samples", "11"],  # the default --chi-grid 0,0.2
        ["simulate", "--preset", "AA", "--moments", "--tmax", "1", "--samples", "3"],
        ["oracle-check", "--preset", "AN", "--nmax", "2", "--tmax", "0.5", "--samples", "3"],
    )

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    alone = []
    for argv in runs:
        io_cli._build_parser.cache_clear()  # a fresh parser, as in a new process
        alone.append(run(argv))
    io_cli._build_parser.cache_clear()
    assert [run(argv) for argv in runs] == alone
    assert [code for code, _, _ in alone] == [0, 0, 1, 0, 0, 0]
    assert io_cli._build_parser.cache_info().misses == 1
    parser = io_cli._build_parser()
    parser.parse_args(["oracle-check", "--preset", "AN", "--nmax", "2"])
    assert parser.parse_args(["oracle-check", "--preset", "AN"]).nmax == 6
    assert parser.parse_args(["table"]).chi_grid == "0,0.2"
