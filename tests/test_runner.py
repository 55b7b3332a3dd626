import numpy as np
import pytest

import cavens.runner as runner_mod
from cavens.dynamics import IntegrationError, Trajectory
from cavens.model import Moment, Scenario, SystemParams, preset_params
from cavens.runner import CELLS, SIGN_ROWS, chi_sweep, run_scenario, table_matrix
from cavens.witnesses import WITNESS_NAMES, InternalConsistencyError, witness_table


def test_zero_parameter_scenario_constant_witnesses():
    sc = Scenario(params=SystemParams(), sample_count=41, t_max=5.0)
    _, series = run_scenario(sc)
    for name in WITNESS_NAMES:
        col = series.column(name)
        np.testing.assert_allclose(col, col[0], rtol=0, atol=1e-12)


def test_run_scenario_deterministic():
    sc = Scenario(params=preset_params("NA", 0.2), sample_count=101, t_max=4.0)
    (_, s1), (_, s2) = run_scenario(sc), run_scenario(sc)
    for name in ("mandel_A", "hz_e_AB", "steering_CA", "bisep_eprime_AC_B"):
        np.testing.assert_array_equal(s1.column(name), s2.column(name))


def test_series_grid_alignment_and_unknown_column():
    sc = Scenario(params=preset_params("AN", 0.0), sample_count=11, t_max=1.0)
    traj, series = run_scenario(sc)
    assert len(series) == len(traj) == 11
    np.testing.assert_array_equal(series.taus, traj.taus)
    with pytest.raises(KeyError):
        series.column("not_a_witness")


def test_antinode_mode_decays_faster_than_node_mode():
    # the driven ensemble damps quickly at the antinode (AN) and slowly at the node (NA)
    occ = {}
    for cfg in ("AN", "NA"):
        traj, _ = run_scenario(Scenario(params=preset_params(cfg, 0.0),
                                        t_max=2.0, sample_count=21))
        occ[cfg] = traj.states[-1, Moment.AdA].real
    assert occ["AN"] < occ["NA"]


@pytest.fixture(scope="module")
def small_matrix():
    return table_matrix(Scenario(params=SystemParams(), t_max=5.0, sample_count=251))


def test_table_matrix_shape_and_evidence(small_matrix):
    m = small_matrix
    assert m.columns == tuple((config, chi) for config in ("AA", "AN", "NA", "NN")
                              for chi in (0.0, 0.2))
    # 36 cells per (configuration, chi) column
    assert m.ticks.shape == m.min_value.shape == m.argmin_tau.shape == (8, 36)
    assert len(CELLS) == sum(len(keys) for _, keys, _, _ in SIGN_ROWS) == 36
    boundary = np.array([0.25 if row.startswith("squeeze") else 0.0 for row, _ in CELLS])
    scored = np.isfinite(m.min_value)
    assert not m.ticks[~scored].any()
    np.testing.assert_array_equal(m.ticks[scored],
                                  (m.min_value < boundary - m.threshold)[scored])
    assert np.all((m.argmin_tau[scored] > 0.0) & (m.argmin_tau[scored] <= m.t_max))


def test_table_matrix_known_cells(small_matrix):
    # cells that the physical moment dynamics pins down from occupation-only
    # initial data: no spurious dips anywhere near these witnesses
    m = small_matrix
    assert not m.tick("NA", 0.0, "antibunch_pair", "AC")
    assert not m.tick("NA", 0.0, "steering", "AB")
    assert not m.tick("NN", 0.0, "steering", "AB")
    assert not m.tick("NN", 0.0, "steering", "BA")
    for part in ("AB|C", "BC|A", "AC|B"):
        for chi in (0.0, 0.2):
            assert not m.tick("NA", chi, "bisep_e", part)
    with pytest.raises(KeyError):
        m.tick("NA", 0.7, "steering", "AB")
    with pytest.raises(KeyError):
        m.tick("NA", 0.0, "steering", "AA")


def test_table_matrix_threshold_validation():
    with pytest.raises(ValueError):
        table_matrix(Scenario(params=SystemParams(), threshold=0.0))


def test_table_matrix_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="non-empty"):
        table_matrix(Scenario(params=SystemParams(), t_max=1.0, sample_count=11), [])


def test_table_matrix_reads_a_chi_iterator_once():
    base = Scenario(params=SystemParams(), t_max=1.0, sample_count=11)
    once, grid = table_matrix(base, iter([0.0, 0.2])), table_matrix(base, (0.0, 0.2))
    assert once.columns == grid.columns
    assert len(once.columns) == 8
    for field in ("ticks", "min_value", "argmin_tau"):
        np.testing.assert_array_equal(getattr(once, field), getattr(grid, field))


def test_sweep_single_point_matches_run_scenario():
    surface = chi_sweep(Scenario(params=preset_params("AN"), t_max=2.0, sample_count=41),
                        [0.2], "var_x_A")
    sc = Scenario(params=preset_params("AN", 0.2), t_max=2.0, sample_count=41)
    _, series = run_scenario(sc)
    np.testing.assert_array_equal(surface.values[0], series.column("var_x_A"))
    assert surface.status == ("ok",)


def test_sweep_permutation_only_permutes_rows():
    base = Scenario(params=preset_params("NA"), t_max=1.5, sample_count=31)
    fwd = chi_sweep(base, [0.0, 0.1], "hz_e_AB")
    rev = chi_sweep(base, [0.1, 0.0], "hz_e_AB")
    np.testing.assert_array_equal(fwd.values[0], rev.values[1])
    np.testing.assert_array_equal(fwd.values[1], rev.values[0])


def test_sweep_min_variance_non_increasing_with_drive():
    surface = chi_sweep(Scenario(params=preset_params("AN"), t_max=10.0, sample_count=501),
                        [0.0, 0.1, 0.2], "var_x_A")
    mins = surface.values[:, 1:].min(axis=1)
    assert np.all(np.diff(mins) <= 1e-8)  # slack at integrator accuracy


_AN_SHORT = Scenario(params=preset_params("AN"), t_max=1.0, sample_count=11)


def test_sweep_validates_input():
    with pytest.raises(KeyError):
        chi_sweep(_AN_SHORT, [0.0], "nope")
    with pytest.raises(ValueError):
        chi_sweep(_AN_SHORT, [], "var_x_A")


def test_sweep_rejects_an_invalid_row_before_running_any(monkeypatch):
    ran = []
    monkeypatch.setattr(runner_mod, "integrate_batch", ran.append)
    with pytest.raises(ValueError, match="chi must be finite"):
        chi_sweep(_AN_SHORT, [0.1, float("nan")], "var_x_A")
    assert ran == []


def _replacing_row(monkeypatch, chi, replace):
    """Route the sweep's batch through ``replace(result)`` for the row at ``chi``."""
    real = runner_mod.integrate_batch

    def batch(scenarios):
        scenarios = list(scenarios)
        return [replace(result) if sc.params.chi == chi else result
                for sc, result in zip(scenarios, real(scenarios))]

    monkeypatch.setattr(runner_mod, "integrate_batch", batch)


def test_sweep_keeps_partial_results(monkeypatch):
    _replacing_row(monkeypatch, 0.1, lambda _: IntegrationError("synthetic failure", 0.5))
    surface = chi_sweep(_AN_SHORT, [0.0, 0.1], "var_x_A")
    assert surface.status[0] == "ok"
    assert surface.status[1].startswith("error:")
    assert np.all(np.isfinite(surface.values[0]))
    assert np.all(np.isnan(surface.values[1]))


def test_sweep_propagates_programming_errors(monkeypatch):
    real = runner_mod.integrate_batch

    def buggy(scenarios):
        scenarios = list(scenarios)
        if any(sc.params.chi == 0.1 for sc in scenarios):
            raise TypeError("synthetic bug")
        return real(scenarios)

    monkeypatch.setattr(runner_mod, "integrate_batch", buggy)
    with pytest.raises(TypeError, match="synthetic bug"):
        chi_sweep(_AN_SHORT, [0.0, 0.1], "var_x_A")


def _drifted(traj):
    states = traj.states.copy()
    states[7, Moment.AA] += 1e-6j  # <AA> no longer conj(<AdAd>) at sample 7
    return Trajectory(traj.taus, states)


def test_sweep_row_with_inconsistent_sample_fails_alone(monkeypatch):
    _replacing_row(monkeypatch, 0.1, _drifted)
    surface = chi_sweep(_AN_SHORT, [0.0, 0.1, 0.2], "hz_e_AB")
    assert surface.status[0] == surface.status[2] == "ok"
    assert surface.status[1].startswith("error:")
    assert "imaginary residue" in surface.status[1]
    assert np.all(np.isnan(surface.values[1]))
    assert np.all(np.isfinite(surface.values[[0, 2]]))


def _broken(traj, sample, slot):
    states = traj.states.copy()
    states[sample, slot] += 1e-6j  # the slot no longer conjugate to its partner there
    return Trajectory(traj.taus, states)


def test_failing_members_get_their_own_errors_from_one_stacked_evaluation(monkeypatch):
    scenarios = [Scenario(params=preset_params("AN", chi), t_max=2.0, sample_count=21)
                 for chi in (0.0, 0.1, 0.2, 0.3, 0.4)]
    breaks = {1: (7, Moment.ABd), 3: (4, Moment.AA)}
    trajectories = [_broken(traj, *breaks[i]) if i in breaks else traj
                    for i, traj in enumerate(runner_mod.integrate_batch(scenarios))]
    alone = []
    for traj in trajectories:
        try:
            alone.append(witness_table(traj.states))
        except InternalConsistencyError as exc:
            alone.append(str(exc))
    assert [isinstance(a, str) for a in alone] == [False, True, False, True, False]
    # different witnesses and samples, each the first check that fails alone
    assert alone[1].startswith("antibunch_AB has") and "at sample 7 " in alone[1]
    assert alone[3].startswith("antibunch_A has") and "at sample 4 " in alone[3]

    calls = []

    def spy(states):
        calls.append(states.shape)
        return witness_table(states)

    monkeypatch.setattr(runner_mod, "integrate_batch", lambda _: list(trajectories))
    monkeypatch.setattr(runner_mod, "witness_table", spy)
    results = runner_mod._witness_tables(scenarios)
    assert calls == [(5, 21, 27)]
    for result, expected in zip(results, alone):
        if isinstance(expected, str):
            assert isinstance(result, InternalConsistencyError)
            assert str(result) == expected
        else:
            np.testing.assert_array_equal(result.view(np.uint64), expected.view(np.uint64))


def test_known_defect_an_sweep_rows_keep_their_first_failure():
    # RK45 conjugate drift at t_max 200; each row reports its earliest check by the catalog's order
    surface = chi_sweep(Scenario(params=preset_params("AN"), t_max=200.0, sample_count=21),
                        [0.075, 0.1, 0.175, 0.2, 0.3, 0.4], "mandel_C")
    assert surface.status == tuple(
        f"error: var_x_A has imaginary residue {residue} at sample {sample} (state inconsistent)"
        for residue, sample in (("1.373e-10", 13), ("1.615e-10", 19), ("-1.219e-10", 16),
                                ("1.094e-10", 14), ("1.076e-10", 15), ("1.399e-10", 18))
    )
