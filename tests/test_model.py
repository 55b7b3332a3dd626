import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cavens
from cavens.dynamics import integrate_batch
from cavens.model import (
    Configuration,
    Moment,
    MomentState,
    Scenario,
    SystemParams,
    conjugate_mismatch,
    initial_state,
    occupation_defect,
    occupations,
    preset_params,
    validate_params,
)
from cavens.runner import table_matrix
from cavens.witnesses import witness_table


def test_preset_an():
    p = preset_params("AN", 0.2)
    assert (p.g_a, p.g_b) == (0.2, 0.02)
    assert (p.gamma_a, p.gamma_b, p.gamma_c) == (2.0, 0.2, 0.2)
    assert p.chi == 0.2
    assert (p.delta_a, p.delta_b, p.delta_c) == (1.0, 1.0, 1.0)
    assert (p.n_a, p.n_b, p.n_c) == (0.0, 0.0, 0.0)


def test_preset_na():
    p = preset_params("NA", 0.0)
    assert (p.g_a, p.g_b) == (0.02, 0.2)
    assert (p.gamma_a, p.gamma_b, p.gamma_c) == (0.2, 2.0, 0.2)
    assert p.chi == 0.0


def test_preset_nn():
    p = preset_params("NN", 0.2)
    assert (p.g_a, p.g_b) == (0.02, 0.02)
    assert (p.gamma_a, p.gamma_b, p.gamma_c) == (0.2, 0.2, 0.2)
    assert p.chi == 0.2


def test_preset_aa_and_determinism():
    p1 = preset_params(Configuration.AA, 0.1)
    p2 = preset_params("aa", 0.1)
    assert p1 == p2
    assert (p1.g_a, p1.g_b, p1.gamma_a, p1.gamma_b) == (0.2, 0.2, 2.0, 2.0)


def test_presets_validate_clean():
    for cfg in ("AA", "AN", "NA", "NN"):
        assert validate_params(preset_params(cfg, 0.2)) == []


def test_preset_rejects_unknown_label():
    with pytest.raises(ValueError, match="unknown configuration"):
        preset_params("XY", 0.0)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def test_negative_chi_is_the_parity_image_of_chi():
    """A, B, C -> -A, -B, -C maps chi onto -chi: from a zero-mean start the
    means are exactly negated, and every other moment, every witness and
    the sign matrix keep their bits."""
    base = Scenario(params=SystemParams(), t_max=20.0, sample_count=201)
    runs = [replace(base, params=preset_params(config, sign * chi))
            for config in Configuration for chi in (0.05, 0.2, 1.3) for sign in (1, -1)]
    trajectories = integrate_batch(runs)
    for plus, minus in zip(trajectories[::2], trajectories[1::2]):
        assert np.array_equal(minus.states[:, :6], -plus.states[:, :6])
        assert np.array_equal(_bits(minus.states[:, 6:]), _bits(plus.states[:, 6:]))
        assert np.array_equal(_bits(witness_table(minus.states)), _bits(witness_table(plus.states)))
    plus, minus = table_matrix(base, (0.1, 0.3)), table_matrix(base, (-0.1, -0.3))
    assert np.array_equal(minus.ticks, plus.ticks)
    assert np.array_equal(_bits(minus.min_value), _bits(plus.min_value))


def test_cli_takes_a_negative_drive_without_a_warning(tmp_path):
    src = Path(cavens.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "cavens", "table", "--chi-grid", "-0.1", "--samples", "3"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)))
    assert (proc.returncode, proc.stderr) == (0, "")


def test_initial_state_unit_occupations():
    s = initial_state(1.0, 1.0, 1.0)
    assert s[Moment.AdA] == 1.0
    assert s[Moment.BdB] == 1.0
    assert s[Moment.CdC] == 1.0
    others = [s[i] for i in range(27) if i not in (Moment.AdA, Moment.BdB, Moment.CdC)]
    assert all(z == 0 for z in others)
    assert conjugate_mismatch(s.values) == 0.0
    assert occupation_defect(s.values) == 0.0


def test_initial_state_vacuum_and_scaled():
    assert np.all(initial_state(0, 0, 0).values == 0)
    s = initial_state(0.2, 0.2, 0.2)
    assert s[Moment.BdB] == 0.2


def test_initial_state_rejects_negative():
    with pytest.raises(ValueError, match="n_b0"):
        initial_state(0.0, -0.1, 0.0)


def test_validate_params_reports_each_violation():
    assert "gamma_a must be >= 0" in validate_params(SystemParams(gamma_a=-1.0))
    assert "n_a must be >= 0" in validate_params(SystemParams(n_a=-0.5))
    assert validate_params(SystemParams(delta_a=0, delta_b=0, delta_c=0)) == []
    assert "chi must be finite" in validate_params(SystemParams(chi=float("inf")))


def test_moment_state_shape_checked():
    with pytest.raises(ValueError):
        MomentState(np.zeros(26))


def test_moment_state_immutable():
    s = initial_state(1, 1, 1)
    with pytest.raises(ValueError):
        s.values[0] = 1.0


def test_scenario_invariants():
    p = preset_params("AN", 0.0)
    with pytest.raises(ValueError):
        Scenario(params=p, t_max=0.0)
    with pytest.raises(ValueError):
        Scenario(params=p, sample_count=1)
    with pytest.raises(ValueError):
        Scenario(params=p, t_max=np.inf)
    with pytest.raises(ValueError):
        Scenario(params=p, threshold=0.0)


@pytest.mark.parametrize("changes", [
    dict(chi=np.nan), dict(chi=np.inf), dict(delta_a=-np.inf), dict(gamma_c=-0.1), dict(n_b=np.nan),
])
def test_scenario_rejects_invalid_params(changes):
    # the integrator never returns on a non-finite right-hand side
    with pytest.raises(ValueError, match="must be"):
        Scenario(params=preset_params("AN", 0.2)).with_params(**changes)


def test_invariant_checks_take_a_stack():
    states = np.stack([initial_state(1, 1, 1).values] * 3)
    assert conjugate_mismatch(states) == 0.0
    assert occupation_defect(states) == 0.0
    states[1, Moment.AB] = 0.5  # <AB> no longer conj(<AdBd>) = 0
    states[2, Moment.BdB] = -0.25 + 1e-3j
    assert conjugate_mismatch(states) == 0.5
    assert occupation_defect(states) == 0.25
    assert conjugate_mismatch(states[0]) == occupation_defect(states[0]) == 0.0


def test_occupations_reads_only_occupation_states():
    assert occupations(initial_state(0.2, 0.5, 0.0)) == (0.2, 0.5, 0.0)
    with pytest.raises(ValueError, match="phase-insensitive"):
        occupations(initial_state(1, 1, 1).with_slot(Moment.ABd, 0.1j))
