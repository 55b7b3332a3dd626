import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cavens.dynamics as dynamics
from cavens.dynamics import (
    IntegrationError,
    NoSteadyStateError,
    conjugate_closure_defect,
    coefficient_matrix,
    integrate,
    integrate_batch,
    steady_state_first_moments,
)
from cavens.model import (
    Moment,
    MomentState,
    Scenario,
    SystemParams,
    conjugate_mismatch,
    initial_state,
    occupation_defect,
    preset_params,
)
from cavens.witnesses import witness_table
from conftest import make_random_state, system_params


def _rhs(state: MomentState, p: SystemParams) -> np.ndarray:
    """Time derivative ``M s + b`` of all 27 moments."""
    M, b = coefficient_matrix(p)
    return M @ state.values + b


@settings(deadline=None)
@given(system_params)
@example(SystemParams(delta_a=0.7, delta_b=1.3, delta_c=0.9, g_a=0.31, g_b=0.17,
                      chi=0.23, gamma_a=1.1, gamma_b=0.6, gamma_c=0.05,
                      n_a=0.4, n_b=0.0, n_c=0.2))
def test_equations_closed_under_conjugation(p):
    for cfg in ("AA", "AN", "NA", "NN"):
        for chi in (0.0, 0.2):
            assert conjugate_closure_defect(preset_params(cfg, chi)) == 0.0
    assert conjugate_closure_defect(p) == 0.0


def test_rhs_at_zero_state_is_the_source():
    p = SystemParams(delta_a=0.9, delta_b=1.2, delta_c=1.0, g_a=0.2, g_b=0.05,
                     chi=0.2, gamma_a=1.5, gamma_b=0.3, gamma_c=0.2,
                     n_a=0.25, n_b=0.1, n_c=0.0)
    d = _rhs(MomentState.zeros(), p)
    assert d[Moment.A] == -0.2j
    assert d[Moment.Ad] == 0.2j
    assert d[Moment.AA] == 0.0  # drive enters <A2> only through <A>
    assert d[Moment.AdA] == p.gamma_a * p.n_a
    assert d[Moment.BdB] == p.gamma_b * p.n_b
    assert d[Moment.CdC] == 0.0
    expected_nonzero = {Moment.A, Moment.Ad, Moment.AdA, Moment.BdB}
    assert {i for i in range(27) if d[i] != 0} == expected_nonzero


def test_rhs_single_cavity_amplitude():
    p = SystemParams(delta_a=1, delta_b=1, delta_c=1, g_a=0.2, g_b=0.02,
                     gamma_a=0, gamma_b=0, gamma_c=0)
    s = MomentState.zeros().with_slot(Moment.C, 1.0)
    d = _rhs(s, p)
    assert d[Moment.A] == pytest.approx(-0.2j)
    assert d[Moment.B] == pytest.approx(-0.02j)
    assert d[Moment.C] == pytest.approx(-1j)
    others = [d[i] for i in range(27) if i not in (Moment.A, Moment.B, Moment.C)]
    assert all(z == 0 for z in others)


def test_rhs_preserves_conjugate_consistency(rng):
    # closed under Hermitian conjugation; matmul summation order costs ~1 ulp
    p = preset_params("AN", 0.2)
    for _ in range(20):
        s = make_random_state(rng)
        assert conjugate_mismatch(_rhs(s, p)) < 1e-13


def test_rhs_linearity(rng):
    hom = SystemParams(delta_a=0.8, delta_b=1.1, delta_c=1.0, g_a=0.2, g_b=0.1,
                       gamma_a=0.5, gamma_b=0.4, gamma_c=0.3)
    s1, s2 = make_random_state(rng), make_random_state(rng)
    alpha = 0.37 - 1.2j
    lhs = _rhs(MomentState(alpha * s1.values + s2.values), hom)
    np.testing.assert_allclose(lhs, alpha * _rhs(s1, hom) + _rhs(s2, hom),
                               rtol=0, atol=1e-12)


@settings(deadline=None)
@given(system_params, st.integers(0, 2**32 - 1))
@example(SystemParams(delta_a=0.9, delta_b=1.1, delta_c=1.0, g_a=0.23, g_b=0.077,
                      chi=0.31, gamma_a=1.7, gamma_b=0.4, gamma_c=0.26,
                      n_a=0.15, n_b=0.05, n_c=0.3), 20240901)
def test_rhs_matches_lindblad_generator(p, seed):
    """Every one of the 27 equations against the master-equation derivative.

    Random density matrices supported on two levels per mode keep all traces
    exact on an n_max = 3 basis, so the comparison pins each coefficient to
    machine precision, on random valid parameters.
    """
    from cavens.oracle import FockBasisSpec, build_generator, moments_from_density

    spec = FockBasisSpec(3)
    M, b = coefficient_matrix(p)
    L = build_generator(p, spec)
    ld = spec.local_dim
    idx = np.array([(na * ld + nb) * ld + nc
                    for na in range(2) for nb in range(2) for nc in range(2)])
    rng = np.random.default_rng(seed)
    for _ in range(3):
        G = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        small = G @ G.conj().T
        small /= np.trace(small)
        rho = np.zeros((spec.dim, spec.dim), dtype=complex)
        rho[np.ix_(idx, idx)] = small
        s = moments_from_density(rho, spec)
        drho = L.apply(rho)
        lindblad = moments_from_density(drho, spec)
        np.testing.assert_allclose(lindblad, M @ s + b, rtol=0, atol=1e-12)


def test_integrate_free_rotation():
    p = SystemParams(delta_a=1.0, delta_b=0.0, delta_c=0.0)
    init = MomentState.zeros().with_slot(Moment.A, 1.0).with_slot(Moment.Ad, 1.0)
    traj = integrate(Scenario(params=p, initial=init, t_max=np.pi / 2, sample_count=101))
    assert abs(traj.states[-1, Moment.A] - (-1j)) < 1e-8


def test_integrate_pure_decay():
    p = SystemParams(delta_a=0, delta_b=0, delta_c=0, gamma_a=2.0)
    traj = integrate(Scenario(params=p, initial=initial_state(1, 0, 0),
                              t_max=1.0, sample_count=11))
    assert abs(traj.states[-1, Moment.AdA] - 0.1353352832366127) < 1e-7


def test_integrate_grid_and_determinism():
    sc = Scenario(params=preset_params("AN", 0.2), t_max=3.0, sample_count=61)
    t1, t2 = integrate(sc), integrate(sc)
    assert len(t1) == 61
    assert t1.taus[0] == 0.0 and t1.taus[-1] == 3.0
    assert np.all(np.diff(t1.taus) > 0)
    np.testing.assert_array_equal(t1.states[0], sc.initial.values)
    np.testing.assert_array_equal(t1.states, t2.states)


def test_excitation_conservation_without_damping():
    p = SystemParams(delta_a=1, delta_b=1, delta_c=1, g_a=0.2, g_b=0.02)
    traj = integrate(Scenario(params=p, initial=initial_state(1, 1, 1)))
    total = (traj.states[:, Moment.AdA] + traj.states[:, Moment.BdB]
             + traj.states[:, Moment.CdC])
    assert np.abs(total - total[0]).max() < 1e-8


def test_relaxation_to_vacuum_and_thermal_fixed_point():
    traj = integrate(Scenario(params=preset_params("NN", 0.0),
                              t_max=200.0, sample_count=401))
    assert np.abs(traj.states[-1]).max() < 1e-6

    p = SystemParams(delta_a=1, delta_b=0, delta_c=0, gamma_a=1.0, n_a=0.3)
    traj = integrate(Scenario(params=p, t_max=200.0, sample_count=401))
    assert abs(traj.states[-1, Moment.AdA] - 0.3) < 1e-8


def test_conjugate_consistency_along_trajectories():
    for cfg in ("AN", "NA"):
        traj = integrate(Scenario(params=preset_params(cfg, 0.2),
                                  t_max=10.0, sample_count=201))
        worst = conjugate_mismatch(traj.states)
        assert worst < 1e-10


_occupation = st.floats(0.0, 2.0)


@settings(deadline=None)
@given(system_params, _occupation, _occupation, _occupation)
def test_invariants_hold_on_random_parameters(p, n_a0, n_b0, n_c0):
    """Random valid parameters keep every sample conjugate-consistent and physical."""
    traj = integrate(Scenario(params=p, initial=initial_state(n_a0, n_b0, n_c0),
                              t_max=5.0, sample_count=51))
    assert conjugate_mismatch(traj.states) < 1e-8
    assert occupation_defect(traj.states) < 1e-8
    witness_table(traj.states)  # raises on an imaginary residue or a non-finite value


def test_steady_state_homogeneous_is_zero():
    assert steady_state_first_moments(preset_params("AN", 0.0)) == (0, 0, 0)


def test_steady_state_single_mode_closed_form():
    p = SystemParams(delta_a=1.0, delta_b=1.0, delta_c=1.0, gamma_a=2.0, chi=0.2)
    a, b, c = steady_state_first_moments(p)
    assert abs(a - (-0.1 - 0.1j)) < 1e-12
    assert b == 0 and c == 0


def test_steady_state_matches_long_time_integration():
    p = preset_params("AN", 0.2)
    ss = np.array(steady_state_first_moments(p))
    traj = integrate(Scenario(params=p, t_max=200.0, sample_count=401))
    got = traj.states[-1, [Moment.A, Moment.B, Moment.C]]
    assert np.abs(got - ss).max() < 1e-6


def test_steady_state_singular_raises():
    p = SystemParams(delta_a=0, delta_b=0, delta_c=0)
    with pytest.raises(NoSteadyStateError):
        steady_state_first_moments(p)


_POISONS = (
    # a NaN source: the first step size is NaN, and no step is ever taken
    (lambda M, b: (M, np.full(27, np.nan)), 0.0),
    # growth at rate 100 overflows after tau 7.09; every later step is rejected
    (lambda M, b: (100 * np.eye(27), b), 7.0),
)


def test_integration_failure_carries_last_time(monkeypatch):
    system = dynamics._cached_system
    for poison, last_tau in _POISONS:
        monkeypatch.setattr(dynamics, "_cached_system", lambda p, poison=poison: poison(*system(p)))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(IntegrationError) as err:
            integrate(Scenario(params=preset_params("AN", 0.0), t_max=10.0, sample_count=101))
        assert str(err.value) == ("integration failed: Required step size is less than spacing "
                                  f"between numbers. (last good tau = {last_tau:g})")
        assert err.value.last_tau == last_tau


def _solve_ivp_states(scenario: Scenario) -> np.ndarray:
    """The trajectory as scipy's RK45 gives it at the tolerances ``integrate`` uses."""
    from scipy.integrate import solve_ivp

    M, b = coefficient_matrix(scenario.params)
    sol = solve_ivp(lambda _t, y: M @ y + b, (0.0, scenario.t_max), scenario.initial.values,
                    method="RK45", rtol=1e-9, atol=1e-10,
                    t_eval=np.linspace(0.0, scenario.t_max, scenario.sample_count))
    assert sol.success
    return np.ascontiguousarray(sol.y.T)


@pytest.mark.parametrize("t_max, samples", [(10.0, 101), (200.0, 21), (10.0, 1001)])
@pytest.mark.parametrize("chi", [0.0, 0.2])
@pytest.mark.parametrize("cfg", ["AA", "AN", "NA", "NN"])
def test_integrate_is_bitwise_solve_ivp(cfg, chi, t_max, samples):
    sc = Scenario(params=preset_params(cfg, chi), t_max=t_max, sample_count=samples)
    np.testing.assert_array_equal(integrate(sc).states.view(np.uint64),
                                  _solve_ivp_states(sc).view(np.uint64))


@settings(deadline=None, max_examples=50)
@given(system_params, _occupation, _occupation, _occupation)
def test_integrate_is_bitwise_solve_ivp_on_random_parameters(p, n_a0, n_b0, n_c0):
    sc = Scenario(params=p, initial=initial_state(n_a0, n_b0, n_c0), t_max=5.0, sample_count=51)
    np.testing.assert_array_equal(integrate(sc).states.view(np.uint64),
                                  _solve_ivp_states(sc).view(np.uint64))


_presets = st.sampled_from(["AA", "AN", "NA", "NN"])
_member = st.tuples(_presets, st.floats(0.0, 0.4), _occupation, _occupation, _occupation)


@settings(deadline=None, max_examples=30)
@given(st.lists(_member, min_size=1, max_size=9),
       st.sampled_from([(5.0, 51), (10.0, 101), (40.0, 21), (10.0, 501), (200.0, 21)]))
def test_batch_members_are_bitwise_alone(members, grid):
    t_max, samples = grid
    scenarios = [Scenario(params=preset_params(cfg, chi), initial=initial_state(na, nb, nc),
                          t_max=t_max, sample_count=samples) for cfg, chi, na, nb, nc in members]
    for scenario, traj in zip(scenarios, integrate_batch(scenarios)):
        np.testing.assert_array_equal(traj.states.view(np.uint64),
                                      integrate(scenario).states.view(np.uint64))


def test_poisoned_batch_member_fails_alone_without_warnings(monkeypatch):
    system = dynamics._cached_system
    # at 1001 samples the growing member fails with interpolants still waiting to be written
    for samples, last_taus in ((101, [tau for _, tau in _POISONS]), (1001, [0.0, 7.03])):
        grid = dict(t_max=10.0, sample_count=samples)
        healthy = [Scenario(params=preset_params(cfg, 0.2), **grid) for cfg in ("AA", "NA", "NN")]
        expected = [integrate(sc).states for sc in healthy]
        target = Scenario(params=preset_params("AN", 0.0), **grid)
        for (poison, _), last_tau in zip(_POISONS, last_taus):
            def poisoned(p, poison=poison, target=target):
                return poison(*system(p)) if p == target.params else system(p)

            monkeypatch.setattr(dynamics, "_cached_system", poisoned)
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(IntegrationError) as alone:
                integrate(target)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                results = integrate_batch([healthy[0], target, *healthy[1:]])
            failed = results.pop(1)
            assert isinstance(failed, IntegrationError)
            assert str(failed) == str(alone.value)
            assert failed.last_tau == alone.value.last_tau == last_tau
            for traj, states in zip(results, expected):
                np.testing.assert_array_equal(traj.states.view(np.uint64), states.view(np.uint64))


def test_overflowing_batch_member_fails_alone_without_warnings():
    # chi 1e300 overflows the first derivative's scaled norm before the first step
    grid = dict(t_max=10.0, sample_count=5)
    healthy = Scenario(params=preset_params("AN", 0.1), **grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        failed, traj = integrate_batch([Scenario(params=preset_params("AN", 1e300), **grid), healthy])
    assert isinstance(failed, IntegrationError)
    assert failed.last_tau == 0.0
    np.testing.assert_array_equal(traj.states.view(np.uint64), integrate(healthy).states.view(np.uint64))


def test_batch_rejects_mixed_grids():
    p = preset_params("AN", 0.2)
    with pytest.raises(ValueError, match="share t_max and sample_count"):
        integrate_batch([Scenario(params=p, t_max=1.0, sample_count=11),
                         Scenario(params=p, t_max=2.0, sample_count=11)])
    with pytest.raises(ValueError, match="share t_max and sample_count"):
        integrate_batch([Scenario(params=p, t_max=1.0, sample_count=11),
                         Scenario(params=p, t_max=1.0, sample_count=21)])
    assert integrate_batch([]) == []
