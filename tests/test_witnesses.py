import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cavens.witnesses as witnesses_mod
from cavens.closure import decouple3, decouple4, number_triple_product, pair_moment
from cavens.model import Moment, MomentState, Scenario, initial_state, preset_params
from cavens.runner import run_scenario
from cavens.witnesses import (
    MODE_KEYS,
    WITNESS_NAMES,
    InternalConsistencyError,
    antibunch_inter,
    antibunch_single,
    bisep,
    duan,
    hz_pair,
    intermodal_quadrature_variances,
    mandel_q,
    quadrature_variances,
    steering,
    witness_table,
)
from conftest import make_coherent_state, make_random_state, rotate_mode_a

VACUUM = initial_state(0, 0, 0)
UNIT = initial_state(1, 1, 1)


def test_mandel_values():
    assert mandel_q(make_coherent_state(0.7 - 0.2j, 0, 0), "A") == pytest.approx(0.0, abs=1e-12)
    assert mandel_q(UNIT, "A") == pytest.approx(1.0, abs=1e-14)
    assert math.isnan(mandel_q(VACUUM, "B"))


def test_antibunch_single_values():
    assert antibunch_single(make_coherent_state(1.0, 0, 0), "A") == pytest.approx(0.0, abs=1e-14)
    assert antibunch_single(UNIT, "C") == pytest.approx(1.0, abs=1e-14)


def test_antibunch_identity_with_mandel(rng):
    for _ in range(20):
        s = make_random_state(rng)
        q = mandel_q(s, "A")
        occ = s[Moment.AdA].real
        assert abs(antibunch_single(s, "A") - q * occ) < 1e-12


def test_antibunch_inter_values():
    assert antibunch_inter(UNIT, ("A", "B")) == pytest.approx(0.0, abs=1e-14)
    coh = make_coherent_state(1.0, 1.0, 0.0)
    assert antibunch_inter(coh, ("A", "B")) == pytest.approx(0.0, abs=1e-13)


def test_quadrature_variances_values():
    assert quadrature_variances(VACUUM, "A") == (pytest.approx(0.25), pytest.approx(0.25))
    assert quadrature_variances(UNIT, "B") == (pytest.approx(0.75), pytest.approx(0.75))


def test_intermodal_quadrature_values():
    vx, vy = intermodal_quadrature_variances(VACUUM, ("A", "C"))
    assert (vx, vy) == (pytest.approx(0.25), pytest.approx(0.25))
    vx, vy = intermodal_quadrature_variances(UNIT, ("A", "C"))
    assert (vx, vy) == (pytest.approx(0.75), pytest.approx(0.75))


def test_duan_values():
    assert duan(VACUUM, ("A", "B")) == pytest.approx(0.0, abs=1e-14)
    assert duan(UNIT, ("B", "C")) == pytest.approx(4.0, abs=1e-14)


def test_hz_values():
    coh = make_coherent_state(1.0, 1.0, 1.0)
    e, et = hz_pair(coh, ("A", "B"))
    assert e == pytest.approx(0.0, abs=1e-13)
    assert et == pytest.approx(0.0, abs=1e-13)
    e, et = hz_pair(UNIT, ("A", "B"))
    assert (e, et) == (pytest.approx(1.0), pytest.approx(1.0))


def test_steering_values_and_asymmetry(rng):
    coh = make_coherent_state(1.0, 1.0, 0.0)
    assert steering(coh, ("A", "B")) == pytest.approx(0.5, abs=1e-13)
    assert steering(UNIT, ("B", "A")) == pytest.approx(1.5, abs=1e-14)
    for _ in range(20):
        s = make_random_state(rng)
        lhs = steering(s, ("A", "C")) - steering(s, ("C", "A"))
        rhs = (s[Moment.AdA].real - s[Moment.CdC].real) / 2
        assert abs(lhs - rhs) < 1e-12


def test_bisep_values():
    assert bisep(VACUUM, ("A", "B", "C")) == (pytest.approx(0.0), pytest.approx(0.0))
    e, ep = bisep(UNIT, ("A", "B", "C"))
    assert (e, ep) == (pytest.approx(1.0), pytest.approx(1.0))
    with pytest.raises(ValueError):
        bisep(UNIT, ("A", "B", "B"))


def test_pair_swap_symmetry(rng):
    s = make_random_state(rng)
    assert antibunch_inter(s, ("A", "B")) == pytest.approx(antibunch_inter(s, ("B", "A")), abs=1e-12)
    assert duan(s, ("B", "C")) == pytest.approx(duan(s, ("C", "B")), abs=1e-12)
    assert hz_pair(s, ("A", "C"))[0] == pytest.approx(hz_pair(s, ("C", "A"))[0], abs=1e-12)
    assert hz_pair(s, ("A", "C"))[1] == pytest.approx(hz_pair(s, ("C", "A"))[1], abs=1e-12)


def test_coherent_boundary_full_catalog(rng):
    """On fully factorized coherent data every witness sits at its classical value."""
    for _ in range(25):
        a, b, c = (rng.normal(scale=0.8) + 1j * rng.normal(scale=0.8) for _ in range(3))
        s = make_coherent_state(a, b, c)
        rec = dict(zip(WITNESS_NAMES, witness_table(s)))
        for m in ("A", "B", "C"):
            assert abs(rec[f"antibunch_{m}"]) < 1e-10
            assert abs(rec[f"var_x_{m}"] - 0.25) < 1e-10
            assert abs(rec[f"var_y_{m}"] - 0.25) < 1e-10
            occ = abs((a, b, c)[("A", "B", "C").index(m)]) ** 2
            if occ > 1e-10:
                assert abs(rec[f"mandel_{m}"]) < 1e-9
        for p in ("AB", "BC", "AC"):
            assert abs(rec[f"antibunch_{p}"]) < 1e-10
            assert abs(rec[f"var_x_{p}"] - 0.25) < 1e-10
            assert abs(rec[f"var_y_{p}"] - 0.25) < 1e-10
            assert abs(rec[f"duan_{p}"]) < 1e-10
            assert abs(rec[f"hz_e_{p}"]) < 1e-10
            assert abs(rec[f"hz_etilde_{p}"]) < 1e-10
        for op in ("AB", "BA", "BC", "CB", "AC", "CA"):
            occ = abs((a, b, c)[("A", "B", "C").index(op[0])]) ** 2
            assert abs(rec[f"steering_{op}"] - occ / 2) < 1e-10
        for part in ("AB_C", "BC_A", "AC_B"):
            assert abs(rec[f"bisep_e_{part}"]) < 1e-10
            assert abs(rec[f"bisep_eprime_{part}"]) < 1e-10


def test_phase_covariance(rng):
    phase_free = np.array([name.startswith(("mandel_", "antibunch_", "hz_e", "steering_"))
                           for name in WITNESS_NAMES])
    assert phase_free.sum() == 21
    for _ in range(10):
        s = make_random_state(rng)
        rotated = rotate_mode_a(s, rng.uniform(0, 2 * np.pi))
        r1, r2 = witness_table(s)[phase_free], witness_table(rotated)[phase_free]
        np.testing.assert_array_equal(np.isnan(r1), np.isnan(r2))
        assert np.nanmax(np.abs(r1 - r2)) < 1e-10


def test_inconsistent_state_raises():
    v = initial_state(1, 1, 1).values.copy()
    v[Moment.AA] = 0.5j     # break <A2> / <Ad2> conjugacy by a large margin
    v[Moment.AdAd] = 0.5j
    broken = MomentState(v)
    with pytest.raises(InternalConsistencyError):
        quadrature_variances(broken, "A")


def test_duan_bc_nonnegative_in_an_preset():
    _, series = run_scenario(Scenario(params=preset_params("AN", 0.0), sample_count=201))
    assert series.column("duan_BC").min() >= 0.0


def test_intermodal_antibunch_ac_no_dip_in_na_without_drive():
    sc = Scenario(params=preset_params("NA", 0.0), sample_count=201)
    _, series = run_scenario(sc)
    assert series.column("antibunch_AC")[1:].min() >= -sc.threshold


def test_witness_row_is_finite_except_mandel():
    row = witness_table(initial_state(0.3, 0.0, 1.2))
    assert row.shape == (len(WITNESS_NAMES),) == (42,)
    assert math.isnan(row[WITNESS_NAMES.index("mandel_B")])
    for name, value in zip(WITNESS_NAMES, row):
        if not name.startswith("mandel_"):
            assert math.isfinite(value), name


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 6))
def test_stacked_states_evaluate_bitwise_like_single_states(seed, count):
    rng = np.random.default_rng(seed)
    states = [make_random_state(rng) for _ in range(count)]
    table = witness_table(np.stack([s.values for s in states]))
    assert table.shape == (count, len(WITNESS_NAMES))
    for row, state in zip(table, states):
        single = witness_table(state)
        assert np.array_equal(row.view(np.uint64), single.view(np.uint64))


def test_trajectory_with_one_inconsistent_sample_raises():
    rng = np.random.default_rng(11)
    states = np.stack([make_random_state(rng).values for _ in range(9)])
    witness_table(states)
    states[4, Moment.ABd] += 1e-6j  # <ABd> no longer conj(<AdB>) at sample 4
    with pytest.raises(InternalConsistencyError, match="at sample 4"):
        witness_table(states)


def test_stacked_trajectories_name_the_sample_within_its_trajectory():
    rng = np.random.default_rng(12)
    states = np.stack([[make_random_state(rng).values for _ in range(5)] for _ in range(3)])
    witness_table(states)
    states[2, 3, Moment.ABd] += 1e-6j  # third trajectory, its sample 3 (flat index 13)
    with pytest.raises(InternalConsistencyError, match="at sample 3 "):
        witness_table(states)
    with pytest.raises(InternalConsistencyError, match="at sample 3 "):
        witness_table(states[2])


def test_first_failure_follows_the_check_order_not_the_sample():
    rng = np.random.default_rng(16)
    states = np.stack([[make_random_state(rng).values for _ in range(7)] for _ in range(3)])
    witness_table(states)
    # purely imaginary <AA>, <AdAd>: var_x_A fails while antibunch_A stays real
    states[0, 5, Moment.AA], states[0, 5, Moment.AdAd] = 0.3j, 0.5j
    states[0, 2, Moment.BdB] += 1e-6j  # <n_B>: a later check, at an earlier sample
    states[2, 1, Moment.CdC] += 1e-6j  # <n_C>: a later check, at the earliest sample
    var_x_a = "var_x_A has imaginary residue 2.000e-01 at sample 5 (state inconsistent)"
    n_c = "<n_C> has imaginary residue 1.000e-06 at sample 1 (state inconsistent)"
    with pytest.raises(InternalConsistencyError) as info:
        witness_table(states)
    assert info.value.args == (var_x_a,)
    first, second, third = info.value.members
    assert (first.args, third.args) == ((var_x_a,), (n_c,))
    assert np.array_equal(second.view(np.uint64), witness_table(states[1]).view(np.uint64))
    for alone, message in ((states[0], var_x_a), (states[2], n_c)):
        with pytest.raises(InternalConsistencyError) as info:
            witness_table(alone)
        assert info.value.args == (message,)


def _helper_value(state, name):
    """Witness column ``name`` at one state, from its public helper."""
    if name.startswith("bisep"):
        family, ab, c = name.rsplit("_", 2)  # "bisep_e_AB_C"
        return bisep(state, (ab[0], ab[1], c))[family == "bisep_eprime"]
    family, key = name.rsplit("_", 1)
    single, pair = key in MODE_KEYS, tuple(key)
    if family == "mandel":
        return mandel_q(state, key)
    if family == "antibunch":
        return antibunch_single(state, key) if single else antibunch_inter(state, pair)
    if family in ("var_x", "var_y"):
        vx, vy = quadrature_variances(state, key) if single else intermodal_quadrature_variances(state, pair)
        return vy if family == "var_y" else vx
    if family == "duan":
        return duan(state, pair)
    if family in ("hz_e", "hz_etilde"):
        return hz_pair(state, pair)[family == "hz_etilde"]
    return steering(state, pair)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(), (3,), (2, 2)]),
       empty=st.sets(st.sampled_from((Moment.AdA, Moment.BdB, Moment.CdC))))
def test_table_columns_are_the_public_helpers_bit_for_bit(seed, shape, empty):
    rng = np.random.default_rng(seed)
    states = np.stack([make_random_state(rng).values for _ in range(int(np.prod(shape)))])
    states[:, list(empty)] = 0.0  # an empty mode: its Mandel parameter is NaN
    states = states.reshape(shape + (27,))
    table = witness_table(states)
    assert table.shape == shape + (len(WITNESS_NAMES),)
    for index in np.ndindex(shape):
        for j, name in enumerate(WITNESS_NAMES):
            helper = np.float64(_helper_value(states[index], name))
            assert helper.view(np.uint64) == table[index][j].view(np.uint64), (index, name)
    closure, _ = witnesses_mod._plan()
    stacks = closure.stacks(states)
    groups = np.split(np.arange(len(closure.layout)), closure.cuts)
    assert [len(g) for g in groups] == [6, 36, 6, 12, 1]
    bits = lambda x: np.atleast_1d(x).view(np.uint64)  # noqa: E731
    for g, rule in ((1, pair_moment), (2, decouple3), (3, decouple4)):
        for row, i in enumerate(groups[g]):
            word = closure.layout[i]
            assert np.array_equal(bits(rule(states, *word)), bits(stacks[g][row])), word
    assert np.array_equal(bits(number_triple_product(states)), bits(stacks[4][0]))
