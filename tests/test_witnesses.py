import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import cavens.witnesses as witnesses_mod
from cavens.closure import SLOT_WORDS, decoupled
from cavens.dynamics import integrate_batch
from cavens.model import Configuration, Moment, MomentState, Scenario, initial_state, preset_params
from cavens.oracle import FockBasisSpec, exact_correlators
from cavens.runner import CELLS, SIGN_ROWS, _score, run_scenario
from cavens.witnesses import WITNESS_NAMES, InternalConsistencyError, witness_table
from conftest import make_coherent_state, make_random_state, rotate_mode_a

VACUUM = initial_state(0, 0, 0)
UNIT = initial_state(1, 1, 1)


def _column(state, name: str):
    """The witness ``name`` at ``state``: its column of the table."""
    return witness_table(state)[..., WITNESS_NAMES.index(name)]


def test_mandel_values():
    assert _column(make_coherent_state(0.7 - 0.2j, 0, 0), "mandel_A") == pytest.approx(0.0, abs=1e-12)
    assert _column(UNIT, "mandel_A") == pytest.approx(1.0, abs=1e-14)
    assert math.isnan(_column(VACUUM, "mandel_B"))


def test_antibunch_single_values():
    assert _column(make_coherent_state(1.0, 0, 0), "antibunch_A") == pytest.approx(0.0, abs=1e-14)
    assert _column(UNIT, "antibunch_C") == pytest.approx(1.0, abs=1e-14)


def test_antibunch_identity_with_mandel(rng):
    for _ in range(20):
        s = make_random_state(rng)
        q = _column(s, "mandel_A")
        occ = s[Moment.AdA].real
        assert abs(_column(s, "antibunch_A") - q * occ) < 1e-12


def test_antibunch_inter_values():
    assert _column(UNIT, "antibunch_AB") == pytest.approx(0.0, abs=1e-14)
    coh = make_coherent_state(1.0, 1.0, 0.0)
    assert _column(coh, "antibunch_AB") == pytest.approx(0.0, abs=1e-13)


def test_quadrature_variances_values():
    assert _column(VACUUM, "var_x_A") == pytest.approx(0.25)
    assert _column(VACUUM, "var_y_A") == pytest.approx(0.25)
    assert _column(UNIT, "var_x_B") == pytest.approx(0.75)
    assert _column(UNIT, "var_y_B") == pytest.approx(0.75)


def test_intermodal_quadrature_values():
    for state, value in ((VACUUM, 0.25), (UNIT, 0.75)):
        assert _column(state, "var_x_AC") == pytest.approx(value)
        assert _column(state, "var_y_AC") == pytest.approx(value)


def test_pair_quadratures_are_the_single_mode_ones_behind_a_beam_splitter(rng):
    """var_x_AB, var_y_AB of rho are var_x_A, var_y_A of U rho Ud, with U = expm(pi/4 (Ad B - A Bd)).

    U takes A to (A + B)/sqrt2 and conserves n_a + n_b, so the truncated U
    is exact on a state supported on n_a + n_b <= n_max.
    """
    spec = FockBasisSpec(4)
    levels = np.arange(spec.local_dim)
    na, nb, _ = np.meshgrid(levels, levels, levels, indexing="ij")
    psi = (rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)) * ((na + nb) <= spec.n_max).ravel()
    rho = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    one, eye = np.diag(np.sqrt(levels[1:]), 1), np.eye(spec.local_dim)
    a, b = np.kron(np.kron(one, eye), eye), np.kron(np.kron(eye, one), eye)
    u = expm(np.pi / 4 * (a.conj().T @ b - a @ b.conj().T))
    pair, mode = witness_table(exact_correlators(np.stack([rho, u @ rho @ u.conj().T]), spec))
    for quadrature in ("var_x", "var_y"):
        of_pair, of_a = WITNESS_NAMES.index(f"{quadrature}_AB"), WITNESS_NAMES.index(f"{quadrature}_A")
        assert abs(pair[of_pair] - pair[of_a]) > 1e-3  # the beam splitter matters
        assert abs(pair[of_pair] - mode[of_a]) < 1e-12


def test_duan_values():
    assert _column(VACUUM, "duan_AB") == pytest.approx(0.0, abs=1e-14)
    assert _column(UNIT, "duan_BC") == pytest.approx(4.0, abs=1e-14)


def test_hz_values():
    coh = make_coherent_state(1.0, 1.0, 1.0)
    assert _column(coh, "hz_e_AB") == pytest.approx(0.0, abs=1e-13)
    assert _column(coh, "hz_etilde_AB") == pytest.approx(0.0, abs=1e-13)
    assert _column(UNIT, "hz_e_AB") == pytest.approx(1.0)
    assert _column(UNIT, "hz_etilde_AB") == pytest.approx(1.0)


def test_steering_values_and_asymmetry(rng):
    coh = make_coherent_state(1.0, 1.0, 0.0)
    assert _column(coh, "steering_AB") == pytest.approx(0.5, abs=1e-13)
    assert _column(UNIT, "steering_BA") == pytest.approx(1.5, abs=1e-14)
    for _ in range(20):
        s = make_random_state(rng)
        lhs = _column(s, "steering_AC") - _column(s, "steering_CA")
        rhs = (s[Moment.AdA].real - s[Moment.CdC].real) / 2
        assert abs(lhs - rhs) < 1e-12


def test_bisep_values():
    assert _column(VACUUM, "bisep_e_AB_C") == pytest.approx(0.0)
    assert _column(VACUUM, "bisep_eprime_AB_C") == pytest.approx(0.0)
    assert _column(UNIT, "bisep_e_AB_C") == pytest.approx(1.0)
    assert _column(UNIT, "bisep_eprime_AB_C") == pytest.approx(1.0)


def _relabelled_slots(relabel: dict) -> np.ndarray:
    """Slot of each stored moment's word after renaming its modes by ``relabel``."""
    mode = ["ABC".index(relabel.get(m, m)) for m in "ABC"]

    def canonical(word):  # modes in A < B < C order, daggered first within a mode
        return tuple(sorted(word, key=lambda f: (f % 3, f < 3)))
    slot = {canonical(word): j for j, word in enumerate(SLOT_WORDS)}
    return np.array([slot[canonical(3 * (f // 3) + mode[f % 3] for f in word)]
                     for word in SLOT_WORDS])


def _relabelled_name(name: str, relabel: dict) -> str:
    """The column ``name`` reads after renaming its modes by ``relabel``."""
    i = next(i for i, ch in enumerate(name) if ch.isupper())
    family, key = name[:i], name[i:].translate(str.maketrans(relabel))
    if family != "steering_":  # a pair, or a partition's pair, is unordered
        pair, *rest = key.split("_")
        key = "_".join(["".join(sorted(pair))] + rest)
    return family + key


SWAP_AC = {"A": "C", "C": "A"}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(), (3,), (2, 2)]),
       relabel=st.sampled_from([SWAP_AC, {"A": "B", "B": "C", "C": "A"}]))
def test_mode_relabelling_permutes_the_columns(seed, shape, relabel):
    """Renaming the modes moves every witness to its relabelled column.

    Under A <-> C, pair AB becomes BC, steering AB becomes CB and partition
    AB|C becomes BC|A; reversed pairs (CB, BA, CA) read the same as their
    pairs, so this checks each key's words and the symmetric pair witnesses.
    """
    assert _relabelled_name("steering_AB", SWAP_AC) == "steering_CB"
    assert _relabelled_name("bisep_e_AB_C", SWAP_AC) == "bisep_e_BC_A"
    rng = np.random.default_rng(seed)
    states = np.stack([make_random_state(rng).values for _ in range(int(np.prod(shape)))])
    states = states.reshape(shape + (27,))
    relabelled = np.empty_like(states)
    relabelled[..., _relabelled_slots(relabel)] = states
    table, moved = witness_table(states), witness_table(relabelled)
    for j, name in enumerate(WITNESS_NAMES):
        k = WITNESS_NAMES.index(_relabelled_name(name, relabel))
        np.testing.assert_allclose(moved[..., k], table[..., j], rtol=0, atol=1e-12, err_msg=name)


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


@pytest.mark.parametrize("amplitude", [4.0, 6.0, 8.0])
def test_large_exact_coherent_states_pass_every_check(amplitude):
    # the bisep terms grow as |alpha|^6 against the absolute IMAG_TOL: from |alpha| ~ 9,
    # rounding alone leaves residues above it
    rng = np.random.default_rng(2026)
    for _ in range(200):
        witness_table(make_coherent_state(*amplitude * np.exp(2j * np.pi * rng.uniform(size=3))))


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
    with pytest.raises(InternalConsistencyError, match="var_x_A"):
        witness_table(broken)


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
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 40))
def test_stacked_states_evaluate_bitwise_like_single_states(seed, count):
    rng = np.random.default_rng(seed)
    states = [make_random_state(rng) for _ in range(count)]
    table = witness_table(np.stack([s.values for s in states]))
    assert table.shape == (count, len(WITNESS_NAMES))
    for row, state in zip(table, states):
        single = witness_table(state)
        assert np.array_equal(row.view(np.uint64), single.view(np.uint64))


def test_a_correlator_function_gives_the_tables_of_its_states_bit_for_bit(rng):
    """``witness_table`` of a function of words reads the same bits as of the states it decouples."""
    random = np.stack([make_random_state(rng).values for _ in range(7)])
    trajectories = np.stack([t.states for t in integrate_batch(
        [Scenario(params=preset_params(config, chi)) for config in Configuration for chi in (0.0, 0.2)])])
    for states in (random, trajectories):
        table = witness_table(lambda words: decoupled(states, words))
        assert np.array_equal(table.view(np.uint64), witness_table(states).view(np.uint64))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(), (3,), (2, 2)]),
       empty=st.sets(st.sampled_from((Moment.AdA, Moment.BdB, Moment.CdC))))
def test_table_columns_are_the_public_helpers_bit_for_bit(seed, shape, empty):
    """Each column of a table is its single-state column, and each closure
    word the table reads is ``decoupled`` of that word alone, bit for bit."""
    rng = np.random.default_rng(seed)
    states = np.stack([make_random_state(rng).values for _ in range(int(np.prod(shape)))])
    states[:, list(empty)] = 0.0  # an empty mode: its Mandel parameter is NaN
    states = states.reshape(shape + (27,))
    table = witness_table(states)
    assert table.shape == shape + (len(WITNESS_NAMES),)
    for index in np.ndindex(shape):
        single = witness_table(MomentState(states[index]))
        for j, name in enumerate(WITNESS_NAMES):
            assert single[j].view(np.uint64) == table[index][j].view(np.uint64), (index, name)
    closure, _ = witnesses_mod._plan()
    stacks = closure.stacks(states)
    assert [len(stack) for stack in stacks] == [6, 36, 6, 12, 1]
    bits = lambda x: np.ascontiguousarray(x).view(np.uint64)  # noqa: E731
    places = [(g, row) for g, stack in enumerate(stacks) for row in range(len(stack))]
    for word, (g, row) in zip(closure.layout, places):
        assert np.array_equal(bits(decoupled(states, [word])[0]), bits(stacks[g][row])), word


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


# Textbook nonclassical states on the modes A, B, C: amplitudes of |na, nb, nc>,
# normalised on the basis below.  Every word the catalog reads is normally
# ordered within each mode, so on a state inside the truncation it is exact.
_TEXTBOOK_BASIS = FockBasisSpec(4)
_FOCK_A = {(1, 0, 0): 1.0}
# S(r)|0> on A and the two-mode squeezed vacuum on AB, at r = 0.5
_SQUEEZED_A = {(2 * k, 0, 0): (-math.tanh(0.5)) ** k * math.sqrt(math.factorial(2 * k))
               / (2 ** k * math.factorial(k)) for k in range(3)}
_TMSV_AB = {(n, n, 0): (-math.tanh(0.5)) ** n for n in range(5)}
_ONE_PHOTON_AB = {(1, 0, 0): 0.3, (0, 1, 0): 0.95}
_GHZ_LIKE = {(0, 0, 0): 1.0, (1, 1, 1): 0.3}
_PAIR_AGAINST_C = {(0, 0, 1): 1.0, (1, 1, 0): 0.5}

# each sign row, the state that ticks it and the key it ticks at there
_TICKS_ON = {
    "mandel": (_FOCK_A, "A"),
    "antibunch": (_FOCK_A, "A"),
    "squeeze": (_SQUEEZED_A, "A"),
    "squeeze_pair": (_SQUEEZED_A, "AB"),
    "hz_etilde": (_TMSV_AB, "AB"),
    "duan": (_TMSV_AB, "AB"),
    "hz_e": (_ONE_PHOTON_AB, "AB"),
    "antibunch_pair": (_ONE_PHOTON_AB, "AB"),
    "steering": (_ONE_PHOTON_AB, "AB"),
    "bisep_eprime": (_GHZ_LIKE, "AB|C"),
    "bisep_e": (_PAIR_AGAINST_C, "AB|C"),
}
_DUAN_DEFECT = (
    "duan_* is 4 Var(X_ab) + 4 Var(Y_ab) - 2 over the two quadratures of the collective "
    "mode (a + b)/sqrt2, that mode's uncertainty relation: it is >= 0 for every state. "
    "Duan et al., PRL 84, 2722 (2000), pair x_a + x_b with p_a - p_b instead."
)


def _relabelled(amplitudes: dict, perm) -> np.ndarray:
    """The density matrix of the state with mode i relabelled ``perm[i]``."""
    psi = np.zeros((_TEXTBOOK_BASIS.local_dim,) * 3, dtype=complex)
    for levels, amplitude in amplitudes.items():
        psi[tuple(levels[perm.index(m)] for m in range(3))] = amplitude
    psi = psi.ravel() / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def _relabelled_key(key: str, perm, keys) -> str:
    """The cell of ``keys`` that ``key`` names once mode i is relabelled ``perm[i]``."""
    moved = key.translate(str.maketrans("ABC", "".join("ABC"[m] for m in perm)))
    if moved in keys:  # a mode or an ordered pair
        return moved
    # an unordered pair or a partition: the same modes on each side of "|"
    sides = [set(side) for side in moved.split("|")]
    return next(k for k in keys if [set(side) for side in k.split("|")] == sides)


@pytest.mark.parametrize("row", [
    pytest.param(row, marks=pytest.mark.xfail(strict=True, reason=_DUAN_DEFECT)) if row == "duan"
    else row for row, *_ in SIGN_ROWS
])
def test_every_sign_row_ticks_on_a_textbook_state(row):
    """Each cell of the row ticks on its textbook state, relabelled to reach the cell's modes."""
    keys = next(keys for name, keys, *_ in SIGN_ROWS if name == row)
    amplitudes, key = _TICKS_ON[row]
    missed = []
    for perm in permutations(range(3)):
        table = witness_table(exact_correlators(_relabelled(amplitudes, perm), _TEXTBOOK_BASIS))
        # _score skips the sample at tau 0, so the table is scored as the second of two
        ticks = _score(np.array([0.0, 1.0]), np.stack([table, table])[None], Scenario.threshold)[0][0]
        cell = (row, _relabelled_key(key, perm, keys))
        if not ticks[CELLS.index(cell)]:
            missed.append((perm, cell))
    assert not missed, f"no tick at {missed}"
    reached = {_relabelled_key(key, perm, keys) for perm in permutations(range(3))}
    assert reached == set(keys)
