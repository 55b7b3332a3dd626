"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  The
criteria are asserted exactly as stated; where a target is unreachable for
the physical moment system (see the sign-pattern and drive-enhancement
tests), the test is expected to fail honestly rather than being loosened.
"""

import math

import numpy as np
import pytest

from cavens.closure import SLOT_WORDS, decoupled, word_for_name
from cavens.dynamics import integrate, steady_state_first_moments
from cavens.model import (
    Moment,
    Scenario,
    SystemParams,
    conjugate_mismatch,
    initial_state,
    preset_params,
)
from cavens.oracle import FockBasisSpec, closure_report
from cavens.runner import CELLS, _score, run_scenario, table_matrix
from cavens.witnesses import WITNESS_NAMES, catalog_words, witness_table
from conftest import make_coherent_state, make_random_state, rotate_mode_a

ALL_CONFIGS = ("AA", "AN", "NA", "NN")


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_conjugate_consistency():
    worst = 0.0
    for cfg in ALL_CONFIGS:
        for chi in (0.0, 0.2):
            traj = integrate(Scenario(params=preset_params(cfg, chi)))
            worst = max(worst, conjugate_mismatch(traj.states))
    ok = worst < 1e-8
    _report(1, ok, f"max conjugate-pair mismatch {worst:.2e} (< 1e-8)")
    assert ok


def test_criterion_2_closed_system_conservation():
    p = SystemParams(delta_a=1, delta_b=1, delta_c=1, g_a=0.2, g_b=0.02)
    traj = integrate(Scenario(params=p, initial=initial_state(1, 1, 1)))
    total = (traj.states[:, Moment.AdA] + traj.states[:, Moment.BdB]
             + traj.states[:, Moment.CdC])
    drift = float(np.abs(total - total[0]).max())
    ok = drift < 1e-8
    _report(2, ok, f"max |N(tau) - N(0)| = {drift:.2e} (< 1e-8)")
    assert ok


def test_criterion_3_analytic_fixed_points():
    decay_worst = 0.0
    for cfg in ALL_CONFIGS:
        traj = integrate(Scenario(params=preset_params(cfg, 0.0),
                                  t_max=200.0, sample_count=2001))
        decay_worst = max(decay_worst, float(np.abs(traj.states[-1]).max()))

    p_th = SystemParams(delta_a=1, delta_b=0, delta_c=0, gamma_a=1.0, n_a=0.3)
    traj = integrate(Scenario(params=p_th, t_max=200.0, sample_count=1001))
    thermal_err = abs(traj.states[-1, Moment.AdA] - 0.3)

    ss_worst = 0.0
    for cfg in ALL_CONFIGS:
        p = preset_params(cfg, 0.2)
        ss = np.array(steady_state_first_moments(p))
        traj = integrate(Scenario(params=p, t_max=200.0, sample_count=401))
        got = traj.states[-1, [Moment.A, Moment.B, Moment.C]]
        ss_worst = max(ss_worst, float(np.abs(got - ss).max()))

    ok = decay_worst < 1e-6 and thermal_err < 1e-8 and ss_worst < 1e-6
    _report(3, ok, f"vacuum decay {decay_worst:.2e} (<1e-6), thermal fix point "
                   f"{thermal_err:.2e} (<1e-8), steady state {ss_worst:.2e} (<1e-6)")
    assert ok


ORACLE_BASIS = FockBasisSpec(7)


@pytest.fixture(scope="module")
def oracle_cross_data():
    """Dynamics and oracle runs for AN/NA at chi 0 and 0.2, occupations 0.2.

    The oracle runs at n_max 7, the largest truncation the default basis cap
    allows; criterion 4 checks that this resolves the reference.
    """
    return {(cfg, chi): _cross_run(cfg, chi) for cfg in ("AN", "NA") for chi in (0.0, 0.2)}


def _cross_run(cfg: str, chi: float):
    """(scenario, trajectory, oracle report) of one preset from occupations 0.2 at n_max 7."""
    sc = Scenario(params=preset_params(cfg, chi), initial=initial_state(0.2, 0.2, 0.2),
                  t_max=5.0, sample_count=51)
    return sc, integrate(sc), closure_report(sc, ORACLE_BASIS)


def _defect(report) -> float:
    """The truncated commutator defect (n_max+1) P_top of an oracle report."""
    return (ORACLE_BASIS.n_max + 1) * report.truncation_leakage


def test_criterion_4_oracle_second_moment_equivalence(oracle_cross_data):
    # On a truncated mode [a, ad] = 1 - (n_max+1)|n_max><n_max|, so the
    # reference is exact only up to (n_max+1) P_top; that defect must sit
    # below the tolerance the reference is compared at.
    defect = max(_defect(report) for _, _, report in oracle_cross_data.values())
    resolved = f"reference commutator defect {defect:.3e} (< 1e-4)"
    if defect >= 1e-4:
        _report(4, False, resolved)
    assert defect < 1e-4, f"oracle truncation too small: {resolved}; raise n_max"

    second_slots = [s for s in range(27)
                    if s not in (Moment.A, Moment.B, Moment.C)]
    second_words = [SLOT_WORDS[s] for s in second_slots]
    worst = 0.0
    worst_where = None
    for (cfg, chi), (_, traj, report) in oracle_cross_data.items():
        err = np.abs(report.exact_words(second_words).T - traj.states[:, second_slots])
        i, j = np.unravel_index(np.argmax(err), err.shape)
        if err[i, j] > worst:
            worst = float(err[i, j])
            worst_where = (cfg, chi, Moment(second_slots[j]).name, traj.taus[i])
    ok = worst < 1e-4
    _report(4, ok, f"max |oracle - dynamics| = {worst:.3e} at {worst_where} "
                   f"(< 1e-4), {resolved}")
    assert ok


def test_criterion_5_closure_exact_for_zero_mean_data(oracle_cross_data):
    words = [word_for_name(f"{a}d{a}{b}d{b}") for a, b in (("A", "B"), ("B", "C"), ("A", "C"))]
    worst = 0.0
    for cfg in ("AN", "NA"):
        _, traj, report = oracle_cross_data[(cfg, 0.0)]
        error = decoupled(traj.states, words) - report.exact_words(words)
        worst = max(worst, float(np.abs(error).max()))
    ok = worst < 1e-3
    _report(5, ok, f"max |decoupled - exact <nd n>| = {worst:.3e} (< 1e-3, zero mean)")
    assert ok


def test_three_and_four_factor_closure_is_exact_with_means(oracle_cross_data):
    """The three- and four-factor rules are the Gaussian expansion with means.

    The quadratic dynamics keeps the thermal initial state Gaussian, so at
    chi 0.2, where the means reach 0.35, every such word of the catalog,
    decoupled from the moments, matches the exact correlator up to
    truncation: within criterion 4's bound at the same n_max.  On AN and NA
    every product of three means stays below that bound; AA at chi 1.0,
    whose means reach 0.74, makes the -2<x><y><z> term visible, at a
    commutator defect checked like criterion 4's.
    """
    words = [w for w in catalog_words() if len(w) in (3, 4)]
    assert len(words) == 18
    runs = [oracle_cross_data[("AN", 0.2)], oracle_cross_data[("NA", 0.2)], _cross_run("AA", 1.0)]
    defect = _defect(runs[-1][2])
    assert defect < 1e-4, f"AA chi 1.0 commutator defect {defect:.3e} (>= 1e-4); raise n_max"
    worst = 0.0
    for _, traj, report in runs:
        error = decoupled(traj.states, words) - report.exact_words(words)
        worst = max(worst, float(np.abs(error).max()))
    assert worst < 1e-4, f"max |decoupled - exact| = {worst:.3e} over the 3- and 4-factor words"


def test_oracle_sign_cells_match_the_moment_engine(oracle_cross_data):
    """Every sign cell of the four oracle runs ticks alike on the exact and
    on the decoupled witness tables, scored as the sign matrix scores them."""
    for key, (sc, _, report) in oracle_cross_data.items():
        exact, closed = (_score(report.taus, table[None], sc.threshold)[0][0]
                         for table in (report.witness_exact, report.witness_closed))
        differ = [cell for cell, a, b in zip(CELLS, exact, closed) if a != b]
        assert not differ, f"{key}: exact and decoupled ticks differ at {differ}"


def _reference_tick_pattern():
    """Published tick/cross summary this model family is scored against."""
    t, f = True, False
    pattern = {}

    def fill(cfg, chi, row, keys, flags):
        for key, flag in zip(keys, flags):
            pattern[(cfg, chi, row, key)] = flag

    modes = ("A", "B", "C")
    pairs = ("AB", "BC", "AC")
    parts = ("AB|C", "BC|A", "AC|B")
    ordered = ("AB", "BA", "BC", "CB", "AC", "CA")
    for cfg in ALL_CONFIGS:
        for chi in (0.0, 0.2):
            fill(cfg, chi, "mandel", modes, (t, t, t))
            fill(cfg, chi, "squeeze", modes, (t, t, t))
            fill(cfg, chi, "squeeze_pair", pairs, (t, t, t))
            fill(cfg, chi, "hz_e", pairs, (t, t, t))
            fill(cfg, chi, "hz_etilde", pairs, (t, t, t))
            fill(cfg, chi, "duan", pairs, (t, t, t))
            fill(cfg, chi, "bisep_e", parts,
                 (f, f, f) if cfg == "NA" else (t, t, t))
            fill(cfg, chi, "bisep_eprime", parts, (t, t, t))
            fill(cfg, chi, "antibunch", modes, (t, t, t))
            if cfg in ("NA", "NN") and chi == 0.0:
                fill(cfg, chi, "antibunch_pair", pairs, (t, t, f))
            else:
                fill(cfg, chi, "antibunch_pair", pairs, (t, t, t))
    fill("AN", 0.0, "steering", ordered, (t, t, t, t, f, f))
    fill("AN", 0.2, "steering", ordered, (t, t, t, t, f, f))
    fill("NA", 0.0, "steering", ordered, (f, t, t, t, f, f))
    fill("NA", 0.2, "steering", ordered, (f, t, t, t, t, t))
    fill("AA", 0.0, "steering", ordered, (t, t, t, t, t, t))
    fill("AA", 0.2, "steering", ordered, (t, t, t, t, t, t))
    fill("NN", 0.0, "steering", ordered, (f, f, t, t, f, f))
    fill("NN", 0.2, "steering", ordered, (t, t, t, t, t, f))
    return pattern


# cells singled out as the decisive contrasts in the reference pattern
CONTRAST_CELLS = (
    ("NA", 0.0, "antibunch_pair", "AC", False),
    ("NA", 0.2, "antibunch_pair", "AC", True),
    ("NA", 0.0, "steering", "AB", False),
    ("NA", 0.0, "steering", "BA", True),
    ("NN", 0.0, "steering", "AB", False),
    ("NN", 0.0, "steering", "BA", False),
    ("NN", 0.2, "steering", "AB", True),
    ("NN", 0.2, "steering", "BA", True),
    ("NN", 0.2, "steering", "CA", False),
    ("NA", 0.0, "bisep_e", "AB|C", False),
    ("NA", 0.0, "bisep_e", "BC|A", False),
    ("NA", 0.0, "bisep_e", "AC|B", False),
    ("NA", 0.2, "bisep_e", "AB|C", False),
    ("NA", 0.2, "bisep_e", "BC|A", False),
    ("NA", 0.2, "bisep_e", "AC|B", False),
    ("NA", 0.0, "bisep_eprime", "AB|C", True),
    ("NA", 0.0, "bisep_eprime", "BC|A", True),
    ("NA", 0.0, "bisep_eprime", "AC|B", True),
    ("NA", 0.2, "bisep_eprime", "AB|C", True),
    ("NA", 0.2, "bisep_eprime", "BC|A", True),
    ("NA", 0.2, "bisep_eprime", "AC|B", True),
)


@pytest.fixture(scope="module")
def default_sign_matrix():
    return table_matrix()  # defaults: t_max 10, 1001 samples, threshold 1e-4


def test_criterion_6_sign_pattern_reproduction(default_sign_matrix):
    pattern = _reference_tick_pattern()
    matrix = default_sign_matrix
    matches = 0
    for (cfg, chi, row, cell), expected in pattern.items():
        if matrix.tick(cfg, chi, row, cell) == expected:
            matches += 1
    fraction = matches / len(pattern)

    contrast_bad = [
        (cfg, chi, row, cell, expected)
        for cfg, chi, row, cell, expected in CONTRAST_CELLS
        if matrix.tick(cfg, chi, row, cell) != expected
    ]
    ok = fraction >= 0.90 and not contrast_bad
    _report(6, ok, f"pattern match {matches}/{len(pattern)} = {fraction:.1%} "
                   f"(needs >= 90%), contrast-cell mismatches: {len(contrast_bad)}")
    assert fraction >= 0.90, (
        f"sign-pattern agreement {fraction:.1%} below the 90% floor; "
        f"the physical moment system keeps these witnesses at or above their "
        f"classical boundaries for occupation-only initial data"
    )
    assert not contrast_bad, f"contrast cells disagree: {contrast_bad}"


def test_criterion_7_drive_enhancement(default_sign_matrix):
    mins = {}
    for chi in (0.0, 0.2):
        _, series = run_scenario(Scenario(params=preset_params("AN", chi)))
        mins[chi] = {
            "mandel_A": float(np.nanmin(series.column("mandel_A")[1:])),
            "var_x_A": float(series.column("var_x_A")[1:].min()),
            "var_x_AB": float(series.column("var_x_AB")[1:].min()),
        }
    # "<=" is asserted up to integrator accuracy (1e-8), since the undriven
    # and driven runs solve different systems with adaptive steps
    slack = 1e-8
    deltas = {k: mins[0.2][k] - mins[0.0][k] for k in mins[0.0]}
    ok = all(d <= slack for d in deltas.values())
    _report(7, ok, "min-over-tau changes at chi 0 -> 0.2: "
                   + ", ".join(f"{k}: {d:+.2e}" for k, d in deltas.items())
                   + " (each must be <= 0)")
    for name, d in deltas.items():
        assert d <= slack, (
            f"{name}: minimum at chi=0.2 exceeds chi=0 by {d:.2e}; the drive "
            f"adds coherent amplitude, which cannot deepen this witness for "
            f"occupation-only initial data"
        )


def test_criterion_8_witness_algebra_suite():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        s = make_random_state(rng)
        r1 = dict(zip(WITNESS_NAMES, witness_table(s)))
        # antibunching/Mandel identity
        for m in ("A", "B", "C"):
            occ = s.values[(Moment.AdA, Moment.BdB, Moment.CdC)[("A", "B", "C").index(m)]].real
            q = r1[f"mandel_{m}"]
            if not math.isnan(q):
                worst = max(worst, abs(r1[f"antibunch_{m}"] - q * occ))
        # steering asymmetry identity
        for x, y in (("A", "B"), ("B", "C"), ("A", "C")):
            occ_x = s.values[(Moment.AdA, Moment.BdB, Moment.CdC)[("A", "B", "C").index(x)]].real
            occ_y = s.values[(Moment.AdA, Moment.BdB, Moment.CdC)[("A", "B", "C").index(y)]].real
            lhs = r1[f"steering_{x}{y}"] - r1[f"steering_{y}{x}"]
            worst = max(worst, abs(lhs - (occ_x - occ_y) / 2))
        # phase covariance of the phase-insensitive witnesses
        rot = rotate_mode_a(s, rng.uniform(0, 2 * np.pi))
        r2 = dict(zip(WITNESS_NAMES, witness_table(rot)))
        # antibunch_A..antibunch_AC, hz_e_*, hz_etilde_* and steering_*: 18 columns
        phase_free = [n for n in WITNESS_NAMES if n.startswith(("antibunch_", "hz_e", "steering_"))]
        worst = max(worst, max(abs(r1[n] - r2[n]) for n in phase_free))

    boundary_worst = 0.0
    for _ in range(100):
        a, b, c = (rng.normal(scale=0.7) + 1j * rng.normal(scale=0.7) for _ in range(3))
        rec = dict(zip(WITNESS_NAMES, witness_table(make_coherent_state(a, b, c))))
        occs = {"A": abs(a) ** 2, "B": abs(b) ** 2, "C": abs(c) ** 2}
        devs = []
        devs += [abs(rec[f"antibunch_{m}"]) for m in occs]
        devs += [abs(rec[f"var_x_{m}"] - 0.25) for m in occs]
        devs += [abs(rec[f"var_y_{m}"] - 0.25) for m in occs]
        devs += [abs(rec[f"antibunch_{p}"]) for p in ("AB", "BC", "AC")]
        devs += [abs(rec[f"var_x_{p}"] - 0.25) for p in ("AB", "BC", "AC")]
        devs += [abs(rec[f"var_y_{p}"] - 0.25) for p in ("AB", "BC", "AC")]
        devs += [abs(rec[f"duan_{p}"]) for p in ("AB", "BC", "AC")]
        devs += [abs(rec[f"hz_e_{p}"]) for p in ("AB", "BC", "AC")]
        devs += [abs(rec[f"hz_etilde_{p}"]) for p in ("AB", "BC", "AC")]
        devs += [abs(rec[f"steering_{op}"] - occs[op[0]] / 2)
                 for op in ("AB", "BA", "BC", "CB", "AC", "CA")]
        devs += [abs(rec[f"bisep_e_{k}"]) for k in ("AB_C", "BC_A", "AC_B")]
        devs += [abs(rec[f"bisep_eprime_{k}"]) for k in ("AB_C", "BC_A", "AC_B")]
        boundary_worst = max(boundary_worst, max(devs))

    ok = worst < 1e-10 and boundary_worst < 1e-10
    _report(8, ok, f"identities/covariance residue {worst:.2e}, "
                   f"coherent-boundary residue {boundary_worst:.2e} (< 1e-10)")
    assert worst < 1e-10
    assert boundary_worst < 1e-10
