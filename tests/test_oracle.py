import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from cavens.closure import word_for_name
from cavens.dynamics import IntegrationError, integrate
from cavens.model import Moment, Scenario, SystemParams, initial_state, preset_params
from cavens.oracle import (
    _REPORT_WORDS,
    DensityMatrix,
    FockBasisSpec,
    PositivityError,
    _write_hermitian,
    build_generator,
    closure_report,
    coherent_state,
    evolve,
    evolve_path,
    exact_correlators,
    fock_state,
    moments_from_density,
    thermal_state,
)
from cavens.witnesses import WITNESS_NAMES, catalog_words, witness_table
from conftest import system_params


def _expect(rho: DensityMatrix, name: str):
    """Tr[rho word] of one density matrix, the word named like ``"AdA"``."""
    return exact_correlators(rho.matrix, rho.spec)([word_for_name(name)])[0]


def test_basis_spec_enforces_cap():
    assert FockBasisSpec(7).dim == 512
    with pytest.raises(ValueError, match="dimension 729 exceeds cap 512"):
        FockBasisSpec(8)
    with pytest.raises(ValueError):
        FockBasisSpec(0)


def test_single_mode_decay():
    spec = FockBasisSpec(5)
    p = SystemParams(delta_a=0, delta_b=0, delta_c=0, gamma_a=1.0)
    L = build_generator(p, spec)
    rho = evolve(fock_state(spec, (1, 0, 0)), L, 1.0)
    n = _expect(rho, "AdA")
    assert abs(n.real - np.exp(-1.0)) < 1e-7


def test_beam_splitter_rabi_exchange():
    spec = FockBasisSpec(4)
    p = SystemParams(delta_a=1, delta_b=1, delta_c=1, g_a=0.5)
    L = build_generator(p, spec)
    for t in (0.7, 1.9):
        rho = evolve(fock_state(spec, (1, 0, 0)), L, t)
        n = _expect(rho, "AdA").real
        assert abs(n - np.cos(0.5 * t) ** 2) < 1e-7


def test_oracle_conserves_excitation_without_damping():
    spec = FockBasisSpec(3)
    p = SystemParams(delta_a=1, delta_b=1, delta_c=1, g_a=0.2, g_b=0.02)
    L = build_generator(p, spec)
    rho = evolve(fock_state(spec, (1, 1, 0)), L, 3.0)
    total = sum(
        _expect(rho, f"{m}d{m}").real for m in ("A", "B", "C")
    )
    assert abs(total - 2.0) < 1e-7


def test_generator_trace_preserving_on_random_hermitian(rng):
    spec = FockBasisSpec(5)
    L = build_generator(preset_params("AN", 0.2), spec)
    for _ in range(10):
        G = rng.normal(size=(spec.dim, spec.dim)) + 1j * rng.normal(size=(spec.dim, spec.dim))
        herm = (G + G.conj().T) / 2
        assert abs(np.trace(L.apply(herm))) < 1e-10


@settings(max_examples=30, deadline=None)
@given(system_params, st.integers(0, 2**32 - 1))
def test_superoperator_matches_operator_form(p, seed):
    """L.apply equals -i[H, rho] + sum_x Gamma_x((nbar_x + 1) D[x] + nbar_x D[xd]) rho."""
    spec = FockBasisSpec(2)
    one, eye = np.diag(np.sqrt([1.0, 2.0]), 1), np.eye(3)
    a = np.kron(np.kron(one, eye), eye)
    b = np.kron(np.kron(eye, one), eye)
    c = np.kron(np.kron(eye, eye), one)
    H = (p.delta_a * a.T @ a + p.delta_b * b.T @ b + p.delta_c * c.T @ c
         + p.g_a * (c @ a.T + c.T @ a) + p.g_b * (c @ b.T + c.T @ b) + p.chi * (a.T + a))

    def D(J, rho):
        JdJ = J.conj().T @ J
        return J @ rho @ J.conj().T - (JdJ @ rho + rho @ JdJ) / 2

    rng = np.random.default_rng(seed)
    G = rng.normal(size=(spec.dim, spec.dim)) + 1j * rng.normal(size=(spec.dim, spec.dim))
    rho = (G + G.conj().T) / 2
    expected = -1j * (H @ rho - rho @ H)
    for gamma, nbar, x in ((p.gamma_a, p.n_a, a), (p.gamma_b, p.n_b, b), (p.gamma_c, p.n_c, c)):
        expected += gamma * ((nbar + 1) * D(x, rho) + nbar * D(x.T, rho))
    got = build_generator(p, spec).apply(rho)
    assert np.abs(got - expected).max() < 1e-12


def _complex_generator(p, n_max):
    """The complex Lindblad superoperator on row-major vec(rho), from the operator form."""
    one, eye = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1), np.eye(n_max + 1)
    a, b, c = (np.kron(np.kron(x, y), z)
               for x, y, z in ((one, eye, eye), (eye, one, eye), (eye, eye, one)))
    H = (p.delta_a * a.T @ a + p.delta_b * b.T @ b + p.delta_c * c.T @ c
         + p.g_a * (c @ a.T + c.T @ a) + p.g_b * (c @ b.T + c.T @ b) + p.chi * (a.T + a))
    modes = ((p.gamma_a, p.n_a, a), (p.gamma_b, p.n_b, b), (p.gamma_c, p.n_c, c))
    jumps = [(gamma * (nbar + 1), x) for gamma, nbar, x in modes]
    jumps += [(gamma * nbar, x.T) for gamma, nbar, x in modes]
    K = -1j * H - 0.5 * sum(w * J.T @ J for w, J in jumps)
    eye = np.eye(len(H))
    G = sparse.kron(K, eye) + sparse.kron(eye, K.conj())
    for w, J in jumps:
        G = G + w * sparse.kron(J, J)
    return G.tocsr()


# the bound is set by the RK45 reference below (atol 1e-12, rtol 1e-9), whose
# own error is of order 1e-10; the Taylor path is exact to rounding
PATH_BOUND = 1e-9


@settings(deadline=None, max_examples=60)
@given(st.tuples(st.sampled_from([(), (1,), (3,)]), st.integers(1, 6)).flatmap(lambda shape: arrays(
    np.float64, shape[0] + (shape[1],) * 2, elements=st.floats() | st.sampled_from([0.0, -0.0]))))
def test_write_hermitian_is_the_where_formula_bit_for_bit(x):
    d = x.shape[-1]
    upper, strict = np.triu(np.ones((d, d), dtype=bool)), np.triu(np.ones((d, d), dtype=bool), 1)
    xt = x.swapaxes(-1, -2)
    expected = np.empty(x.shape, dtype=complex)
    expected.real = np.where(upper, x, xt)
    expected.imag = np.where(strict, xt, np.where(upper, 0.0, -x))
    out = np.full(x.shape, 1.5 + 2.5j)
    _write_hermitian(x, out)
    np.testing.assert_array_equal(out.view(np.uint64), expected.view(np.uint64))


def test_evolve_path_matches_solve_ivp():
    """The Taylor path on Hermitian coordinates matches the complex generator's
    exponential (n_max 2) and its RK45 path (n_max 3), and is exactly Hermitian."""
    p = preset_params("NA", 0.2)
    taus = np.linspace(0.0, 2.0, 9)
    spec = FockBasisSpec(2)
    rho0 = thermal_state(spec, (0.2, 0.1, 0.3))
    rhos = evolve_path(rho0, build_generator(p, spec), taus)
    G = _complex_generator(p, 2).toarray()
    exact = [expm(t * G) @ rho0.matrix.ravel() for t in taus]
    assert np.abs(rhos - np.reshape(exact, rhos.shape)).max() < PATH_BOUND
    assert np.array_equal(rhos, rhos.conj().swapaxes(-1, -2))

    spec = FockBasisSpec(3)
    rho0 = thermal_state(spec, (0.2, 0.1, 0.3))
    L = build_generator(p, spec)
    rhos = evolve_path(rho0, L, taus)
    G = _complex_generator(p, 3)
    sol = solve_ivp(lambda _t, y: G @ y, (0.0, 2.0), rho0.matrix.ravel(),
                    method="RK45", t_eval=taus, rtol=1e-9, atol=1e-12)
    assert np.abs(rhos - sol.y.T.reshape(rhos.shape)).max() < PATH_BOUND
    assert np.array_equal(rhos, rhos.conj().swapaxes(-1, -2))
    coherent = coherent_state(spec, (0.3j, 0.0, 0.1))
    np.testing.assert_array_equal(evolve_path(coherent, L, [0.0]), coherent.matrix[None])


@pytest.mark.parametrize("chi", [0.0, 0.2])
@pytest.mark.parametrize("config", ["AA", "AN", "NA", "NN"])
def test_evolve_path_is_the_exponential(config, chi):
    """At n_max 2 the path equals expm(tau G) rho0 of the dense complex generator."""
    p = preset_params(config, chi)
    spec = FockBasisSpec(2)
    taus = np.linspace(0.0, 5.0, 11)
    rho0 = thermal_state(spec, (0.2, 0.1, 0.3))
    rhos = evolve_path(rho0, build_generator(p, spec), taus)
    # one exponential over the grid spacing, applied sample by sample
    step = expm(0.5 * _complex_generator(p, 2).toarray())
    exact = [rho0.matrix.ravel()]
    for _ in taus[1:]:
        exact.append(step @ exact[-1])
    assert np.abs(rhos - np.reshape(exact, rhos.shape)).max() < 1e-12


def test_evolve_is_the_last_sample_of_evolve_path():
    """Equal on [0, t]; on a finer grid the samples inside steps leave the
    step sequence as it is, so the last sample differs by rounding only."""
    spec = FockBasisSpec(3)
    L = build_generator(preset_params("AN", 0.2), spec)
    rho0 = thermal_state(spec, (0.2, 0.1, 0.3))
    rho = evolve(rho0, L, 2.0).matrix
    np.testing.assert_array_equal(rho, evolve_path(rho0, L, [0.0, 2.0])[-1])
    assert np.abs(rho - evolve_path(rho0, L, np.linspace(0.0, 2.0, 21))[-1]).max() < 1e-14


def test_stiff_decay_is_exact_to_rounding():
    """A -800 identity generator: the first step, at h |L|_1 = 8, cancels
    past its bound and is halved; every sample is exp(-800 tau) x0."""
    spec = FockBasisSpec(1)
    L = build_generator(preset_params("AN", 0.0), spec)
    L.superop = -800.0 * sparse.identity(spec.dim ** 2, format="csr")
    rho0 = thermal_state(spec, (0.2, 0.1, 0.3))
    taus = np.linspace(0.0, 0.05, 11)
    rhos = evolve_path(rho0, L, taus)
    exact = np.exp(-800.0 * taus)[:, None, None] * rho0.matrix
    nonzero = exact != 0
    assert np.abs(rhos[nonzero] / exact[nonzero] - 1.0).max() < 1e-12
    assert np.array_equal(rhos[~nonzero], exact[~nonzero])


def test_evolution_rejects_non_hermitian_state():
    spec = FockBasisSpec(1)
    L = build_generator(preset_params("AN", 0.2), spec)
    m = thermal_state(spec, (0.2, 0.1, 0.3)).matrix.copy()
    m[0, 1] = 1e-9
    rho0 = DensityMatrix(m, spec)
    with pytest.raises(ValueError, match="hermiticity"):
        evolve_path(rho0, L, [0.0, 1.0])
    with pytest.raises(ValueError, match="hermiticity"):
        evolve(rho0, L, 1.0)


@settings(max_examples=30, deadline=None)
@given(system_params)
def test_superoperator_preserves_trace_structurally(p):
    """Each column's diagonal-coordinate rows sum to 0: Tr L(rho) = 0 for every rho."""
    spec = FockBasisSpec(2)
    superop = build_generator(p, spec).superop
    assert superop.dtype == np.float64
    diagonal = np.arange(spec.dim) * (spec.dim + 1)
    assert np.abs(superop[diagonal].sum(axis=0)).max() < 1e-12


def test_evolve_path_failure_reports_last_good_tau():
    spec = FockBasisSpec(1)
    L = build_generator(preset_params("AN", 0.0), spec)
    # a generator growing as exp(800 tau) overflows near tau 0.89
    L.superop = 800.0 * sparse.identity(spec.dim ** 2, format="csr")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError) as failure:
            evolve_path(fock_state(spec, (0, 0, 0)), L, np.linspace(0.0, 2.0, 5))
    assert 0.5 < failure.value.last_tau < 1.0


def test_zero_generator_identity_evolution():
    spec = FockBasisSpec(4)
    p = SystemParams(delta_a=0, delta_b=0, delta_c=0)
    L = build_generator(p, spec)
    rho0 = thermal_state(spec, (0.2, 0.1, 0.0))
    rho1 = evolve(rho0, L, 2.0)
    np.testing.assert_array_equal(rho1.matrix, rho0.matrix)


def test_evolve_validates_input():
    spec = FockBasisSpec(3)
    L = build_generator(preset_params("AN", 0.0), spec)
    rho0 = thermal_state(spec, (0.1, 0.1, 0.1))
    with pytest.raises(ValueError):
        evolve(rho0, L, -1.0)
    assert evolve(rho0, L, 0.0) is rho0


def test_evolve_path_rejects_decreasing_or_non_finite_grid():
    spec = FockBasisSpec(1)
    L = build_generator(preset_params("AN", 0.2), spec)
    rho0 = thermal_state(spec, (0.2, 0.1, 0.3))
    for taus in ([0.0, 2.0, 1.0], [0.0, np.nan]):
        with pytest.raises(ValueError, match="sample grid"):
            evolve_path(rho0, L, taus)
    # repeated samples stay allowed, and repeat their sample
    rhos = evolve_path(rho0, L, [0.0, 0.0, 1.0, 1.0])
    np.testing.assert_array_equal(rhos[:2], [rho0.matrix] * 2)
    np.testing.assert_array_equal(rhos[2], rhos[3])


def test_evolve_keeps_state_physical():
    spec = FockBasisSpec(5)
    p = preset_params("AN", 0.2)
    L = build_generator(p, spec)
    rho = evolve(thermal_state(spec, (0.2, 0.2, 0.2)), L, 2.0)
    rho.validate(herm_tol=1e-9, trace_tol=1e-8, eig_floor=1e-7)


def test_thermal_second_moments_match_dynamics_at_t1():
    spec = FockBasisSpec(6)
    sc = Scenario(params=preset_params("AN", 0.2), initial=initial_state(0.2, 0.2, 0.2),
                  t_max=1.0, sample_count=11)
    traj = integrate(sc)
    L = build_generator(sc.params, spec)
    rho = evolve(thermal_state(spec, (0.2, 0.2, 0.2)), L, 1.0)
    oracle_moments = moments_from_density(rho.matrix, spec)
    assert np.abs(oracle_moments - traj.states[-1]).max() < 1e-4


def test_witness_cross_check_against_oracle_at_small_occupations():
    """Closure-free witnesses from the moment pipeline match exact oracle values.

    AN preset with drive at occupations 0.2, tau = 1.  Witnesses built from
    second moments alone carry no closure error, so the only discrepancy is
    integration plus truncation, well under 1e-3.
    """
    spec = FockBasisSpec(6)
    sc = Scenario(params=preset_params("AN", 0.2), initial=initial_state(0.2, 0.2, 0.2),
                  t_max=1.0, sample_count=5)
    traj = integrate(sc)
    L = build_generator(sc.params, spec)
    rho = evolve(thermal_state(spec, (0.2, 0.2, 0.2)), L, 1.0)
    closed = dict(zip(WITNESS_NAMES, witness_table(traj.states[-1])))
    exact = dict(zip(WITNESS_NAMES, witness_table(exact_correlators(rho.matrix, spec))))
    names = [f"{f}_{k}" for f in ("var_x", "var_y") for k in ("A", "B", "C", "AB", "BC", "AC")]
    names += [f"{f}_{p}" for f in ("duan", "hz_etilde") for p in ("AB", "BC", "AC")]
    for name in names:
        assert abs(closed[name] - exact[name]) < 1e-3, name


def test_exact_correlator_examples():
    spec = FockBasisSpec(6)
    one = fock_state(spec, (1, 0, 0))
    assert _expect(one, "AdA") == pytest.approx(1.0)
    vac = fock_state(spec, (0, 0, 0))
    assert _expect(vac, "B") == 0.0
    assert _expect(vac, "AdAC") == 0.0
    coh = coherent_state(spec, (0.3, 0.0, 0.0))
    assert abs(_expect(coh, "A") - 0.3) < 1e-6
    # a stack gives each matrix's value, in the stack's shape
    stack = np.stack([one.matrix, vac.matrix, coh.matrix]).reshape(3, 1, spec.dim, spec.dim)
    got = exact_correlators(stack, spec)([word_for_name("AdA")])[0]
    assert got.shape == (3, 1)
    np.testing.assert_array_equal(
        got[:, 0], [_expect(rho, "AdA") for rho in (one, vac, coh)])


def _dense_words(words, n_max):
    """Dense matrices of operator words on the n_max basis."""
    one, eye = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1), np.eye(n_max + 1)
    lowering = [np.kron(np.kron(x, y), z)
                for x, y, z in ((one, eye, eye), (eye, one, eye), (eye, eye, one))]
    by_index = lowering + [a.T for a in lowering]  # A, B, C, Ad, Bd, Cd
    ops = []
    for word in words:
        op = np.eye((n_max + 1) ** 3)
        for f in word:
            op = op @ by_index[f]
        ops.append(op)
    return ops


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2), st.sampled_from([(), (2,), (2, 3)]), st.integers(0, 2**32 - 1))
def test_exact_correlators_read_the_hermitian_part(n_max, shape, seed):
    """On non-Hermitian complex stacks each catalog word is Tr[((rho + rho^dagger)/2) O]."""
    spec = FockBasisSpec(n_max)
    rng = np.random.default_rng(seed)
    size = shape + (spec.dim, spec.dim)
    rhos = (rng.normal(size=size) + 1j * rng.normal(size=size)) / spec.dim
    words = catalog_words()
    got = exact_correlators(rhos, spec)(words)
    herm = (rhos + rhos.conj().swapaxes(-1, -2)) / 2
    expected = np.stack([np.trace(herm @ op, axis1=-2, axis2=-1)
                         for op in _dense_words(words, n_max)])
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() < 1e-13


def test_moments_from_density_thermal():
    spec = FockBasisSpec(6)
    rhos = np.stack([thermal_state(spec, (0.2, 0.0, 0.1)).matrix, fock_state(spec, (1, 0, 2)).matrix])
    state, fock = moments_from_density(rhos, spec)
    assert abs(state[Moment.AdA] - 0.2) < 1e-4
    assert abs(state[Moment.CdC] - 0.1) < 1e-6
    for slot in range(27):
        if slot not in (Moment.AdA, Moment.BdB, Moment.CdC):
            assert abs(state[slot]) < 1e-12
    np.testing.assert_allclose(fock, initial_state(1, 0, 2).values, rtol=0, atol=1e-12)


def test_density_matrix_validation_errors():
    spec = FockBasisSpec(1)
    d = spec.dim
    m = np.zeros((d, d), complex)
    m[0, 0] = 1.0
    m[0, 1] = 0.1  # not Hermitian
    with pytest.raises(ValueError, match="hermiticity"):
        DensityMatrix(m, spec).validate()
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(d, dtype=complex), spec).validate()
    neg = np.zeros((d, d), complex)
    neg[0, 0] = 1.5
    neg[1, 1] = -0.5
    with pytest.raises(PositivityError):
        DensityMatrix(neg, spec).validate()
    with pytest.raises(ValueError, match="shape"):
        DensityMatrix(np.zeros((3, 3), complex), spec)


def test_closure_report_vacuum_is_exact():
    sc = Scenario(params=preset_params("AN", 0.0), initial=initial_state(0, 0, 0),
                  t_max=1.0, sample_count=5)
    report = closure_report(sc, FockBasisSpec(3))
    assert max(report.max_abs_error.values()) < 1e-10


def test_closure_report_thermal_undriven_fourth_order():
    sc = Scenario(params=preset_params("AN", 0.0), initial=initial_state(0.2, 0.2, 0.2),
                  t_max=2.0, sample_count=9)
    report = closure_report(sc, FockBasisSpec(6))
    for pair in ("AB", "BC", "AC"):
        assert report.max_abs_error[f"nn_{pair}"] < 1e-3
    assert report.witness_error("hz_e_AB") < 1e-3


def test_closure_report_driven_records_error():
    sc = Scenario(params=preset_params("AN", 0.2), initial=initial_state(0.2, 0.2, 0.2),
                  t_max=2.0, sample_count=9)
    report = closure_report(sc, FockBasisSpec(6))
    # no tolerance asserted for the driven case; the report records magnitude
    print("driven closure error:", {k: f"{v:.2e}" for k, v in report.max_abs_error.items()})
    assert all(np.isfinite(v) for v in report.max_abs_error.values())


@pytest.mark.parametrize("occupations", [(1.0, 0.2, 0.2), (0.2, 1.0, 0.2), (0.2, 0.2, 1.0)])
def test_closure_report_truncation_leakage(occupations):
    """Each mode in turn holds the largest top-level population."""
    spec = FockBasisSpec(3)
    sc = Scenario(params=preset_params("NA", 0.4), initial=initial_state(*occupations),
                  t_max=2.0, sample_count=9)
    report = closure_report(sc, spec)
    rhos = evolve_path(thermal_state(spec, occupations), build_generator(sc.params, spec),
                       report.taus)
    levels = np.unravel_index(np.arange(spec.dim), (spec.local_dim,) * 3)
    top = max(np.diagonal(rho).real[levels[mode] == spec.n_max].sum()
              for rho in rhos for mode in range(3))
    assert report.truncation_leakage == pytest.approx(top, rel=1e-12)
    assert report.truncation_leakage > 1e-3


def test_closure_report_rejects_coherences():
    init = initial_state(0.2, 0.2, 0.2).with_slot(Moment.A, 0.3)
    sc = Scenario(params=preset_params("AN", 0.0), initial=init, t_max=1.0, sample_count=5)
    with pytest.raises(ValueError, match="phase-insensitive"):
        closure_report(sc, FockBasisSpec(3))


def _path_correlators(rhos, spec):
    """Each word gathered from a density path, entry by entry: the reference
    formula for the functional ``closure_report`` streams."""
    def evaluate(words):
        values = []
        for op in _dense_words(words, spec.n_max):
            rows, cols = np.nonzero(op)
            values.append((rhos[..., cols, rows] + rhos[..., rows, cols].conj()) / 2.0 @ op[rows, cols])
        return np.stack(values)
    return evaluate


@pytest.mark.parametrize("chi", [0.0, 0.2])
@pytest.mark.parametrize("config", ["AN", "NA"])
def test_closure_report_matches_the_density_path(config, chi):
    """The streamed report equals the values read from the whole path: to
    1e-12 (word sums change order), with the same NaN cells and the same
    truncation leakage; its word table serves the catalog's words alone."""
    spec = FockBasisSpec(3)
    sc = Scenario(params=preset_params(config, chi), initial=initial_state(0.2, 0.2, 0.2),
                  t_max=5.0, sample_count=51)
    report = closure_report(sc, spec)
    rhos = evolve_path(thermal_state(spec, (0.2, 0.2, 0.2)), build_generator(sc.params, spec),
                       report.taus)
    path = _path_correlators(rhos, spec)
    np.testing.assert_allclose(report.exact, path(_REPORT_WORDS.values()).T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(report.witness_exact, witness_table(path), rtol=0, atol=1e-12)
    np.testing.assert_allclose(report.exact_words(catalog_words()),
                               path(catalog_words()), rtol=0, atol=1e-12)
    with pytest.raises(KeyError):
        report.exact_words([word_for_name("AAA")])
    n = spec.local_dim
    pops = np.diagonal(rhos, axis1=1, axis2=2).real.reshape(-1, n, n, n)
    leakage = max(float(top.sum(axis=(1, 2)).max())
                  for top in (pops[:, -1], pops[:, :, -1], pops[..., -1]))
    assert report.truncation_leakage == leakage


def test_closure_report_never_holds_the_density_path():
    """Its allocation peak stays below one complex (n, d, d) path."""
    spec = FockBasisSpec(3)
    params, init = preset_params("NA", 0.2), initial_state(0.2, 0.2, 0.2)
    closure_report(Scenario(params=params, initial=init, t_max=5.0, sample_count=5), spec)
    sc = Scenario(params=params, initial=init, t_max=5.0, sample_count=401)
    tracemalloc.start()
    try:
        closure_report(sc, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sc.sample_count * spec.dim ** 2 * 16
