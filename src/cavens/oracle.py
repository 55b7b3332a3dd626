"""Independent truncated-Fock-space master-equation reference for the model.

Evolves the full three-mode density matrix under the Lindblad generator

    drho/dtau = -i[H, rho]
                + sum_x Gamma_x [ (nbar_x + 1) D[x] rho + nbar_x D[xd] rho ],

with H the interaction-picture Hamiltonian (detunings, beam-splitter
couplings to the cavity, classical drive on mode A) and
D[L]rho = L rho Ld - {Ld L, rho}/2.  Because the Hamiltonian is quadratic,
the moment equations integrated by ``dynamics`` are exact consequences of
this generator; the oracle therefore validates them up to truncation
leakage, and quantifies the error of the higher-order decoupling rules
which are *not* exact.

The generator is one sparse superoperator on vec(rho), built once per run,
so each RK45 right-hand side is one matvec; the basis dimension is capped
(default 512 = three modes at eight levels each, n_max 7, where the
superoperator holds 3.4e6 nonzeros).

Every expectation Tr[rho O] comes from ``exact_correlators``, batched over a
``(..., d, d)`` density stack: ``moments_from_density`` reads the 27 stored
moments from it, and ``witness_table(exact_correlators(rhos, spec))`` is the
witness catalog on exact instead of decoupled correlators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, sqrt
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.integrate import RK45

from .closure import SLOT_WORDS, OperatorFactor, word_for_name as _word_for_name
from .dynamics import IntegrationError, integrate
from .model import Scenario, SystemParams, occupations
from .witnesses import WITNESS_NAMES, Correlators, decoupled, witness_table

__all__ = [
    "FockBasisSpec",
    "DensityMatrix",
    "Liouvillian",
    "PositivityError",
    "build_generator",
    "evolve",
    "evolve_path",
    "exact_correlators",
    "moments_from_density",
    "thermal_state",
    "fock_state",
    "coherent_state",
    "ClosureReport",
    "closure_report",
]

_MODE_INDEX = {"A": 0, "B": 1, "C": 2}

# RK45 tolerances of every density propagation
ATOL = 1e-12
RTOL = 1e-9


class PositivityError(RuntimeError):
    """Evolved state lost positivity beyond tolerance; truncation too small."""


@dataclass(frozen=True)
class FockBasisSpec:
    """Per-mode Fock truncation; levels 0..n_max are kept on all three modes.

    The default ``dim_cap`` of 512 = 8**3 admits n_max up to 7.
    """

    n_max: int
    dim_cap: int = 512

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.dim > self.dim_cap:
            raise ValueError(
                f"basis dimension {self.dim} exceeds cap {self.dim_cap}"
            )

    @property
    def local_dim(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return (self.n_max + 1) ** 3


@lru_cache(maxsize=8)
def _mode_ops(spec: FockBasisSpec):
    """Sparse annihilators and creators of the three modes on the full basis."""
    d = spec.local_dim
    a1 = sparse.diags(np.sqrt(np.arange(1, d)), 1, format="csr")
    eye = sparse.identity(d, format="csr")
    factors = [(a1, eye, eye), (eye, a1, eye), (eye, eye, a1)]
    lowering = [
        sparse.kron(sparse.kron(x, y), z).tocsr() for x, y, z in factors
    ]
    raising = [op.conj().T.tocsr() for op in lowering]
    return lowering, raising


def _op_for_factor(spec: FockBasisSpec, f: OperatorFactor) -> sparse.csr_matrix:
    lowering, raising = _mode_ops(spec)
    table = raising if f.daggered else lowering
    return table[_MODE_INDEX[f.mode]]


@dataclass(frozen=True)
class DensityMatrix:
    """Three-mode state on the truncated basis.

    A valid state is Hermitian (defect below 1e-10), unit trace (within
    1e-8) and positive up to a small numerical floor; ``validate`` checks
    those bounds and is called with looser floors on integrator output.
    """

    matrix: np.ndarray
    spec: FockBasisSpec

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.spec.dim, self.spec.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match basis dim {self.spec.dim}"
            )
        object.__setattr__(self, "matrix", m)

    def validate(
        self,
        herm_tol: float = 1e-10,
        trace_tol: float = 1e-8,
        eig_floor: float = 1e-8,
    ) -> None:
        m = self.matrix
        herm = np.abs(m - m.conj().T).max()
        if herm > herm_tol:
            raise ValueError(f"hermiticity defect {herm:.3e} exceeds {herm_tol:g}")
        tr = np.trace(m)
        if abs(tr - 1.0) > trace_tol:
            raise ValueError(f"trace defect {abs(tr - 1.0):.3e} exceeds {trace_tol:g}")
        lowest = np.linalg.eigvalsh((m + m.conj().T) / 2.0).min()
        if lowest < -eig_floor:
            raise PositivityError(
                f"negative eigenvalue {lowest:.3e} below floor -{eig_floor:g}"
            )


def thermal_state(spec: FockBasisSpec, nbars: Sequence[float]) -> DensityMatrix:
    """Product of single-mode thermal states, renormalized after truncation."""
    rho = None
    for nbar in nbars:
        if nbar < 0:
            raise ValueError("thermal occupation must be >= 0")
        n = np.arange(spec.local_dim, dtype=float)
        if nbar == 0:
            p = np.zeros(spec.local_dim)
            p[0] = 1.0
        else:
            p = (nbar / (1.0 + nbar)) ** n
            p /= p.sum()
        rho = p if rho is None else np.kron(rho, p)
    state = DensityMatrix(np.diag(rho.astype(complex)), spec)
    state.validate()
    return state


def fock_state(spec: FockBasisSpec, occupations: Sequence[int]) -> DensityMatrix:
    """Projector onto a product number state |na, nb, nc>."""
    idx = 0
    for n in occupations:
        if not 0 <= n <= spec.n_max:
            raise ValueError(f"occupation {n} outside truncation 0..{spec.n_max}")
        idx = idx * spec.local_dim + int(n)
    m = np.zeros((spec.dim, spec.dim), dtype=complex)
    m[idx, idx] = 1.0
    return DensityMatrix(m, spec)


def coherent_state(spec: FockBasisSpec, alphas: Sequence[complex]) -> DensityMatrix:
    """Projector onto a product of truncated, renormalized coherent states."""
    vec = None
    for alpha in alphas:
        n = np.arange(spec.local_dim)
        c = np.array(
            [complex(alpha) ** k / sqrt(factorial(k)) for k in n], dtype=complex
        )
        c /= np.linalg.norm(c)
        vec = c if vec is None else np.kron(vec, c)
    m = np.outer(vec, vec.conj())
    return DensityMatrix(m, spec)


class Liouvillian:
    """The Lindblad generator as one sparse superoperator on row-major vec(rho).

    With vec(X rho Y) = kron(X, Y^T) vec(rho), the generator is
    kron(K, I) + kron(I, conj(K)) + sum_J w kron(J, conj(J)) for jump
    operators J of weight w and the effective Hamiltonian
    K = -iH - sum_J w Jd J / 2.  ``superop`` is assembled once, as CSR, so
    the density right-hand side is a single sparse matvec.
    """

    def __init__(self, spec: FockBasisSpec, params: SystemParams):
        self.spec = spec
        self.params = params
        lowering, raising = _mode_ops(spec)
        deltas = (params.delta_a, params.delta_b, params.delta_c)
        H = sum(
            delta * (ad @ a)
            for delta, a, ad in zip(deltas, lowering, raising)
        )
        a_A, a_B, a_C = lowering
        ad_A, ad_B, ad_C = raising
        H = H + params.g_a * (a_C @ ad_A + ad_C @ a_A)
        H = H + params.g_b * (a_C @ ad_B + ad_C @ a_B)
        H = H + params.chi * (ad_A + a_A)

        rates = (params.gamma_a, params.gamma_b, params.gamma_c)
        nbars = (params.n_a, params.n_b, params.n_c)
        jumps = []
        for gamma, nbar, a, ad in zip(rates, nbars, lowering, raising):
            jumps += [(gamma * (nbar + 1.0), a), (gamma * nbar, ad)]
        jumps = [(w, J) for w, J in jumps if w != 0.0]
        K = -1j * H - 0.5 * sum(w * (J.conj().T @ J) for w, J in jumps)
        eye = sparse.identity(spec.dim, format="csr")
        gen = sparse.kron(K, eye) + sparse.kron(eye, K.conj())
        for w, J in jumps:
            gen = gen + w * sparse.kron(J, J.conj())
        self.superop = gen.tocsr()

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Evaluate -i[H, rho] plus all damping dissipators."""
        return (self.superop @ rho.ravel()).reshape(rho.shape)


def build_generator(p: SystemParams, basis: FockBasisSpec) -> Liouvillian:
    """Lindblad generator of the model on the truncated basis."""
    return Liouvillian(basis, p)


def _integrate_rho(rho0: DensityMatrix, L: Liouvillian, t_eval: np.ndarray) -> np.ndarray:
    """RK45 path sampled at ``t_eval`` (starting at 0) into one preallocated array.

    Steps the solver as ``solve_ivp(t_eval=...)`` does and fills each step's
    samples from its dense output, so the values are the same, but the path
    is held once instead of as per-step chunks joined at the end.
    """
    d = rho0.spec.dim
    superop = L.superop
    solver = RK45(lambda _t, y: superop @ y, 0.0, rho0.matrix.ravel(), float(t_eval[-1]),
                  rtol=RTOL, atol=ATOL)
    path = np.empty((len(t_eval), d * d), dtype=complex)
    # sample 0 is the initial state itself: the dense output of a zero-length
    # span (a grid of [0] alone) is real-valued in scipy
    path[0] = solver.y
    filled = 1
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise IntegrationError(f"density-matrix integration failed: {message}", solver.t)
        # samples up to and including the step's end
        stop = int(np.searchsorted(t_eval, solver.t, side="right"))
        if stop > filled:
            path[filled:stop] = solver.dense_output()(t_eval[filled:stop]).T
            filled = stop
    return path.reshape(len(t_eval), d, d)


def evolve(rho0: DensityMatrix, L: Liouvillian, t: float) -> DensityMatrix:
    """Propagate a state to time t and validate the result.

    Raises ``PositivityError`` when the evolved state has an eigenvalue
    below -1e-6, the signature of a too-small truncation.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return rho0
    raw = _integrate_rho(rho0, L, np.array([0.0, t]))[-1]
    state = DensityMatrix(raw, rho0.spec)
    state.validate(herm_tol=1e-8, trace_tol=1e-7, eig_floor=1e-6)
    return state


def evolve_path(rho0: DensityMatrix, L: Liouvillian, taus: np.ndarray) -> np.ndarray:
    """Raw density matrices sampled along a grid starting at 0."""
    taus = np.asarray(taus, dtype=float)
    if taus[0] != 0.0:
        raise ValueError("sample grid must start at 0")
    return _integrate_rho(rho0, L, taus)


@lru_cache(maxsize=4096)
def _word_op_entries(spec: FockBasisSpec, word: tuple):
    """COO entries of the operator product, cached per basis and word."""
    op = _op_for_factor(spec, word[0])
    for f in word[1:]:
        op = op @ _op_for_factor(spec, f)
    coo = op.tocoo()
    return coo.row.copy(), coo.col.copy(), coo.data.copy()


def exact_correlators(rhos: np.ndarray, spec: FockBasisSpec) -> Correlators:
    """Exact expectations of operator words for a ``(..., d, d)`` density stack.

    ``exact_correlators(rhos, spec).word(*word)`` is Tr[rho word] with the
    stack's leading shape, summed as O[r, c] rho[c, r] over the stored
    entries of the word operator.  Values are taken on the Hermitian part
    (rho + rho^dagger)/2, which drops the integrator's antisymmetric noise,
    so the moments are conjugate-consistent at machine precision.
    """
    rhos = np.asarray(rhos)

    def correlate(word):
        rows, cols, data = _word_op_entries(spec, tuple(word))
        entries = (rhos[..., cols, rows] + rhos[..., rows, cols].conj()) / 2.0
        return entries @ data

    return Correlators(correlate)


def moments_from_density(rhos: np.ndarray, spec: FockBasisSpec) -> np.ndarray:
    """All 27 stored moments of a ``(..., d, d)`` density stack, shape ``(..., 27)``."""
    exact = exact_correlators(rhos, spec)
    return np.stack([exact.word(*word) for word in SLOT_WORDS], axis=-1)


@dataclass(frozen=True)
class ClosureReport:
    """Exact versus decoupled correlators along one scenario.

    ``exact`` holds oracle correlators, ``closed`` the same quantities from
    the moment pipeline with decoupling; witness tables (columns
    ``WITNESS_NAMES``) are carried both ways.  ``max_abs_error`` summarizes
    the largest discrepancy per quantity over the whole grid.
    ``truncation_leakage`` is the largest population of any mode's top Fock
    level n_max over the grid, the oracle's own measure of truncation error.
    """

    taus: np.ndarray
    correlator_names: tuple
    exact: dict
    closed: dict
    witness_exact: np.ndarray
    witness_closed: np.ndarray
    max_abs_error: dict
    truncation_leakage: float

    def witness_error(self, column: str) -> float:
        i = WITNESS_NAMES.index(column)
        diffs = np.abs(self.witness_exact[:, i] - self.witness_closed[:, i])
        diffs = diffs[np.isfinite(diffs)]
        return float(diffs.max()) if diffs.size else float("nan")


_REPORT_WORDS = {
    name: _word_for_name(text)
    for name, text in (("nn_AB", "AdABdB"), ("nn_BC", "BdBCdC"), ("nn_AC", "AdACdC"),
                       ("ABCd", "ABCd"), ("nnn", "AdABdBCdC"))
}


def closure_report(scenario: Scenario, basis: FockBasisSpec) -> ClosureReport:
    """Quantify the decoupling error of the moment pipeline against the oracle.

    Runs the moment integration and the master-equation evolution on the
    same scenario (which must have phase-insensitive initial data, i.e.
    occupations only, so the oracle can start from the matching thermal
    product) and tabulates the pipeline's decoupled fourth/sixth-order
    correlators and witnesses against exact oracle values.
    """
    occs = occupations(scenario.initial)
    traj = integrate(scenario)
    rho0 = thermal_state(basis, occs)
    L = build_generator(scenario.params, basis)
    rhos = evolve_path(rho0, L, traj.taus)

    closed_source = decoupled(traj.states)
    exact_source = exact_correlators(rhos, basis)
    closed = {name: closed_source.word(*word) for name, word in _REPORT_WORDS.items()}
    exact = {name: exact_source.word(*word) for name, word in _REPORT_WORDS.items()}
    d = basis.local_dim
    pops = np.diagonal(rhos, axis1=1, axis2=2).real.reshape(-1, d, d, d)
    leakage = max(float(top.sum(axis=(1, 2)).max())
                  for top in (pops[:, -1], pops[:, :, -1], pops[..., -1]))

    max_err = {
        name: float(np.abs(exact[name] - closed[name]).max())
        for name in _REPORT_WORDS
    }
    return ClosureReport(
        taus=traj.taus,
        correlator_names=tuple(_REPORT_WORDS),
        exact=exact,
        closed=closed,
        witness_exact=witness_table(exact_source),
        witness_closed=witness_table(closed_source),
        max_abs_error=max_err,
        truncation_leakage=leakage,
    )
