"""Independent truncated-Fock-space master-equation reference for the model.

Evolves the full three-mode density matrix under the Lindblad generator

    drho/dtau = -i[H, rho] + sum_J rate_J D[J] rho,

with the Hamiltonian H and the jumps J of ``model.model_terms``, each word
a product of mode operators (``_operator``), and
D[L]rho = L rho Ld - {Ld L, rho}/2.  Because the Hamiltonian is quadratic,
the moment equations that ``dynamics`` derives from the same terms are
exact consequences of this generator; the oracle therefore validates them
up to truncation leakage.  It keeps a thermal state Gaussian, on which the
three- and four-factor decoupling rules are exact too, so their oracle
error is truncation; only the composite number-triple rule behind
``bisep_e`` approximates.

The generator is one real sparse matrix on the d^2 real Hermitian
coordinates x of rho: each term's textbook Kronecker form S on vec(rho)
(Havel, *J. Math. Phys.* 44, 534, 2003) read through one cached map per
basis as Re(C S T) (``_hermitian_map``), on one CSR pattern cached per
basis (``_unit_terms``), and summed with its value by ``model.assemble``,
as the moment equations are.  It is constant, so rho is
carried by Taylor series in steps, one real matvec per term and exact to
rounding, with ``scipy.sparse`` alone; every sampled rho is exactly
Hermitian.  The basis dimension is capped (at 512 = three modes at eight
levels each, n_max 7, where the generator holds 3.6e6 nonzeros).

Every expectation Tr[rho O] = vec(O^T) T x is one real-linear functional
of the Hermitian coordinates, one sparse product for a whole word list.
``exact_correlators`` applies it to a ``(..., d, d)`` density stack:
``moments_from_density`` reads the 27 stored moments from it, and
``witness_table(exact_correlators(rhos, spec))`` is the witness catalog on
exact instead of decoupled correlators.  ``closure_report`` applies the
same functional to each Taylor step's samples as they are formed, on the
coordinates it reads alone, so it never holds the ``(n, d, d)`` path that
``evolve_path`` returns; its ``exact_words`` table serves every word of
the catalog at every sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, sqrt
from typing import Sequence

import numpy as np
from scipy import sparse

from .closure import decoupled
from .dynamics import IntegrationError, integrate
from .model import SLOT_WORDS, Scenario, SystemParams, assemble, model_terms, occupations
from .model import word_for_name as _word_for_name
from .witnesses import WITNESS_NAMES, catalog_words, witness_table

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

_TERM_CAP = 60
_FEW_TERMS = 30
_CANCELLATION = 1e3
_BLOCK = 8
# largest basis dimension: three modes at eight levels each
DIM_CAP = 512


class PositivityError(RuntimeError):
    """Evolved state lost positivity beyond tolerance.

    The truncated generator is still in Lindblad form, so it preserves
    positivity exactly, and the Taylor path is exact to rounding.
    """


@dataclass(frozen=True)
class FockBasisSpec:
    """Per-mode Fock truncation; levels 0..n_max are kept on all three modes.

    The basis dimension is capped at ``DIM_CAP``, so n_max is at most 7.
    """

    n_max: int

    def __post_init__(self):
        if not isinstance(self.n_max, (int, np.integer)):
            raise ValueError(f"n_max must be an integer, got {self.n_max!r}")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.dim > DIM_CAP:
            raise ValueError(f"n_max must be <= 7: basis dimension {self.dim} exceeds cap {DIM_CAP}")

    @property
    def local_dim(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return (self.n_max + 1) ** 3


@lru_cache(maxsize=4096)
def _operator(spec: FockBasisSpec, word: tuple) -> sparse.csr_matrix:
    """The product of A, B, C, Ad, Bd, Cd along an operator word, on the full basis.

    Cached per basis and word: a longer word is its prefix times its last operator.
    """
    if len(word) > 1:
        return _operator(spec, word[:-1]) @ _operator(spec, word[-1:])
    if word[0] >= 3:
        return _operator(spec, (word[0] - 3,)).conj().T.tocsr()
    factors = [sparse.identity(spec.local_dim, format="csr")] * 3
    factors[word[0]] = sparse.diags(np.sqrt(np.arange(1, spec.local_dim)), 1, format="csr")
    return sparse.kron(sparse.kron(factors[0], factors[1]), factors[2]).tocsr()


def _hermitian(m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """``m``; a hermiticity defect above ``tol`` raises ``ValueError``, as rho's coordinates x hold none."""
    if (defect := np.abs(m - m.conj().T).max()) > tol:
        raise ValueError(f"hermiticity defect {defect:.3e} exceeds {tol:g}")
    return m


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
        if not np.isfinite(m).all():
            raise ValueError("matrix must be finite")
        object.__setattr__(self, "matrix", m)

    def validate(
        self,
        herm_tol: float = 1e-10,
        trace_tol: float = 1e-8,
        eig_floor: float = 1e-8,
    ) -> None:
        m = _hermitian(self.matrix, herm_tol)
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
    for i, nbar in enumerate(nbars):
        if not 0 <= nbar < np.inf:
            raise ValueError(f"nbars[{i}] must be finite and >= 0, got {nbar}")
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
    for i, n in enumerate(occupations):
        if not (0 <= n <= spec.n_max and n == int(n)):
            raise ValueError(f"occupations[{i}] must be an integer in 0..{spec.n_max}, got {n}")
        idx = idx * spec.local_dim + int(n)
    m = np.zeros((spec.dim, spec.dim), dtype=complex)
    m[idx, idx] = 1.0
    return DensityMatrix(m, spec)


def coherent_state(spec: FockBasisSpec, alphas: Sequence[complex]) -> DensityMatrix:
    """Projector onto a product of truncated, renormalized coherent states."""
    vec = None
    for i, alpha in enumerate(alphas):
        if not np.isfinite(complex(alpha)):
            raise ValueError(f"alphas[{i}] must be finite, got {alpha}")
        n = np.arange(spec.local_dim)
        c = np.array(
            [complex(alpha) ** k / sqrt(factorial(k)) for k in n], dtype=complex
        )
        c /= np.linalg.norm(c)
        vec = c if vec is None else np.kron(vec, c)
    m = np.outer(vec, vec.conj())
    return DensityMatrix(m, spec)


@lru_cache(maxsize=2)
def _hermitian_map(spec: FockBasisSpec):
    """The d^2 real Hermitian coordinates x of rho as complex CSR maps ``(T, C)`` of row-major vec(rho).

    The one statement of the layout.  ``T @ x`` is vec(rho), exactly
    Hermitian: rho[p, q] = x[lo d + hi] + i sign(q - p) x[hi d + lo],
    lo, hi = min(p, q), max(p, q).  ``Re(C @ vec(rho))`` is x for a Hermitian
    rho: C reads rho[p, q] on and above the diagonal and -i rho[q, p] below
    it.  Cached per basis, built on first use.
    """
    d = spec.dim
    k = np.arange(d * d)
    p, q = np.divmod(k, d)
    upper, lower = np.minimum(p, q) * d + np.maximum(p, q), np.maximum(p, q) * d + np.minimum(p, q)
    # a diagonal row's two entries meet in one column and add to 1
    T = sparse.csr_matrix((np.append(np.ones(d * d), 1j * np.sign(q - p)), (np.tile(k, 2), np.append(upper, lower))),
                          shape=(d * d,) * 2)
    C = sparse.csr_matrix((np.where(p <= q, 1.0, -1j), (k, upper)), shape=(d * d,) * 2)
    return T, C


@lru_cache(maxsize=2)
def _unit_terms(spec: FockBasisSpec):
    """Each term of ``model_terms`` at unit coefficient as a superoperator on one CSR pattern.

    A term acts on row-major vec(rho) as S, with vec(X rho Y) =
    (X kron Y^T) vec(rho): a Hamiltonian word h gives
    -i(h kron 1 - 1 kron conj(h)), a jump J gives
    J kron conj(J) - (JdJ kron 1 + 1 kron conj(JdJ))/2, the words' matrices
    taken from ``_operator``.  On the Hermitian coordinates it is
    Re(C S T) (``_hermitian_map``) without its exact zeros.

    Returns ``(indices, indptr, terms)``: the canonical CSR pattern that is
    the union of all terms' entries, and per term the ``(where, unit)`` that
    ``model.assemble`` adds into its data.  Every array is read-only.  Built
    on first use per basis, not at import.
    """
    T, C = _hermitian_map(spec)
    n = spec.dim ** 2
    eye = sparse.identity(spec.dim, format="csr")
    hamiltonian, jumps = model_terms(SystemParams())

    def superoperators():
        for _, word in hamiltonian:
            h = _operator(spec, word)
            yield -1j * (sparse.kron(h, eye) - sparse.kron(eye, h.conj()))
        for _, word in jumps:
            J = _operator(spec, word)
            JdJ = J.conj().T @ J
            yield sparse.kron(J, J.conj()) - 0.5 * (sparse.kron(JdJ, eye) + sparse.kron(eye, JdJ.conj()))

    def real_part(S):
        """Re(C S T) as canonical CSR arrays ``(indptr, indices, values)``; the copied values free the complex M."""
        M = C @ S @ T
        M.sort_indices()
        keep = M.data.real != 0.0
        return np.cumsum(np.append(False, keep), dtype=np.int32)[M.indptr], M.indices[keep], M.data.real[keep]

    terms = [real_part(S) for S in superoperators()]
    union = sum(sparse.csr_array((np.ones(len(unit), dtype=bool), indices, indptr), shape=(n, n))
                for indptr, indices, unit in terms)
    # number the union's entries; each term becomes its entries' numbers, dropping its index arrays as it goes
    union.data = np.arange(union.nnz, dtype=np.int32)
    for k, (indptr, indices, unit) in enumerate(terms):
        terms[k] = union[np.repeat(np.arange(n), np.diff(indptr)), indices], unit
    indices, indptr, terms = union.indices, union.indptr, tuple(terms)
    for a in (indices, indptr) + sum(terms, ()):
        a.flags.writeable = False
    return indices, indptr, terms


class Liouvillian:
    """The Lindblad generator as one real sparse matrix on rho's Hermitian coordinates.

    A Hermitian rho is held by its d^2 real coordinates x
    (``_hermitian_map``).  The generator is
    rho -> -i[H, rho] + sum_J w (J rho Jd - {Jd J, rho}/2), with
    H and the jumps J of rate w read from ``model_terms``.  ``superop`` is
    ``model.assemble`` of the cached unit terms (``_unit_terms``) on their
    common CSR pattern, with exact zeros dropped; the right-hand side of
    the density equation is one real sparse matvec.
    """

    def __init__(self, spec: FockBasisSpec, params: SystemParams):
        self.spec = spec
        self.params = params
        indices, indptr, units = _unit_terms(spec)
        data = assemble(params, units, len(indices))
        # the generator's own index arrays: eliminate_zeros prunes them in place
        self.superop = sparse.csr_matrix((data, indices.copy(), indptr.copy()), shape=(spec.dim ** 2,) * 2)
        self.superop.eliminate_zeros()

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Evaluate -i[H, rho] plus all damping dissipators; raises ``ValueError`` unless rho is Hermitian."""
        T, C = _hermitian_map(self.spec)
        return (T @ (self.superop @ (C @ _hermitian(rho).ravel()).real)).reshape(rho.shape)


def build_generator(p: SystemParams, basis: FockBasisSpec) -> Liouvillian:
    """Lindblad generator of the model on the truncated basis."""
    return Liouvillian(basis, p)


def evolve(rho0: DensityMatrix, L: Liouvillian, t: float) -> DensityMatrix:
    """The last sample of ``evolve_path`` on [0, t], validated.

    Raises what ``evolve_path`` raises, and ``PositivityError`` when the
    evolved state has an eigenvalue below -1e-6: the truncated generator
    preserves positivity and the Taylor sum is exact to rounding, so that
    flags an unphysical initial state.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    raw = evolve_path(rho0, L, [0.0, t])[-1]
    if t == 0:
        return rho0
    state = DensityMatrix(raw, rho0.spec)
    state.validate(herm_tol=1e-8, trace_tol=1e-7, eig_floor=1e-6)
    return state


def evolve_path(rho0: DensityMatrix, L: Liouvillian, taus: np.ndarray) -> np.ndarray:
    """Exactly Hermitian exp(tau L) rho0 on a grid from 0, shape ``(len(taus), d, d)``.

    The samples of ``_taylor_rows`` on every coordinate, written out as
    matrices by T of ``_hermitian_map``; raises what it raises.
    """
    d = rho0.spec.dim
    T, _ = _hermitian_map(rho0.spec)
    # C-ordered: a sample's entries then sum in the order closure_report sums them
    path = np.empty((len(taus), d * d), dtype=complex)
    filled = 0
    for rows in _taylor_rows(rho0, L, taus, np.arange(d * d)):
        path[filled:filled + len(rows)] = (T @ rows.T).T
        filled += len(rows)
    return path.reshape(-1, d, d)


def _taylor_rows(rho0: DensityMatrix, L: Liouvillian, taus, read: np.ndarray):
    """Hermitian coordinates ``read`` of exp(tau L) rho0 on a grid from 0, summed as Taylor series.

    Yields the samples in order, one ``(k, len(read))`` block of x(tau)[read]
    per accepted step that covers any (the first block holds the samples at
    0); ``read`` is an index array into the d^2 coordinates.  A step h
    from coordinates x forms v_0 = x, v_j = (h/j) superop v_(j-1) until two
    in a row are below unit roundoff times |x|, and sums them, on all d^2
    coordinates, into its end value and, with weights theta^j,
    theta = (tau - t)/h, on the ``read`` ones alone, into each sample tau it
    covers: one sum and one matrix product per ``_BLOCK`` terms (Al-Mohy &
    Higham, *SIAM J. Sci. Comput.* 33, 488, 2011), so the samples cost
    O(samples x len(read)), whatever d^2.  A step with a non-finite term or result, no
    convergence in ``_TERM_CAP`` terms, or a term above ``_CANCELLATION``
    times the result (cancellation) is halved; one of at most
    ``_FEW_TERMS`` terms doubles the next.  The first step has
    h |superop|_1 = 8: its terms stay below 8^8/8! |x|_1.

    Raises ``ValueError`` for a grid that is not finite, does not start at 0
    or decreases (repeated samples are allowed), or a non-Hermitian initial
    matrix (``_hermitian``); and ``IntegrationError`` at the last good tau
    when a halved step no longer advances tau.
    """
    taus = np.asarray(taus, dtype=float)
    if not np.isfinite(taus).all():
        raise ValueError("sample grid must be finite")
    if taus.size == 0 or taus[0] != 0.0:
        raise ValueError("sample grid must start at 0")
    if (np.diff(taus) < 0).any():
        raise ValueError("sample grid must not decrease")
    d = rho0.spec.dim
    superop = L.superop
    x = (_hermitian_map(rho0.spec)[1] @ _hermitian(rho0.matrix).ravel()).real
    # the samples at 0, which are all of them on a grid of zeros
    filled, t, t_end = int(np.searchsorted(taus, 0.0, side="right")), 0.0, float(taus[-1])
    yield np.tile(x[read], (filled, 1))
    norm = np.bincount(superop.indices, np.abs(superop.data), minlength=d * d).max()
    h = 8.0 / norm if norm else t_end
    block = np.empty((_BLOCK, d * d))
    while t < t_end:
        h = min(h, t_end - t)
        t_next = t_end if h == t_end - t else t + h
        stop = int(np.searchsorted(taus, t_next, side="right"))
        # one row per sample in (t, t_next] on the read coordinates; the end value on all
        theta = (taus[filled:stop] - t) / h
        samples, end = np.tile(x[read], (len(theta), 1)), x.copy()
        peak = np.abs(x).max()
        tol, small, first, term = peak * np.finfo(float).eps / 2, 0, 1, x
        for j in range(1, _TERM_CAP + 1):
            term = np.multiply(superop @ term, h / j, out=block[(j - 1) % _BLOCK])
            size = np.abs(term).max()
            if not np.isfinite(size):
                break
            peak = max(peak, size)
            small = small + 1 if size <= tol else 0
            if small == 2 or j % _BLOCK == 0:
                terms = block[:j + 1 - first]
                samples += (theta[:, None] ** np.arange(first, j + 1)) @ terms[:, read]
                end += terms.sum(axis=0)
                first = j + 1
            if small == 2:
                break
        result = np.abs(end).max()
        if small == 2 and np.isfinite(result) and peak <= _CANCELLATION * result:
            if stop > filled:
                yield samples
            filled, x, t = stop, end, t_next
            if j <= _FEW_TERMS:
                h *= 2
        else:
            h /= 2
            if t + h == t:
                raise IntegrationError("density-matrix integration failed: step size underflow", t)


@lru_cache(maxsize=64)
def _functional(spec: FockBasisSpec, words: tuple):
    """Tr[rho O] of each word as one real-linear map of rho's Hermitian coordinates.

    Tr[rho O] = vec(O^T) . vec(rho) = vec(O^T) T x, with T of
    ``_hermitian_map``, so the W words' rows vec(O^T) T act on the real x.
    Returns ``(coords, F)``: the coordinate indices any row reads, and the
    real CSR matrix of shape ``(2 W, len(coords))`` whose row w is the Re of
    word w's row and row W + w its Im.  Cached per basis and word tuple.
    """
    T, _ = _hermitian_map(spec)
    rows = sparse.vstack([_operator(spec, word).T.reshape(1, -1) for word in words]) @ T
    F = sparse.vstack([rows.real, rows.imag], format="csr")
    F.eliminate_zeros()
    coords = np.unique(F.indices)
    return coords, F[:, coords].sorted_indices()


def _expectations(F: sparse.csr_matrix, x: np.ndarray) -> np.ndarray:
    """The words of ``F`` at coordinate rows ``x`` (m, len(coords)), shape ``(W, m)``."""
    values = np.empty((F.shape[0] // 2, len(x)), dtype=complex)
    values.real, values.imag = np.split(F @ x.T, 2)
    return values


def exact_correlators(rhos: np.ndarray, spec: FockBasisSpec):
    """Exact expectations of operator words for a ``(..., d, d)`` density stack.

    ``exact_correlators(rhos, spec)(words)`` is Tr[rho word] for each
    word, shape ``(len(words), ...)`` over the stack's leading shape: one
    real-linear functional (``_functional``) of the Hermitian coordinates of
    (rho + rho^dagger)/2, so the values are taken on the Hermitian part.
    Paths from ``evolve_path`` are already exactly Hermitian; for any other
    input this drops the antisymmetric part, so the moments are
    conjugate-consistent at machine precision.
    """
    rhos = np.asarray(rhos)
    d = spec.dim
    flat = rhos.reshape(-1, d, d)
    _, C = _hermitian_map(spec)

    def evaluate(words):
        words = tuple(words)
        coords, F = _functional(spec, words)
        vecs = (flat + flat.conj().swapaxes(-1, -2)).reshape(len(flat), d * d)
        x = (C[coords] @ vecs.T).real.T / 2.0
        return _expectations(F, x).reshape((len(words),) + rhos.shape[:-2])

    return evaluate


def moments_from_density(rhos: np.ndarray, spec: FockBasisSpec) -> np.ndarray:
    """All 27 stored moments of a ``(..., d, d)`` density stack, shape ``(..., 27)``."""
    return np.moveaxis(exact_correlators(rhos, spec)(SLOT_WORDS), 0, -1)


def _top_population(pops: np.ndarray, spec: FockBasisSpec) -> float:
    """Largest population of any mode's top Fock level over population rows ``pops`` (k, d)."""
    n = spec.local_dim
    pops = pops.reshape(-1, n, n, n)
    return max(float(top.sum(axis=(1, 2)).max()) for top in (pops[:, -1], pops[:, :, -1], pops[..., -1]))


@dataclass(frozen=True)
class ClosureReport:
    """Exact versus decoupled correlators along one scenario.

    ``exact`` holds oracle correlators, ``closed`` the same quantities from
    the moment pipeline with decoupling, both ``(n, len(correlator_names))``
    complex arrays; witness tables (columns ``WITNESS_NAMES``) are carried
    both ways.  ``max_abs_error`` summarizes the largest discrepancy per
    quantity over the whole grid.
    ``truncation_leakage`` is the largest population of any mode's top Fock
    level n_max over the grid, the oracle's own measure of truncation error.
    ``exact_words`` is the oracle's table of every word of ``catalog_words()``
    (the 27 stored moments among them) at every sample, as a function of a
    word list: ``exact_words(words)`` has shape ``(len(words), n)``, and a
    word outside the catalog raises ``KeyError``.
    """

    taus: np.ndarray
    correlator_names: tuple
    exact: np.ndarray
    closed: np.ndarray
    witness_exact: np.ndarray
    witness_closed: np.ndarray
    max_abs_error: dict
    truncation_leakage: float
    exact_words: object

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
    correlators and witnesses against exact oracle values.  The density
    path is never held: each Taylor step's samples are formed only on the
    coordinates that the words of the witness catalog (which include the
    report words) read, the populations among them, and folded into a table
    of those words at every sample, kept as ``exact_words``, and into the
    top-level populations, so memory is O(samples x words + one step's
    samples on the read coordinates), not O(samples x d^2).
    """
    occs = occupations(scenario.initial)
    traj = integrate(scenario)
    witness_closed = witness_table(traj.states)  # a moment-side failure ends the report before the oracle runs
    rho0 = thermal_state(basis, occs)
    L = build_generator(scenario.params, basis)

    words = catalog_words()
    coords, F = _functional(basis, words)
    # the leakage reads the populations among the words' coordinates
    populations = np.arange(basis.dim) * (basis.dim + 1)
    assert np.isin(populations, coords).all(), "the catalog words miss a population"
    diagonal = np.searchsorted(coords, populations)
    table = np.empty((len(words), len(traj.taus)), dtype=complex)
    filled, leakage = 0, -np.inf
    for rows in _taylor_rows(rho0, L, traj.taus, coords):
        table[:, filled:filled + len(rows)] = _expectations(F, rows)
        # take keeps each row contiguous, so the level sums add as on a density path's diagonal
        leakage = max(leakage, _top_population(rows.take(diagonal, axis=1), basis))
        filled += len(rows)
    column = {word: i for i, word in enumerate(words)}

    def exact_words(ws):
        return table[[column[w] for w in ws]]

    closed = decoupled(traj.states, _REPORT_WORDS.values()).T
    exact = exact_words(_REPORT_WORDS.values()).T
    max_err = dict(zip(_REPORT_WORDS, np.abs(exact - closed).max(axis=0).tolist()))
    return ClosureReport(
        taus=traj.taus,
        correlator_names=tuple(_REPORT_WORDS),
        exact=exact,
        closed=closed,
        witness_exact=witness_table(exact_words),
        witness_closed=witness_closed,
        max_abs_error=max_err,
        truncation_leakage=leakage,
        exact_words=exact_words,
    )
