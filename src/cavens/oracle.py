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
coordinates of rho, assembled as ``dynamics.coefficient_matrix``
assembles the moment equations: the sum of each term's value times its
superoperator at unit coefficient, which is cached per basis on one CSR
pattern shared by all terms (``_unit_terms``).  It is constant, so rho is
carried by Taylor series in steps, one real matvec per term and exact to
rounding, with ``scipy.sparse`` alone; every sampled rho is exactly
Hermitian.  The basis dimension is capped (at 512 = three modes at eight
levels each, n_max 7, where the generator holds 3.6e6 nonzeros).

Every expectation Tr[rho O] is one real-linear functional of the Hermitian
coordinates, one sparse product for a whole word list.
``exact_correlators`` applies it to a ``(..., d, d)`` density stack:
``moments_from_density`` reads the 27 stored moments from it, and
``witness_table(exact_correlators(rhos, spec))`` is the witness catalog on
exact instead of decoupled correlators.  ``closure_report`` applies the
same functional to each Taylor step's samples as they are formed, so it
never holds the ``(n, d, d)`` path that ``evolve_path`` returns; its
``exact_words`` table serves every word of the catalog at every sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, sqrt
from typing import Sequence

import numpy as np
from scipy import sparse

from .closure import SLOT_WORDS, decoupled, word_for_name as _word_for_name
from .dynamics import IntegrationError, integrate
from .model import Scenario, SystemParams, model_terms, occupations
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
# the unit terms are built in blocks of about this many generator rows each
_BUILD_ROWS = 1 << 15
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


@lru_cache(maxsize=8)
def _triangles(d: int):
    """Masks of the diagonal-and-upper and the strictly upper triangle of d x d."""
    ones = np.ones((d, d), dtype=bool)
    return np.triu(ones), np.triu(ones, 1)


def _coordinates(rho: np.ndarray) -> np.ndarray:
    """The d^2 real Hermitian coordinates of a Hermitian rho (see ``Liouvillian``)."""
    upper, _ = _triangles(rho.shape[-1])
    return np.where(upper, rho.real, rho.imag.T).ravel()


def _write_hermitian(x: np.ndarray, out: np.ndarray) -> None:
    """Write the exactly Hermitian matrices of coordinates ``x`` (..., d, d) into ``out``."""
    upper, strict = _triangles(x.shape[-1])
    xt, real, imag = x.swapaxes(-1, -2), out.real, out.imag
    np.copyto(real, x, where=upper)
    np.copyto(real, xt, where=strict.T)
    np.copyto(imag, xt, where=strict)
    np.negative(x, out=imag, where=strict.T)
    imag[(..., *np.diag_indices(x.shape[-1]))] = 0.0


def _row_entries(spec: FockBasisSpec, word: tuple):
    """A word's matrix X as ``(shift, values)``: X[p, p + shift] = values[p], 0 where row p is empty.

    Every word of ``model_terms`` is a monomial in the mode operators, so its
    entries all lie at one column shift; the empty word is the identity.
    Another word raises ``ValueError``.
    """
    values = np.zeros(spec.dim)
    if not word:
        return 0, values + 1.0
    X = _operator(spec, word)
    rows = np.repeat(np.arange(spec.dim), np.diff(X.indptr))
    stored = X.data != 0  # a kron product keeps the zeros of its factors
    (shift,) = set((X.indices - rows)[stored].tolist())
    values[rows[stored]] = X.data[stored].real
    return shift, values


def _term_factors(spec: FockBasisSpec) -> list:
    """Each term of ``model_terms`` at unit coefficient as i^e sum w X rho Yd, w real.

    A Hamiltonian word h gives -i (h rho - rho hd), e = 3; a jump J gives
    J rho Jd - {Jd J, rho}/2, e = 0, with Jd J the word Jd + J.  Per term,
    ``(e, by_shift)``: a dict from the column shifts ``(sx, sy)`` of X and
    Y to their ``(w, X values, Y values)``, since X rho Yd couples
    rho[p + sx, q + sy] to rho'[p, q] by X[p] Y[q].
    """
    hamiltonian, jumps = model_terms(SystemParams())
    terms = [(3, [(1.0, h, ()), (-1.0, (), h)]) for _, h in hamiltonian]
    for _, J in jumps:
        JdJ = tuple((f + 3) % 6 for f in reversed(J)) + J
        terms.append((0, [(1.0, J, J), (-0.5, JdJ, ()), (-0.5, (), JdJ)]))
    factors = []
    for e, term in terms:
        by_shift: dict = {}
        for w, X, Y in term:
            (sx, vx), (sy, vy) = _row_entries(spec, X), _row_entries(spec, Y)
            by_shift.setdefault((sx, sy), []).append((w, vx, vy))
        factors.append((e, by_shift))
    return factors


@lru_cache(maxsize=2)
def _unit_terms(spec: FockBasisSpec):
    """Each term of ``model_terms`` at unit coefficient as a superoperator on one CSR pattern.

    Returns ``(indices, indptr, terms)``: the CSR pattern that is the union
    of all terms' nonzero entries on the real coordinates of
    ``Liouvillian``, and per term, in ``model_terms`` order, ``(where,
    unit)``, the positions of its entries in that pattern and their values
    (a position may repeat; its values add).  Every array is read-only.
    Built on first use per basis, not at import, in blocks of about
    ``_BUILD_ROWS`` rows.

    An entry of rho'[p, q] at the column shifts (sx, sy) of ``_term_factors``
    meets the coordinates r d + s and s d + r, r, s = p + sx, q + sy
    (``_halves``).  So a row has one slot per shift pair and half, and
    its part of the pattern lists the slots that hold an entry of any term,
    the first halves in the order of r d + s, then the second halves in the
    order of s d + r.  The two coincide only for pairs of equal sx + sy, where
    the second half of one pair is the first half of the other on the
    diagonal p - q = sy' - sx; there it is listed once.
    """
    d, n = spec.dim, spec.dim ** 2
    factors = _term_factors(spec)
    pairs = {pair for _, by_shift in factors for pair in by_shift}
    slot = {(pair, 0): k for k, pair in enumerate(sorted(pairs))}
    slot |= {(pair, 1): len(pairs) + k for k, pair in enumerate(sorted(pairs, key=lambda s: s[::-1]))}
    repeats = [(slot[a, 0], slot[b, 1], b[1] - a[0]) for a in pairs for b in pairs if a != b and sum(a) == sum(b)]
    # a shift pair's two halves hold at most one entry per row (sin or cos below) where
    # one of its X[p] Y[q] is nonzero: fill arrays of that size, and keep what was filled
    sizes = [sum(min(n, sum(np.count_nonzero(vx) * np.count_nonzero(vy) for _, vx, vy in parts))
                 for parts in by_shift.values()) for _, by_shift in factors]
    where, unit = [np.empty(size, dtype=np.int32) for size in sizes], [np.empty(size) for size in sizes]
    indices, counts = np.empty(sum(sizes), dtype=np.int32), np.empty(n, dtype=np.int32)
    filled, written = 0, [0] * len(factors)
    step = max(1, _BUILD_ROWS // d)
    for start in range(0, d, step):
        p, q = np.arange(start, min(start + step, d), dtype=np.int32)[:, None], np.arange(d, dtype=np.int32)
        diff = (p - q).ravel()
        listed = np.zeros((len(slot), diff.size), dtype=bool)
        entries = []  # (term, slot, rows, values) of every nonzero entry
        halves = {}
        for k, (e, by_shift) in enumerate(factors):
            for (sx, sy), parts in by_shift.items():
                h = sum(w * np.multiply.outer(vx[p[:, 0]], vy) for w, vx, vy in parts).ravel()
                if (sx - sy, e) not in halves:
                    halves[sx - sy, e] = _halves(diff, sx - sy, e)
                for half, sign in enumerate(halves[sx - sy, e]):
                    val, s = h * sign, slot[(sx, sy), half]
                    nonzero = np.flatnonzero(val)
                    listed[s, nonzero] = True
                    entries.append((k, s, nonzero, val[nonzero]))
        repeated = []
        for first, second, c in repeats:
            on = np.flatnonzero((diff == c) & listed[first] & listed[second])
            listed[second, on] = False
            repeated.append((first, second, on))
        position = np.empty(listed.shape, dtype=np.int32)
        before = np.zeros(diff.size, dtype=np.int32)  # the row's slots listed so far
        for s, here in enumerate(listed):
            position[s] = before
            before += here
        position += np.cumsum(before, dtype=np.int32) - before + filled
        for first, second, on in repeated:
            position[second, on] = position[first, on]
        rows, transposed = (p * d + q).ravel(), (q * d + p).ravel()
        for ((sx, sy), half), s in slot.items():
            on = np.flatnonzero(listed[s])
            indices[position[s, on]] = rows[on] + (sx * d + sy) if half == 0 else transposed[on] + (sy * d + sx)
        for k, s, nonzero, val in entries:
            where[k][written[k]:written[k] + len(val)] = position[s, nonzero]
            unit[k][written[k]:written[k] + len(val)] = val
            written[k] += len(val)
        counts[start * d:start * d + diff.size] = before
        filled += int(before.sum())
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    pattern = (indices[:filled].copy(), indptr)
    terms = tuple((w[:m], u[:m]) for w, u, m in zip(where, unit, written))
    for a in pattern + sum(terms, ()):
        a.flags.writeable = False
    return pattern + (terms,)


_COS, _SIN = np.array([1.0, 0.0, -1.0, 0.0]), np.array([0.0, 1.0, 0.0, -1.0])


def _halves(diff: np.ndarray, shift: int, e: int):
    """The factors of a real entry h of i^e X rho Yd on its two halves, per coordinate row.

    ``diff`` is p - q per row and ``shift`` (r - s) - (p - q), r, s the
    row and column of rho the entry reads.  A row on or above the diagonal
    reads Re rho'[p, q], one below it Im rho'[q, p] = Re(i rho'[p, q]), since
    rho' is Hermitian, so it gets G = i^(e + [p > q]) h times
    rho[r, s] = x[lo d + hi] + i sign(s - r) x[hi d + lo].  The first half,
    at column r d + s, gets Re G (r <= s) or Im G (r > s); the second, at
    s d + r, -Im G (r < s), Re G (r > s) or nothing (r = s).  Together that
    is i^([r > s]) conj(G) = i^k h, k = [r > s] - [p > q] - e: the first
    half is h cos(k pi/2), the second h sin(k pi/2).
    """
    r_minus_s = diff + shift
    k = ((r_minus_s > 0).astype(np.int8) - (diff > 0) - e) & 3
    return _COS[k], np.where(r_minus_s == 0, 0.0, _SIN[k])


class Liouvillian:
    """The Lindblad generator as one real sparse matrix on rho's Hermitian coordinates.

    A Hermitian rho is held by the d^2 real entries of a d x d matrix X,
    read row-major: on and above the diagonal X[i, j] = Re rho[i, j], below
    it X[j, i] = Im rho[i, j] (i < j).  The generator is
    rho -> -i[H, rho] + sum_J w (J rho Jd - {Jd J, rho}/2), with H and the
    jumps J of rate w read from ``model_terms``.  ``superop`` is the sum,
    over the terms of nonzero value, of value times the term's cached
    superoperator at unit coefficient (``_unit_terms``), added into the
    data of their common CSR pattern, with exact zeros dropped; the
    right-hand side of the density equation is one real sparse matvec.
    """

    def __init__(self, spec: FockBasisSpec, params: SystemParams):
        self.spec = spec
        self.params = params
        hamiltonian, jumps = model_terms(params)
        indices, indptr, units = _unit_terms(spec)
        data = np.zeros(len(indices))
        for (value, _), (where, unit) in zip(hamiltonian + jumps, units):
            if value != 0.0:
                np.add.at(data, where, value * unit)
        # the generator's own index arrays: eliminate_zeros prunes them in place
        self.superop = sparse.csr_matrix((data, indices.copy(), indptr.copy()), shape=(spec.dim ** 2,) * 2)
        self.superop.eliminate_zeros()

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Evaluate -i[H, rho] plus all damping dissipators; rho must be Hermitian."""
        out = np.empty(rho.shape, dtype=complex)
        _write_hermitian((self.superop @ _coordinates(rho)).reshape(rho.shape), out)
        return out


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

    The samples of ``_taylor_rows``, written out as matrices; raises what it
    raises.
    """
    d = rho0.spec.dim
    path = np.empty((len(taus), d, d), dtype=complex)
    filled = 0
    for rows in _taylor_rows(rho0, L, taus):
        _write_hermitian(rows.reshape(-1, d, d), path[filled:filled + len(rows)])
        filled += len(rows)
    return path


def _taylor_rows(rho0: DensityMatrix, L: Liouvillian, taus):
    """Hermitian coordinates of exp(tau L) rho0 on a grid from 0, summed as Taylor series.

    Yields the samples in order, one ``(k, d^2)`` block per accepted step
    that covers any (the first block holds the samples at 0).  A step h from
    coordinates x forms v_0 = x, v_j = (h/j) superop v_(j-1) until two in a
    row are below unit roundoff times |x|, and sums them into its end value
    and, with weights theta^j, theta = (tau - t)/h, into each sample tau it
    covers; one matrix product per ``_BLOCK`` terms does both (Al-Mohy &
    Higham, *SIAM J. Sci. Comput.* 33, 488, 2011).  A step with a non-finite term or result, no
    convergence in ``_TERM_CAP`` terms, or a term above ``_CANCELLATION``
    times the result (cancellation) is halved; one of at most
    ``_FEW_TERMS`` terms doubles the next.  The first step has
    h |superop|_1 = 8: its terms stay below 8^8/8! |x|_1.

    Raises ``ValueError`` for a grid that is not finite, does not start at 0
    or decreases (repeated samples are allowed), or a non-Hermitian initial
    matrix (defect above 1e-10), which the coordinates cannot hold; and
    ``IntegrationError`` at the last good tau when a halved step no longer
    advances tau.
    """
    taus = np.asarray(taus, dtype=float)
    if not np.isfinite(taus).all():
        raise ValueError("sample grid must be finite")
    if taus.size == 0 or taus[0] != 0.0:
        raise ValueError("sample grid must start at 0")
    if (np.diff(taus) < 0).any():
        raise ValueError("sample grid must not decrease")
    defect = np.abs(rho0.matrix - rho0.matrix.conj().T).max()
    if defect > 1e-10:
        raise ValueError(f"initial state has hermiticity defect {defect:.3e} above 1e-10")
    d = rho0.spec.dim
    superop = L.superop
    x = _coordinates(rho0.matrix)
    # the samples at 0, which are all of them on a grid of zeros
    filled, t, t_end = int(np.searchsorted(taus, 0.0, side="right")), 0.0, float(taus[-1])
    yield np.tile(x, (filled, 1))
    norm = np.bincount(superop.indices, np.abs(superop.data), minlength=d * d).max()
    h = 8.0 / norm if norm else t_end
    block = np.empty((_BLOCK, d * d))
    while t < t_end:
        h = min(h, t_end - t)
        t_next = t_end if h == t_end - t else t + h
        stop = int(np.searchsorted(taus, t_next, side="right"))
        # one row per sample in (t, t_next], then the end value at theta 1
        theta = np.append((taus[filled:stop] - t) / h, 1.0)
        sums = np.tile(x, (len(theta), 1))
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
                sums += (theta[:, None] ** np.arange(first, j + 1)) @ block[:j + 1 - first]
                first = j + 1
            if small == 2:
                break
        result = np.abs(sums[-1]).max()
        if small == 2 and np.isfinite(result) and peak <= _CANCELLATION * result:
            if stop > filled:
                yield sums[:-1]
            filled, x, t = stop, sums[-1], t_next
            if j <= _FEW_TERMS:
                h *= 2
        else:
            h /= 2
            if t + h == t:
                raise IntegrationError("density-matrix integration failed: step size underflow", t)


@lru_cache(maxsize=64)
def _functional(spec: FockBasisSpec, words: tuple):
    """Tr[rho O] of each word as one real-linear map of rho's Hermitian coordinates.

    Returns ``(coords, F)``: the coordinate indices the words read, and a
    real CSR matrix of shape ``(2 W, len(coords))`` for W words whose row w
    gives Re Tr[rho O_w] and row W + w its Im.  Each entry O[r, c] meets
    rho[c, r] = x[min d + max] + i sigma x[max d + min], sigma = sign(r - c),
    so it adds Re(O) and -sigma Im(O) on those two coordinates to row w, and
    Im(O) and sigma Re(O) to row W + w; zero entries are dropped, and the
    entries of (r, c) and (c, r) are summed.  Cached per basis and word tuple.
    """
    d, n = spec.dim, len(words)
    rows, cols, vals = [], [], []
    for w, word in enumerate(words):
        op = _operator(spec, word).tocoo()
        r, c, o = op.row, op.col, op.data
        lo, hi, sigma = np.minimum(r, c), np.maximum(r, c), np.sign(r - c)
        for row, col, val in ((w, lo * d + hi, o.real), (w, hi * d + lo, -sigma * o.imag),
                              (n + w, lo * d + hi, o.imag), (n + w, hi * d + lo, sigma * o.real)):
            keep = val != 0.0
            rows.append(np.full(np.count_nonzero(keep), row))
            cols.append(col[keep])
            vals.append(val[keep])
    coords, cols = np.unique(np.concatenate(cols), return_inverse=True)
    F = sparse.coo_matrix((np.concatenate(vals), (np.concatenate(rows), cols)),
                          shape=(2 * n, len(coords))).tocsr()
    return coords, F


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
    conjugate-consistent at machine precision.  Only the coordinates the
    words read are gathered.
    """
    rhos = np.asarray(rhos)
    d = spec.dim
    flat = rhos.reshape(-1, d, d)

    def evaluate(words):
        words = tuple(words)
        coords, F = _functional(spec, words)
        p, q = np.divmod(coords, d)
        a, b = flat[:, p, q], flat[:, q, p]
        # on and above the diagonal Re of the Hermitian part, below it Im of its transpose
        x = np.where(p <= q, a.real + b.real, b.imag - a.imag) / 2.0
        return _expectations(F, x).reshape((len(words),) + rhos.shape[:-2])

    return evaluate


def moments_from_density(rhos: np.ndarray, spec: FockBasisSpec) -> np.ndarray:
    """All 27 stored moments of a ``(..., d, d)`` density stack, shape ``(..., 27)``."""
    return np.moveaxis(exact_correlators(rhos, spec)(SLOT_WORDS), 0, -1)


def _top_population(x: np.ndarray, spec: FockBasisSpec) -> float:
    """Largest population of any mode's top Fock level over coordinate rows ``x`` (k, d^2)."""
    n = spec.local_dim
    pops = x[:, ::spec.dim + 1].reshape(-1, n, n, n)
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
    path is never held: each Taylor step's samples are folded, as
    coordinates, into a table of the words the witness catalog reads (which
    include the report words) at every sample, kept as ``exact_words``, and
    into the top-level populations, so memory is O(samples x words + one
    step's samples), not O(samples x d^2).
    """
    occs = occupations(scenario.initial)
    traj = integrate(scenario)
    rho0 = thermal_state(basis, occs)
    L = build_generator(scenario.params, basis)

    words = catalog_words()
    coords, F = _functional(basis, words)
    table = np.empty((len(words), len(traj.taus)), dtype=complex)
    filled, leakage = 0, -np.inf
    for rows in _taylor_rows(rho0, L, traj.taus):
        table[:, filled:filled + len(rows)] = _expectations(F, rows[:, coords])
        leakage = max(leakage, _top_population(rows, basis))
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
        witness_closed=witness_table(traj.states),
        max_abs_error=max_err,
        truncation_leakage=leakage,
        exact_words=exact_words,
    )
