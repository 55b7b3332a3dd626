"""The 27 coupled linear moment equations and their integration.

With the reservoir noise averaged out, the quantum Langevin equations
(Gardiner & Collett, PRA 31, 3761, 1985) of the Hamiltonian H and the
jumps J of ``model.model_terms`` give every operator word w

    d<w>/dtau = <i[H, w]> + sum_J rate_J <Jd w J - (Jd J w + w Jd J)/2>.

As H is quadratic and every jump is one operator, the right-hand side of
a mean or a pair moment normal-orders back into the 6 means, the 21 pair
moments and <1>: the moment vector s obeys

    ds/dtau = M(p) s + b(p)

with a constant 27x27 complex ``M`` and the affine source ``b`` (drive and
thermal feed), both derived by ``coefficient_matrix``.  The full redundant
set, with all conjugate moments, is integrated so that conjugate-pair
consistency is a free correctness check: the equation list is closed under
Hermitian conjugation.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import CONJUGATE_SLOT, SLOT_OF, SLOT_WORDS, Moment, Scenario, SystemParams, _normal_order
from .model import assemble, dagger, model_terms

__all__ = [
    "Trajectory",
    "IntegrationError",
    "NoSteadyStateError",
    "coefficient_matrix",
    "conjugate_closure_defect",
    "integrate",
    "integrate_batch",
    "steady_state_first_moments",
]

_SLOT_OF = SLOT_OF | {(): 27}  # the empty word <1> is column 27, b


class IntegrationError(RuntimeError):
    """Adaptive integration failed; ``last_tau`` is the last good time."""

    def __init__(self, message: str, last_tau: float):
        super().__init__(f"{message} (last good tau = {last_tau:g})")
        self.last_tau = last_tau


class NoSteadyStateError(RuntimeError):
    """The first-moment subsystem has no unique fixed point."""


@dataclass(frozen=True)
class Trajectory:
    """Moment states on a strictly increasing time grid starting at 0."""

    taus: np.ndarray        # shape (n,)
    states: np.ndarray      # shape (n, 27) complex

    def __post_init__(self):
        object.__setattr__(self, "taus", np.asarray(self.taus, dtype=float))
        object.__setattr__(self, "states", np.asarray(self.states, dtype=complex))
        if self.taus.ndim != 1 or self.states.shape != (self.taus.size, 27):
            raise ValueError("trajectory arrays have inconsistent shapes")
        if self.taus[0] != 0.0 or np.any(np.diff(self.taus) <= 0):
            raise ValueError("time grid must be strictly increasing from 0")
        self.taus.flags.writeable = False
        self.states.flags.writeable = False

    def __len__(self) -> int:
        return self.taus.size


@lru_cache(maxsize=1)
def _generators() -> tuple:
    """The nonzero [M | b] entries of each term of ``model_terms`` at unit coefficient.

    Row w is the term's share of d<w>/dtau, normal-ordered; a word with no slot
    raises ``KeyError``.  Entries are flat indices into the float64 view of [M | b],
    with values +-1/2, +-1 or +-2.  Built on the first call, not at import.
    """
    hamiltonian, jumps = model_terms(SystemParams())
    terms = [[(1j, h, ()), (-1j, (), h)] for _, h in hamiltonian]
    for _, J in jumps:
        Jd = dagger(J)
        terms.append([(1.0, Jd, J), (-0.5, Jd + J, ()), (-0.5, (), Jd + J)])
    G = np.zeros((len(terms), 27, 28), dtype=complex)
    for k, term in enumerate(terms):
        for row, w in enumerate(SLOT_WORDS):
            out: dict = {}
            for c, left, right in term:
                _normal_order(left + w + right, c, out)
            for word, c in out.items():
                if c != 0:  # the quartic words cancel
                    G[k, row, _SLOT_OF[word]] = c
    return tuple((np.flatnonzero(g), g[g != 0]) for g in G.view(float).reshape(len(terms), -1))


def coefficient_matrix(p: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """(M, b) as ``model.assemble`` of ``_generators`` on the float64 view of [M | b]; every product is exact."""
    Mb = assemble(p, _generators(), 27 * 28 * 2).view(complex).reshape(27, 28)
    return np.ascontiguousarray(Mb[:, :27]), Mb[:, 27].copy()


@lru_cache(maxsize=64)
def _cached_system(p: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    M, b = coefficient_matrix(p)
    M.flags.writeable = False
    b.flags.writeable = False
    return M, b


# Dormand & Prince (1980), J. Comput. Appl. Math. 6, 19: the 5(4) tableau,
# the error weights E and the quartic dense-output matrix P, with the step
# controller of Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4, in the
# form and operation order of scipy's RK45, so both give the same bits
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
# stored complex, as numpy would cast them for every product with the stages
_A, _B, _E, _P = (a.astype(complex) for a in (_A, _B, _E, _P))
_RTOL, _ATOL = 1e-9, 1e-10
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10, -1 / 5


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(M, b, y, f, t_max: float) -> float:
    """Hairer, Norsett & Wanner's starting step for a 4th-order error estimate."""
    scale = _ATOL + np.abs(y) * _RTOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_max)
    d2 = _rms((M @ (y + h0 * f) + b - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, t_max)


# pending spans that trigger a write: a bound on the stages held back, where
# deferring a whole run would hold every step's stages at once
_CHUNK = 64


class _DenseOutput:
    """The quartic interpolants of accepted steps, written into ``states`` in chunks.

    A span is one step that passed samples: its scenario, first and end
    sample, start time t and step h, with its 7 stages and start state.  A
    chunk's ``K.T @ P`` is one stacked matmul; then spans are grouped by
    sample count, because ``np.dot`` computes one sample by gemv and more by
    gemm, whose bits differ, so only a group of equal counts repeats the
    per-step products bit for bit.
    """

    def __init__(self, taus: np.ndarray, states: np.ndarray):
        self.taus, self.states = taus, states
        self.pending = []  # (stages (7, k, 27), starts (k, 27), k spans) per pass
        self.count = 0

    def add(self, stages: np.ndarray, starts: np.ndarray, spans: list) -> None:
        self.pending.append((stages, starts, spans))
        self.count += len(spans)
        if self.count >= _CHUNK:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        stages, starts, spans = zip(*self.pending)
        self.pending, self.count = [], 0
        Q = np.matmul(np.concatenate(stages, axis=1).transpose(1, 2, 0), _P)
        starts = np.concatenate(starts)
        scenario, first, end, t, h = map(np.array, zip(*(s for group in spans for s in group)))
        counts = end - first
        for m in set(counts.tolist()):  # a set: np.unique's first call adds 1.7 MB resident
            k = np.flatnonzero(counts == m)
            rows = first[k, None] + np.arange(m)
            x = (self.taus[rows] - t[k, None]) / h[k, None]
            powers = np.empty((k.size, 4, m))
            powers[:, 0] = x
            for p in range(1, 4):  # x, x^2, x^3, x^4 in the order of cumprod
                np.multiply(powers[:, p - 1], x, out=powers[:, p])
            # complex h: numpy casts the float step so for a product with a complex array
            segment = h[k, None, None].astype(complex) * (Q[k] @ powers)
            segment += starts[k, :, None]
            self.states[scenario[k, None], rows] = segment.transpose(0, 2, 1)


def integrate(scenario: Scenario) -> Trajectory:
    """Integrate the moment system over [0, t_max].

    Dormand-Prince 5(4) with scipy's step controller, at the fixed
    tolerances rtol 1e-9 and atol 1e-10; the uniform grid of
    ``sample_count`` points is read from each step's quartic interpolant.
    The result equals ``solve_ivp(method="RK45", t_eval=...)`` bit for bit.
    Deterministic for fixed inputs.  This is ``integrate_batch`` of the one
    scenario, raising its ``IntegrationError``.
    """
    (result,) = integrate_batch([scenario])
    if isinstance(result, IntegrationError):
        raise result
    return result


def integrate_batch(scenarios) -> list[Trajectory | IntegrationError]:
    """Integrate scenarios that share one time grid, in lockstep.

    Each pass tries one step of every unfinished scenario, and each scenario
    keeps its own step control (a rejected step is retried on the next
    pass).  A scenario's stage sums, matrix products and error norm are
    separate BLAS calls on its own slice, and its controller runs in Python
    floats, so its trajectory has the same bits in any batch as alone.  A
    pass writes into work buffers made once per set of unfinished scenarios
    (``out=``), with the same calls in the same order as fresh arrays.  A
    step that passes samples is kept as a span, and the quartic interpolants
    of pending spans, from any pass and scenario, are written in stacked
    chunks (``_DenseOutput``) with the per-step products' bits.  A
    scenario that fails gets its ``IntegrationError`` in its place in the
    result; the others are unaffected.  A step size that falls below the
    spacing of floats fails a scenario; when the step rejected last had a
    non-finite error estimate, or the scenario's coefficients overflowed,
    the error names the float64 overflow behind it.  Scenarios whose
    ``t_max`` or ``sample_count`` differ raise ``ValueError``.
    """
    scenarios = list(scenarios)
    grids = {(float(sc.t_max), sc.sample_count) for sc in scenarios}
    if len(grids) > 1:
        raise ValueError("scenarios of one batch must share t_max and sample_count")
    if not scenarios:
        return []
    ((t_max, n),) = grids
    taus = scenarios[0].taus
    grid = taus.tolist()
    systems = [_cached_system(sc.params) for sc in scenarios]
    Ms = np.array([M for M, _ in systems])
    bs = np.array([b for _, b in systems])
    Y = np.array([sc.initial.values for sc in scenarios])
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging scenario fails on its own
        # the stages of every scenario's step; K[0] is f at the step's start
        K = np.empty((7, len(scenarios), 27), dtype=complex)
        K[0] = (Ms @ Y[..., None])[..., 0] + bs  # a stack of matrix products: one gemv per slice
        states = np.empty((len(scenarios), n, 27), dtype=complex)
        results: list = [None] * len(scenarios)
        # each scenario's step controller, in Python floats (np.power, unlike the C pow
        # behind Python's **, rounds some powers differently); done: samples written so far
        h_abs = [float(_initial_step(*system, y, f, t_max)) for system, y, f in zip(systems, Y, K[0])]
        t, done, rejected = [0.0] * len(scenarios), [0] * len(scenarios), [False] * len(scenarios)
        # the last rejected step's error was not finite, or the system's coefficients are not
        overflowed = (np.isinf(Ms).any(axis=(1, 2)) | np.isinf(bs).any(axis=1)).tolist()
        min_step = [10 * math.ulp(0.0)] * len(scenarios)
        h_abs = [max(h, m) for h, m in zip(h_abs, min_step)]
        dense = _DenseOutput(taus, states)
        live = list(range(len(scenarios)))  # scenarios still stepping, in the row order of Ms, bs, Y, K
        width = 0  # rows of the work buffers below
        while True:
            keep, t_new, hs = [], [], []
            for j, i in enumerate(live):
                if t[i] >= t_max:
                    continue
                if h_abs[i] >= min_step[i]:  # also stops a NaN step, which would loop forever
                    keep.append(j)
                    t_new.append(min(t[i] + h_abs[i], t_max))
                    hs.append(t_new[-1] - t[i])
                    h_abs[i] = abs(hs[-1])
                else:
                    cause = ("float64 overflow in the moments or their derivative" if overflowed[i]
                             else "Required step size is less than spacing between numbers.")
                    results[i] = IntegrationError(f"integration failed: {cause}",
                                                  grid[done[i] - 1] if done[i] else 0.0)
            if len(keep) < len(live):
                live = [live[j] for j in keep]
                if not live:
                    break
                Ms, bs, Y, K = Ms[keep], bs[keep], Y[keep], K[:, keep]
            if len(live) != width:  # the pass's work buffers and the views its calls read
                width = len(live)
                Kt = K.transpose(1, 2, 0)  # a slice of Kt is one scenario's (27, 7) K.T
                stages = [(Kt[..., :s], _A[s, :s], K[s]) for s in range(1, 6)]
                Y_new, e = np.empty_like(Y), np.empty_like(Y)
                V, W = np.empty((2, width, 27, 1), dtype=complex)
                v, w = V[..., 0], W[..., 0]
                high, scale = np.empty((2, width, 27))
                squares = np.empty((width, 2, 1, 1))
                # np.linalg.norm's sum of squares: one dot product each of the strided real
                # and imaginary parts of a scenario's scaled error
                parts = e.view(float).reshape(-1, 27, 2).transpose(0, 2, 1)
                rows, columns = parts[..., None, :], parts[..., None]
            # complex: numpy casts a float step so for a product with a complex array
            h = np.array(hs, dtype=complex)[:, None]
            for stage, a, k in stages:
                np.matmul(stage, a, out=v)
                np.multiply(v, h, out=v)
                np.add(Y, v, out=v)
                np.matmul(Ms, V, out=W)
                np.add(w, bs, out=k)
            np.matmul(Kt[..., :6], _B, out=Y_new)
            np.multiply(h, Y_new, out=Y_new)
            np.add(Y, Y_new, out=Y_new)
            np.matmul(Ms, Y_new[..., None], out=W)
            np.add(w, bs, out=K[6])
            np.maximum(np.abs(Y, out=high), np.abs(Y_new, out=scale), out=scale)
            scale *= _RTOL
            scale += _ATOL
            np.matmul(Kt, _E, out=e)
            e *= h
            e /= scale
            np.matmul(rows, columns, out=squares)
            passed, spans = [], []
            for j, (i, (re2, im2)) in enumerate(zip(live, squares.reshape(-1, 2).tolist())):
                error = math.sqrt(re2 + im2) / 27 ** 0.5
                if not error < 1:
                    h_abs[i] *= max(_MIN_FACTOR, _SAFETY * error ** _EXPONENT)
                    rejected[i], overflowed[i] = True, not math.isfinite(error)
                    Y_new[j], K[6, j] = Y[j], K[0, j]  # the step is retried from the same state
                    continue
                factor = _MAX_FACTOR if error == 0 else min(_MAX_FACTOR, _SAFETY * error ** _EXPONENT)
                h_abs[i] *= min(1, factor) if rejected[i] else factor
                end = bisect.bisect_right(grid, t_new[j], done[i])
                if end > done[i]:  # this step's interpolant gives the samples it passed
                    passed.append(j)
                    spans.append((i, done[i], end, t[i], hs[j]))
                    done[i] = end
                t[i] = t_new[j]
                min_step[i] = 10 * math.ulp(t[i])  # = 10 * (nextafter(t, inf) - t) for t >= 0
                h_abs[i] = max(h_abs[i], min_step[i])
                rejected[i] = False
            if passed:
                dense.add(K[:, passed], Y[passed], spans)
            Y, Y_new, K[0] = Y_new, Y, K[6]  # a rejected row of Y_new holds its old state
        dense.flush()
    finite = np.isfinite(states).all(axis=2)
    for i, result in enumerate(results):
        if result is not None:
            continue
        if finite[i].all():
            results[i] = Trajectory(taus, states[i])
        else:
            bad = int(np.argmax(~finite[i]))
            results[i] = IntegrationError("non-finite state encountered",
                                          grid[bad - 1] if bad > 0 else 0.0)
    return results


def steady_state_first_moments(p: SystemParams) -> tuple[complex, complex, complex]:
    """Unique fixed point of the (<A>, <B>, <C>) subsystem.

    Solves the 3x3 linear system obtained by zeroing the first-moment
    equations.  Raises ``NoSteadyStateError`` when that system is singular
    (possible only when some modes are undamped).
    """
    M, b = _cached_system(p)
    idx = [Moment.A, Moment.B, Moment.C]
    A3 = M[np.ix_(idx, idx)]
    b3 = b[idx]
    if np.linalg.cond(A3) > 1e12:
        raise NoSteadyStateError("first-moment system is singular")
    x = np.linalg.solve(A3, -b3)
    return complex(x[0]), complex(x[1]), complex(x[2])


def conjugate_closure_defect(p: SystemParams) -> float:
    """Structural check that the equation list is closed under conjugation.

    For the permutation P that takes every slot to its conjugate, ``CONJUGATE_SLOT``,
    a Hermitian-closed system satisfies P M P = conj(M) and P b = conj(b);
    returns the largest deviation from that identity.
    """
    M, b = _cached_system(p)
    perm = list(CONJUGATE_SLOT)
    Mp = M[np.ix_(perm, perm)]
    bp = b[perm]
    return max(np.abs(Mp - M.conj()).max(), np.abs(bp - b.conj()).max())
