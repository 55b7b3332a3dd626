"""The 27 coupled linear moment equations and their integration.

The modes A, B (ensembles) and C (cavity) evolve under

    H = sum_x delta_x xd x + g_a (Ad C + Cd A) + g_b (Bd C + Cd B) + chi (Ad + A),

each damped at rate gamma_x into a bath of thermal occupation nbar_x.  With
the reservoir noise averaged out, the quantum Langevin equations (Gardiner
& Collett, PRA 31, 3761, 1985) of v = (A, B, C, Ad, Bd, Cd) are linear,

    d<v>/dtau = K <v> + f,   K = blockdiag(-i h - Gamma/2, i h - Gamma/2),

with h = [[delta_a, 0, g_a], [0, delta_b, g_b], [g_a, g_b, delta_c]],
Gamma = diag(gamma_a, gamma_b, gamma_c) and f = -i chi on A, +i chi on Ad.
As H is quadratic, the product rule closes on the 6 means and the 21 pair
moments: the moment vector s obeys

    ds/dtau = M(p) s + b(p)

with a constant 27x27 complex ``M`` and the affine source ``b`` (drive and
thermal feed), both derived by ``coefficient_matrix``.  The full redundant
set, with all conjugate moments, is integrated so that conjugate-pair
consistency is a free correctness check: the equation list is closed under
Hermitian conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp

from .closure import SLOT_WORDS, OperatorFactor
from .model import CONJUGATE_PAIRS, MODES, OCCUPATIONS, Moment, MomentState, Scenario, SystemParams

__all__ = [
    "Trajectory",
    "IntegrationError",
    "NoSteadyStateError",
    "coefficient_matrix",
    "conjugate_closure_defect",
    "rhs",
    "integrate",
    "steady_state_first_moments",
]

# the mode operators in the row order of K, each slot's word as indices into
# them, and the slot of every sorted word; the empty word <1> is column 27, b
_OPERATORS = tuple(OperatorFactor(mode, dagger) for dagger in (False, True) for mode in MODES)
_WORDS = tuple(tuple(_OPERATORS.index(f) for f in word) for word in SLOT_WORDS)
_SLOT_OF = {tuple(sorted(word)): slot for slot, word in enumerate(_WORDS)} | {(): 27}


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


def coefficient_matrix(p: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Derive (M, b) from the drift K and drive f by the product rule.

    A mean <x> gets row K[x] and source f[x].  A pair gets

        d<xy>/dtau = sum_z K[x,z] <zy> + sum_z K[y,z] <xz> + f_x <y> + f_y <x>,

    and an occupation <xd x> also the thermal feed gamma_x nbar_x.  Each word
    on the right is read as its stored slot: cross-mode factors commute, and
    as K never turns an annihilator into a creator, the anti-normal words
    (<C Cd> and <A Ad> in the <A Cd> row) carry constants K[A,C] + K[Cd,Ad] = 0.
    Only nonzero K entries are added, so untouched entries of M stay +0.0.
    """
    h = np.array([[p.delta_a, 0.0, p.g_a], [0.0, p.delta_b, p.g_b], [p.g_a, p.g_b, p.delta_c]])
    drift = -1j * h - np.diag([p.gamma_a, p.gamma_b, p.gamma_c]) / 2
    K = np.zeros((6, 6), dtype=complex)
    K[:3, :3], K[3:, 3:] = drift, drift.conj()
    f = np.array([-1j * p.chi, 0, 0, 1j * p.chi, 0, 0])

    Mb = np.zeros((27, 28), dtype=complex)  # [M | b]
    for slot, word in enumerate(_WORDS):
        for i, x in enumerate(word):
            rest = word[:i] + word[i + 1:]
            for z in np.flatnonzero(K[x]):
                Mb[slot, _SLOT_OF[tuple(sorted(rest + (z,)))]] += K[x, z]
            if f[x] != 0:
                Mb[slot, _SLOT_OF[rest]] += f[x]
    feeds = (p.gamma_a * p.n_a, p.gamma_b * p.n_b, p.gamma_c * p.n_c)
    for slot, feed in zip(OCCUPATIONS, feeds):
        Mb[slot, 27] += feed
    return np.ascontiguousarray(Mb[:, :27]), Mb[:, 27].copy()


@lru_cache(maxsize=64)
def _cached_system(p: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    M, b = coefficient_matrix(p)
    M.flags.writeable = False
    b.flags.writeable = False
    return M, b


def rhs(state: MomentState, p: SystemParams) -> np.ndarray:
    """Time derivative of all 27 moments (same slot layout as the state)."""
    M, b = _cached_system(p)
    return M @ state.values + b


def integrate(scenario: Scenario) -> Trajectory:
    """Integrate the moment system over [0, t_max].

    Uses an adaptive embedded Runge-Kutta 4(5) scheme at the fixed
    tolerances rtol 1e-9 and atol 1e-10 and returns the solution sampled on
    a uniform grid of ``sample_count`` points.  Deterministic for fixed
    inputs.
    """
    M, b = _cached_system(scenario.params)
    taus = np.linspace(0.0, scenario.t_max, scenario.sample_count)
    sol = solve_ivp(
        lambda _t, y: M @ y + b,
        (0.0, scenario.t_max),
        scenario.initial.values,
        method="RK45",
        t_eval=taus,
        rtol=1e-9,
        atol=1e-10,
    )
    if not sol.success:
        last = float(sol.t[-1]) if sol.t.size else 0.0
        raise IntegrationError(f"integration failed: {sol.message}", last)
    states = np.ascontiguousarray(sol.y.T)
    finite = np.all(np.isfinite(states), axis=1)
    if not finite.all():
        bad = int(np.argmax(~finite))
        last = float(taus[bad - 1]) if bad > 0 else 0.0
        raise IntegrationError("non-finite state encountered", last)
    return Trajectory(taus, states)


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

    For the permutation P that swaps every slot with its conjugate partner,
    a Hermitian-closed system satisfies P M P = conj(M) and P b = conj(b);
    returns the largest deviation from that identity.
    """
    M, b = _cached_system(p)
    perm = np.arange(27)
    for i, j in CONJUGATE_PAIRS:
        perm[i], perm[j] = j, i
    Mp = M[np.ix_(perm, perm)]
    bp = b[perm]
    return max(np.abs(Mp - M.conj()).max(), np.abs(bp - b.conj()).max())
