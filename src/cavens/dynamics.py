"""The 27 coupled linear moment equations and their integration.

Averaging the damped Heisenberg equations of the three-mode model (reservoir
noise averages vanish) closes exactly at second order because the
Hamiltonian is quadratic: the moment vector s obeys

    ds/dtau = M(p) s + b(p),

where ``M`` is a constant 27x27 complex matrix and the affine source ``b``
holds the drive terms (slots <A>, <Ad>) and the thermal feed terms
``gamma * nbar`` (the three occupations).  The full redundant set, with all
conjugate moments, is integrated so that conjugate-pair consistency is a
free correctness check: the equation list is closed under Hermitian
conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp

from .model import CONJUGATE_PAIRS, Moment, MomentState, Scenario, SystemParams

__all__ = [
    "Trajectory",
    "IntegrationError",
    "NoSteadyStateError",
    "coefficient_matrix",
    "rhs",
    "integrate",
    "steady_state_first_moments",
]

M_ = Moment  # local shorthand for the slot indices


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

    def state_at(self, i: int) -> MomentState:
        return MomentState(self.states[i])

    def slot(self, slot: Moment) -> np.ndarray:
        """Time series of one moment."""
        return self.states[:, slot]


def coefficient_matrix(p: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Assemble (M, b) of the linear moment system for fixed parameters.

    One block of assignments per equation, in slot order.  Conventions:
    couplings enter through the interaction terms g(C Ad + Cd A) (and the B
    analogue), the drive through chi(Ad + A), and each mode is damped at its
    own rate with a thermal feed ``gamma * nbar`` in the occupation rows.
    """
    da, db, dc = p.delta_a, p.delta_b, p.delta_c
    ga, gb, chi = p.g_a, p.g_b, p.chi
    Ga, Gb, Gc = p.gamma_a, p.gamma_b, p.gamma_c

    M = np.zeros((27, 27), dtype=complex)
    b = np.zeros(27, dtype=complex)

    # -- first moments -----------------------------------------------------
    M[M_.A, M_.A] = -1j * da - Ga / 2
    M[M_.A, M_.C] = -1j * ga
    b[M_.A] = -1j * chi

    M[M_.B, M_.B] = -1j * db - Gb / 2
    M[M_.B, M_.C] = -1j * gb

    M[M_.C, M_.C] = -1j * dc - Gc / 2
    M[M_.C, M_.A] = -1j * ga
    M[M_.C, M_.B] = -1j * gb

    M[M_.Ad, M_.Ad] = 1j * da - Ga / 2
    M[M_.Ad, M_.Cd] = 1j * ga
    b[M_.Ad] = 1j * chi

    M[M_.Bd, M_.Bd] = 1j * db - Gb / 2
    M[M_.Bd, M_.Cd] = 1j * gb

    M[M_.Cd, M_.Cd] = 1j * dc - Gc / 2
    M[M_.Cd, M_.Ad] = 1j * ga
    M[M_.Cd, M_.Bd] = 1j * gb

    # -- squared amplitudes ------------------------------------------------
    M[M_.AA, M_.AA] = -2j * da - Ga
    M[M_.AA, M_.AC] = -2j * ga
    M[M_.AA, M_.A] = -2j * chi

    M[M_.BB, M_.BB] = -2j * db - Gb
    M[M_.BB, M_.BC] = -2j * gb

    M[M_.CC, M_.CC] = -2j * dc - Gc
    M[M_.CC, M_.AC] = -2j * ga
    M[M_.CC, M_.BC] = -2j * gb

    M[M_.AdAd, M_.AdAd] = 2j * da - Ga
    M[M_.AdAd, M_.AdCd] = 2j * ga
    M[M_.AdAd, M_.Ad] = 2j * chi

    M[M_.BdBd, M_.BdBd] = 2j * db - Gb
    M[M_.BdBd, M_.BdCd] = 2j * gb

    M[M_.CdCd, M_.CdCd] = 2j * dc - Gc
    M[M_.CdCd, M_.AdCd] = 2j * ga
    M[M_.CdCd, M_.BdCd] = 2j * gb

    # -- occupations (thermal feed enters here) ------------------------------
    M[M_.AdA, M_.ACd] = 1j * ga
    M[M_.AdA, M_.AdC] = -1j * ga
    M[M_.AdA, M_.A] = 1j * chi
    M[M_.AdA, M_.Ad] = -1j * chi
    M[M_.AdA, M_.AdA] = -Ga
    b[M_.AdA] = Ga * p.n_a

    M[M_.BdB, M_.BCd] = 1j * gb
    M[M_.BdB, M_.BdC] = -1j * gb
    M[M_.BdB, M_.BdB] = -Gb
    b[M_.BdB] = Gb * p.n_b

    M[M_.CdC, M_.AdC] = 1j * ga
    M[M_.CdC, M_.ACd] = -1j * ga
    M[M_.CdC, M_.BdC] = 1j * gb
    M[M_.CdC, M_.BCd] = -1j * gb
    M[M_.CdC, M_.CdC] = -Gc
    b[M_.CdC] = Gc * p.n_c

    # -- ensemble-ensemble pair --------------------------------------------
    M[M_.AB, M_.AB] = -1j * (da + db) - (Ga + Gb) / 2
    M[M_.AB, M_.BC] = -1j * ga
    M[M_.AB, M_.AC] = -1j * gb
    M[M_.AB, M_.B] = -1j * chi

    M[M_.ABd, M_.ABd] = 1j * (db - da) - (Ga + Gb) / 2
    M[M_.ABd, M_.BdC] = -1j * ga
    M[M_.ABd, M_.ACd] = 1j * gb
    M[M_.ABd, M_.Bd] = -1j * chi

    M[M_.AdB, M_.AdB] = 1j * (da - db) - (Ga + Gb) / 2
    M[M_.AdB, M_.BCd] = 1j * ga
    M[M_.AdB, M_.AdC] = -1j * gb
    M[M_.AdB, M_.B] = 1j * chi

    M[M_.AdBd, M_.AdBd] = 1j * (da + db) - (Ga + Gb) / 2
    M[M_.AdBd, M_.BdCd] = 1j * ga
    M[M_.AdBd, M_.AdCd] = 1j * gb
    M[M_.AdBd, M_.Bd] = 1j * chi

    # -- ensemble-cavity pair, undriven side ---------------------------------
    M[M_.BC, M_.BC] = -1j * (db + dc) - (Gb + Gc) / 2
    M[M_.BC, M_.CC] = -1j * gb
    M[M_.BC, M_.BB] = -1j * gb
    M[M_.BC, M_.AB] = -1j * ga

    M[M_.BCd, M_.BCd] = -1j * (db - dc) - (Gb + Gc) / 2
    M[M_.BCd, M_.BdB] = 1j * gb
    M[M_.BCd, M_.CdC] = -1j * gb
    M[M_.BCd, M_.AdB] = 1j * ga

    M[M_.BdC, M_.BdC] = 1j * (db - dc) - (Gb + Gc) / 2
    M[M_.BdC, M_.CdC] = 1j * gb
    M[M_.BdC, M_.BdB] = -1j * gb
    M[M_.BdC, M_.ABd] = -1j * ga

    M[M_.BdCd, M_.BdCd] = 1j * (db + dc) - (Gb + Gc) / 2
    M[M_.BdCd, M_.CdCd] = 1j * gb
    M[M_.BdCd, M_.BdBd] = 1j * gb
    M[M_.BdCd, M_.AdBd] = 1j * ga

    # -- ensemble-cavity pair, driven side -----------------------------------
    M[M_.AC, M_.AC] = -1j * (da + dc) - (Ga + Gc) / 2
    M[M_.AC, M_.CC] = -1j * ga
    M[M_.AC, M_.AA] = -1j * ga
    M[M_.AC, M_.AB] = -1j * gb
    M[M_.AC, M_.C] = -1j * chi

    M[M_.ACd, M_.ACd] = 1j * (dc - da) - (Ga + Gc) / 2
    M[M_.ACd, M_.AdA] = 1j * ga
    M[M_.ACd, M_.CdC] = -1j * ga
    M[M_.ACd, M_.ABd] = 1j * gb
    M[M_.ACd, M_.Cd] = -1j * chi

    M[M_.AdC, M_.AdC] = 1j * (da - dc) - (Ga + Gc) / 2
    M[M_.AdC, M_.CdC] = 1j * ga
    M[M_.AdC, M_.AdA] = -1j * ga
    M[M_.AdC, M_.AdB] = -1j * gb
    M[M_.AdC, M_.C] = 1j * chi

    M[M_.AdCd, M_.AdCd] = 1j * (da + dc) - (Ga + Gc) / 2
    M[M_.AdCd, M_.CdCd] = 1j * ga
    M[M_.AdCd, M_.AdAd] = 1j * ga
    M[M_.AdCd, M_.AdBd] = 1j * gb
    M[M_.AdCd, M_.Cd] = 1j * chi

    return M, b


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
    idx = [M_.A, M_.B, M_.C]
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
