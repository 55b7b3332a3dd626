import numpy as np
import pytest
from hypothesis import strategies as st

from cavens.model import CONJUGATE_PAIRS, Moment, MomentState, SystemParams

_coefficient = st.floats(-2.0, 2.0, allow_nan=False)
_rate = st.floats(0.0, 2.0, allow_nan=False)

# valid SystemParams: detunings, couplings and drive in [-2, 2], rates and baths in [0, 2]
system_params = st.builds(
    SystemParams, delta_a=_coefficient, delta_b=_coefficient, delta_c=_coefficient,
    g_a=_coefficient, g_b=_coefficient, chi=_coefficient,
    gamma_a=_rate, gamma_b=_rate, gamma_c=_rate, n_a=_rate, n_b=_rate, n_c=_rate,
)


def make_random_state(rng) -> MomentState:
    """Random conjugate-consistent moment state (not necessarily physical)."""
    v = np.zeros(27, dtype=complex)

    def z(scale=1.0):
        return scale * (rng.normal() + 1j * rng.normal())

    for slot in (Moment.A, Moment.B, Moment.C,
                 Moment.AA, Moment.BB, Moment.CC,
                 Moment.AB, Moment.ABd, Moment.BC, Moment.BCd,
                 Moment.AC, Moment.ACd):
        v[slot] = z()
    for slot in (Moment.AdA, Moment.BdB, Moment.CdC):
        v[slot] = rng.uniform(0.05, 2.0)
    for i, j in CONJUGATE_PAIRS:
        v[j] = np.conj(v[i])
    return MomentState(v)


def make_coherent_state(alpha, beta, gamma) -> MomentState:
    """Moment set of a product of coherent amplitudes (fully factorized)."""
    v = np.zeros(27, dtype=complex)
    a, b, c = complex(alpha), complex(beta), complex(gamma)
    v[Moment.A], v[Moment.B], v[Moment.C] = a, b, c
    v[Moment.AA], v[Moment.BB], v[Moment.CC] = a * a, b * b, c * c
    v[Moment.AdA], v[Moment.BdB], v[Moment.CdC] = abs(a) ** 2, abs(b) ** 2, abs(c) ** 2
    v[Moment.AB], v[Moment.ABd] = a * b, a * np.conj(b)
    v[Moment.BC], v[Moment.BCd] = b * c, b * np.conj(c)
    v[Moment.AC], v[Moment.ACd] = a * c, a * np.conj(c)
    for i, j in CONJUGATE_PAIRS:
        v[j] = np.conj(v[i])
    return MomentState(v)


def rotate_mode_a(state: MomentState, theta: float) -> MomentState:
    """Multiply mode A's mean and coherences by exp(i theta)."""
    ph = np.exp(1j * theta)
    v = state.values.copy()
    v[Moment.A] *= ph
    v[Moment.AA] *= ph * ph
    for slot in (Moment.AB, Moment.ABd, Moment.AC, Moment.ACd):
        v[slot] *= ph
    for i, j in CONJUGATE_PAIRS:
        v[j] = np.conj(v[i])
    return MomentState(v)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def random_state():
    return make_random_state


@pytest.fixture
def coherent_state_moments():
    return make_coherent_state
