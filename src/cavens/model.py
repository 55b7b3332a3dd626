"""Parameter space, configuration presets and the moment-state data model.

The system is three coupled bosonic modes: the driven ensemble excitation
mode A, the undriven ensemble mode B and the cavity mode C.  Every quantity
is dimensionless: rates and couplings are quoted in units of the common
detuning, and time is the rescaled variable tau (detuning times t).

The dynamical state is the vector of 27 operator expectation values listed
in ``MOMENT_NAMES`` (three means, their conjugates, squared amplitudes,
occupations and all cross-mode pair moments).  Physical states satisfy
conjugate-pair consistency, e.g. ``<Ad> == conj(<A>)`` and
``<AdBd> == conj(<AB>)``; the pairing is tabulated in ``CONJUGATE_PAIRS``.
``conjugate_mismatch`` and ``occupation_defect`` give the largest violation
of these invariants over a ``(..., 27)`` stack of states.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from enum import IntEnum

import numpy as np

__all__ = [
    "Moment",
    "MOMENT_NAMES",
    "CONJUGATE_PAIRS",
    "MODES",
    "Configuration",
    "SystemParams",
    "MomentState",
    "Scenario",
    "preset_params",
    "initial_state",
    "validate_params",
    "occupations",
    "conjugate_mismatch",
    "occupation_defect",
]

MODES = ("A", "B", "C")


class Moment(IntEnum):
    """Slot index of each stored expectation value.

    ``Ad`` denotes the conjugate (daggered) mode operator, so ``AdA`` is the
    occupation ``<Ad A>`` and ``ABd`` the cross moment ``<A Bd>``.
    """

    A = 0
    B = 1
    C = 2
    Ad = 3
    Bd = 4
    Cd = 5
    AA = 6
    BB = 7
    CC = 8
    AdAd = 9
    BdBd = 10
    CdCd = 11
    AdA = 12
    BdB = 13
    CdC = 14
    AB = 15
    ABd = 16
    AdB = 17
    AdBd = 18
    BC = 19
    BCd = 20
    BdC = 21
    BdCd = 22
    AC = 23
    ACd = 24
    AdC = 25
    AdCd = 26


MOMENT_NAMES = tuple(m.name for m in Moment)

# (slot, conjugate slot); the three occupations are self-conjugate and are
# covered by the realness check instead.
CONJUGATE_PAIRS = (
    (Moment.A, Moment.Ad),
    (Moment.B, Moment.Bd),
    (Moment.C, Moment.Cd),
    (Moment.AA, Moment.AdAd),
    (Moment.BB, Moment.BdBd),
    (Moment.CC, Moment.CdCd),
    (Moment.AB, Moment.AdBd),
    (Moment.ABd, Moment.AdB),
    (Moment.BC, Moment.BdCd),
    (Moment.BCd, Moment.BdC),
    (Moment.AC, Moment.AdCd),
    (Moment.ACd, Moment.AdC),
)

OCCUPATIONS = (Moment.AdA, Moment.BdB, Moment.CdC)


class Configuration(IntEnum):
    """Placement of the two ensembles at a node or antinode of the cavity field.

    First letter: driven (left) ensemble, second letter: undriven (right)
    ensemble.  Antinode means strong coupling to the cavity mode, node means
    weak coupling.
    """

    AA = 0
    AN = 1
    NA = 2
    NN = 3

    @classmethod
    def parse(cls, label: "str | Configuration") -> "Configuration":
        if isinstance(label, Configuration):
            return label
        try:
            return cls[str(label).strip().upper()]
        except KeyError:
            raise ValueError(
                f"unknown configuration {label!r}; expected one of AA, AN, NA, NN"
            ) from None


@dataclass(frozen=True)
class SystemParams:
    """Dimensionless model constants (all in units of the common detuning).

    delta_*  detunings of the three modes from the drive frequency
    g_a, g_b collective ensemble-cavity couplings
    chi      classical drive strength acting on mode A
    gamma_*  damping rates of the three modes
    n_*      thermal occupations of the three reservoirs
    """

    delta_a: float = 1.0
    delta_b: float = 1.0
    delta_c: float = 1.0
    g_a: float = 0.0
    g_b: float = 0.0
    chi: float = 0.0
    gamma_a: float = 0.0
    gamma_b: float = 0.0
    gamma_c: float = 0.0
    n_a: float = 0.0
    n_b: float = 0.0
    n_c: float = 0.0


def validate_params(p: SystemParams) -> list[str]:
    """Return a list of violated constraints (empty when the params are valid)."""
    problems = []
    for name in ("gamma_a", "gamma_b", "gamma_c", "n_a", "n_b", "n_c"):
        if getattr(p, name) < 0:
            problems.append(f"{name} must be >= 0")
    for f in fields(SystemParams):
        if not np.isfinite(getattr(p, f.name)):
            problems.append(f"{f.name} must be finite")
    return problems


# Couplings and decay rates of the four node/antinode placements; the drive
# strength is a free knob and the baths are vacuum in all published runs.
_PRESETS = {
    Configuration.AN: dict(g_a=0.2, g_b=0.02, gamma_a=2.0, gamma_b=0.2, gamma_c=0.2),
    Configuration.NA: dict(g_a=0.02, g_b=0.2, gamma_a=0.2, gamma_b=2.0, gamma_c=0.2),
    Configuration.AA: dict(g_a=0.2, g_b=0.2, gamma_a=2.0, gamma_b=2.0, gamma_c=0.2),
    Configuration.NN: dict(g_a=0.02, g_b=0.02, gamma_a=0.2, gamma_b=0.2, gamma_c=0.2),
}


def preset_params(config: "str | Configuration", chi: float = 0.0) -> SystemParams:
    """Standard parameter set of a node/antinode configuration.

    All detunings equal 1 (they set the unit system) and all baths are
    vacuum.  A negative drive strength -chi is the parity image of chi: the
    map A, B, C -> -A, -B, -C turns one into the other, so from a zero-mean
    initial state it negates the means and leaves every other moment and
    every witness as it is.
    """
    config = Configuration.parse(config)
    return SystemParams(chi=float(chi), **_PRESETS[config])


@dataclass(frozen=True, eq=False)
class MomentState:
    """The 27 complex expectation values, ordered as in ``Moment``."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (27,):
            raise ValueError(f"expected 27 moment values, got shape {v.shape}")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __eq__(self, other):
        if not isinstance(other, MomentState):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash(self.values.tobytes())

    def __getitem__(self, slot: "Moment | int") -> complex:
        return complex(self.values[slot])

    @classmethod
    def zeros(cls) -> "MomentState":
        return cls(np.zeros(27, dtype=complex))

    def with_slot(self, slot: "Moment | int", value: complex) -> "MomentState":
        v = self.values.copy()
        v[slot] = value
        return MomentState(v)


def initial_state(n_a0: float, n_b0: float, n_c0: float) -> MomentState:
    """Zero-mean, phase-insensitive initial state with the given occupations.

    Only the three mean occupations are fixed by the scenario; every other
    moment starts at zero, the minimal assumption consistent with a
    phase-insensitive (thermal-like) preparation.
    """
    occ = (n_a0, n_b0, n_c0)
    for label, n in zip(("n_a0", "n_b0", "n_c0"), occ):
        if n < 0:
            raise ValueError(f"{label} must be >= 0, got {n}")
    v = np.zeros(27, dtype=complex)
    for slot, n in zip(OCCUPATIONS, occ):
        v[slot] = n
    return MomentState(v)


def occupations(initial: MomentState) -> tuple[float, float, float]:
    """The three occupations of an occupation-only state, as ``initial_state`` takes them.

    Raises ``ValueError`` when any other moment is nonzero, since only a
    phase-insensitive state is fixed by its occupations alone.
    """
    rest = np.delete(initial.values, OCCUPATIONS)
    if np.abs(rest).max() > 0:
        raise ValueError("initial state must be phase-insensitive (occupations only)")
    return tuple(float(initial.values[slot].real) for slot in OCCUPATIONS)


_CONJUGATE_SLOTS = np.array(CONJUGATE_PAIRS).T


def conjugate_mismatch(states: np.ndarray) -> float:
    """Largest violation of conjugate-pair consistency over a ``(..., 27)`` stack."""
    v = np.asarray(states)
    i, j = _CONJUGATE_SLOTS
    return float(np.abs(v[..., i] - np.conj(v[..., j])).max(initial=0.0))


def occupation_defect(states: np.ndarray) -> float:
    """Largest imaginary part or negativity of an occupation over a ``(..., 27)`` stack."""
    occ = np.asarray(states)[..., OCCUPATIONS]
    return float(np.maximum(np.abs(occ.imag), -occ.real).max(initial=0.0))


@dataclass(frozen=True)
class Scenario:
    """A fully resolved simulation run.

    ``threshold`` is the dip depth below the classical boundary required to
    count a witness as fired when scoring a sign matrix; it rides along with
    the scenario so a parsed config is self-contained.  Construction rejects
    invalid parameters and a non-finite time span, which the integrator
    would otherwise chase forever.
    """

    params: SystemParams
    initial: MomentState = field(default_factory=lambda: initial_state(1.0, 1.0, 1.0))
    t_max: float = 10.0
    sample_count: int = 1001
    threshold: float = 1e-4

    def __post_init__(self):
        problems = validate_params(self.params)
        if problems:
            raise ValueError("; ".join(problems))
        if not 0 < self.t_max < np.inf:
            raise ValueError("t_max must be finite and > 0")
        if self.sample_count < 2:
            raise ValueError("sample_count must be >= 2")
        if not self.threshold > 0:
            raise ValueError("threshold must be > 0")

    def with_params(self, **changes) -> "Scenario":
        return replace(self, params=replace(self.params, **changes))
