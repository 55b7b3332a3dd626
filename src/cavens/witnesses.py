"""Nonclassicality witnesses evaluated on moment states.

Sign conventions: a witness fires (detects a nonclassical feature) when its
value drops below zero, except the quadrature variances, whose classical
boundary is the coherent-state value 1/4.  Each formula is written once, on
the operator words of a ``Correlators`` source: stored moments, plus higher
correlators decoupled by the rules of ``closure`` or supplied exactly by the
oracle.  Every helper takes a ``MomentState``, a ``(..., 27)`` stack of
states or a ``Correlators`` source, so ``witness_table`` evaluates a whole
trajectory at once into a table with columns ``WITNESS_NAMES``.

Every witness is a real quantity on a conjugate-consistent state.  Values
are computed in complex arithmetic and the real part is returned only after
checking that the imaginary residue is below ``IMAG_TOL`` at every sample;
a larger residue signals an inconsistent state (or a transcription bug) and
raises ``InternalConsistencyError`` instead of being silently discarded.
"""

from __future__ import annotations

import math

import numpy as np

from .closure import (
    annihilator,
    cprod,
    cquot,
    creator,
    csquare,
    decouple3,
    decouple4,
    number_triple_product,
    pair_moment,
    single_moment,
)
from .model import MomentState

__all__ = [
    "IMAG_TOL",
    "OCCUPATION_FLOOR",
    "MODE_KEYS",
    "PAIR_KEYS",
    "ORDERED_PAIR_KEYS",
    "PARTITION_KEYS",
    "WITNESS_NAMES",
    "InternalConsistencyError",
    "Correlators",
    "decoupled",
    "mandel_q",
    "antibunch_single",
    "antibunch_inter",
    "quadrature_variances",
    "intermodal_quadrature_variances",
    "duan",
    "hz_pair",
    "steering",
    "bisep",
    "witness_table",
]

IMAG_TOL = 1e-10
# below this occupation the Mandel parameter is reported as undefined (NaN)
OCCUPATION_FLOOR = 1e-12

MODE_KEYS = ("A", "B", "C")
PAIR_KEYS = ("AB", "BC", "AC")
ORDERED_PAIR_KEYS = ("AB", "BA", "BC", "CB", "AC", "CA")
# partition key "AB|C" means the compound mode AB against the single mode C
PARTITION_KEYS = ("AB|C", "BC|A", "AC|B")

_NUMBER_TRIPLE = (creator("A"), annihilator("A"), creator("B"), annihilator("B"),
                  creator("C"), annihilator("C"))


class InternalConsistencyError(RuntimeError):
    """A nominally real witness value carried a large imaginary residue.

    When ``witness_table`` raises it, ``members`` has one entry per
    trajectory of the evaluated stack (one for a single trajectory or
    state): that trajectory's table, or the error it raises evaluated alone.
    """

    members: list | None = None


class Correlators:
    """Expectations of operator words for one state or a stack of states.

    ``correlate(word)`` returns the expectation of a word (a tuple of
    ``OperatorFactor``) with the states' leading shape: ``decoupled`` reads
    stored moments and decouples longer words, the oracle's
    ``exact_correlators`` takes them from density matrices.  Each word is
    computed once, since several witnesses share it.
    """

    def __init__(self, correlate):
        self._correlate = correlate
        self._words = {}
        # None: a failed check raises at once; in witness_table, the first
        # failed check of each trajectory, by its index in the stack
        self._failures = None

    def word(self, *factors):
        if factors not in self._words:
            self._words[factors] = self._correlate(factors)
        return self._words[factors]


def decoupled(states: MomentState | np.ndarray) -> Correlators:
    """Stored moments and decoupled correlators of a state or a ``(..., 27)`` stack."""
    rules = {1: single_moment, 2: pair_moment, 3: decouple3, 4: decouple4}

    def correlate(word):
        if word == _NUMBER_TRIPLE:
            return number_triple_product(states)
        if len(word) not in rules:
            raise ValueError(f"no decoupling rule for the word {word}")
        return rules[len(word)](states, *word)

    return Correlators(correlate)


def _source(state) -> Correlators:
    return state if isinstance(state, Correlators) else decoupled(state)


def _by_trajectory(a: np.ndarray) -> np.ndarray:
    """One row per trajectory: a stack's last axis is the sample axis, and a state is one sample."""
    return np.reshape(a, (-1, np.shape(a)[-1] if np.ndim(a) else 1))


def _real(src: Correlators, value, what: str):
    """The real part, once each sample's imaginary residue is below ``IMAG_TOL``.

    A trajectory with a larger residue fails at its first such sample.  The
    error raises at once, or, inside ``witness_table``, is recorded in
    ``src._failures`` when it is that trajectory's first.
    """
    residue = np.imag(value)
    bad = np.abs(residue) >= IMAG_TOL
    if bad.any():
        residue, bad = _by_trajectory(residue), _by_trajectory(bad)
        for m in np.flatnonzero(bad.any(axis=1)).tolist():
            sample = int(np.argmax(bad[m]))
            error = InternalConsistencyError(
                f"{what} has imaginary residue {residue[m, sample]:.3e} "
                f"at sample {sample} (state inconsistent)"
            )
            if src._failures is None:
                raise error
            src._failures.setdefault(m, error)
    return np.real(value)


def _ops(mode: str):
    return annihilator(mode), creator(mode)


def mandel_q(state, mode: str):
    """Normalized occupation-variance parameter; negative means sub-Poissonian.

    Closed form after decoupling the fourth moment:
    (<ad2><a2> + <ada>^2 - 2<ad>^2<a>^2) / <ada>, undefined (NaN) at
    negligible occupation where the normalization is singular.
    """
    src = _source(state)
    a, ad = _ops(mode)
    occ = _real(src, src.word(ad, a), f"<n_{mode}>")
    antibunch = antibunch_single(src, mode)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(occ < OCCUPATION_FLOOR, math.nan, antibunch / occ)[()]


def antibunch_single(state, mode: str):
    """Single-mode antibunching witness <ad ad a a> - <ad a>^2 (decoupled)."""
    src = _source(state)
    a, ad = _ops(mode)
    occ = src.word(ad, a)
    return _real(src, src.word(ad, ad, a, a) - cprod(occ, occ), f"antibunch_{mode}")


def antibunch_inter(state, pair: tuple[str, str]):
    """Intermodal antibunching witness <ad bd b a> - <ad a><bd b> (decoupled)."""
    src = _source(state)
    (a, ad), (b, bd) = _ops(pair[0]), _ops(pair[1])
    value = src.word(ad, bd, b, a) - cprod(src.word(ad, a), src.word(bd, b))
    return _real(src, value, f"antibunch_{pair[0]}{pair[1]}")


def quadrature_variances(state, mode: str):
    """Variances of X = (a + ad)/2 and Y = (a - ad)/2i; squeezed below 1/4."""
    src = _source(state)
    a, ad = _ops(mode)
    sq, sqd, occ = src.word(a, a), src.word(ad, ad), src.word(ad, a)
    m, md = src.word(a), src.word(ad)
    vx = cquot(sq + sqd + cprod(2.0, occ) + 1.0, 4.0) - csquare(cquot(m + md, 2.0))
    vy = cquot(-sq - sqd + cprod(2.0, occ) + 1.0, 4.0) - csquare(cquot(m - md, 2j))
    return _real(src, vx, f"var_x_{mode}"), _real(src, vy, f"var_y_{mode}")


def intermodal_quadrature_variances(state, pair: tuple[str, str]):
    """Variances of X_ab = (a+ad+b+bd)/2sqrt2 and the matching Y quadrature."""
    src = _source(state)
    (a, ad), (b, bd) = _ops(pair[0]), _ops(pair[1])
    sqa, sqad, na = src.word(a, a), src.word(ad, ad), src.word(ad, a)
    sqb, sqbd, nb = src.word(b, b), src.word(bd, bd), src.word(bd, b)
    ma, mad, mb, mbd = src.word(a), src.word(ad), src.word(b), src.word(bd)
    ab, abd, adb, adbd = src.word(a, b), src.word(a, bd), src.word(ad, b), src.word(ad, bd)

    vx = cquot(
        sqa + sqad + cprod(2.0, na) + 1.0
        + sqb + sqbd + cprod(2.0, nb) + 1.0
        + cprod(2.0, ab + abd + adb + adbd),
        8.0,
    ) - csquare(cquot(ma + mad + mb + mbd, 2.0 * math.sqrt(2.0)))
    vy = cquot(
        -sqa - sqad + cprod(2.0, na) + 1.0
        - sqb - sqbd + cprod(2.0, nb) + 1.0
        - cprod(2.0, ab - abd - adb + adbd),
        8.0,
    ) - csquare(cquot(ma - mad + mb - mbd, 2j * math.sqrt(2.0)))
    key = f"{pair[0]}{pair[1]}"
    return _real(src, vx, f"var_x_{key}"), _real(src, vy, f"var_y_{key}")


def duan(state, pair: tuple[str, str]):
    """Inseparability witness 4(dX_ab)^2 + 4(dY_ab)^2 - 2; entangled if < 0."""
    vx, vy = intermodal_quadrature_variances(state, pair)
    return 4.0 * vx + 4.0 * vy - 2.0


def hz_pair(state, pair: tuple[str, str]):
    """The two moment inseparability witnesses for a mode pair.

    E  = <ad a bd b> - |<a bd>|^2   (fourth moment decoupled)
    E~ = <ad a><bd b> - |<a b>|^2
    """
    src = _source(state)
    (a, ad), (b, bd) = _ops(pair[0]), _ops(pair[1])
    key = f"{pair[0]}{pair[1]}"
    e = _real(src, src.word(ad, a, bd, b) - cprod(src.word(a, bd), src.word(ad, b)),
              f"hz_e_{key}")
    etilde = _real(
        src,
        cprod(src.word(ad, a), src.word(bd, b)) - cprod(src.word(a, b), src.word(ad, bd)),
        f"hz_etilde_{key}",
    )
    return e, etilde


def steering(state, ordered_pair: tuple[str, str]):
    """Steering witness for the ordered pair (x, y): E_xy + <xd x>/2 < 0.

    The occupation offset comes from the first (steered-by) mode, so the
    witness is asymmetric under swapping the pair.  This is the upper branch
    of a two-sided condition; the lower branch is never the binding one for
    detection and plays no role in tick/cross scoring.
    """
    src = _source(state)
    x, xd = _ops(ordered_pair[0])
    e, _ = hz_pair(src, ordered_pair)
    return e + _real(src, src.word(xd, x), f"<n_{ordered_pair[0]}>") / 2.0


def bisep(state, partition: tuple[str, str, str]):
    """Biseparability witnesses for the partition ab|c.

    E  = <ad a bd b cd c> - |<a b cd>|^2   (sixth moment via the recursive
         number-product closure, third moment via the three-factor rule)
    E' = <ad a bd b><cd c> - |<a b c>|^2
    """
    if set(partition) != {"A", "B", "C"}:
        raise ValueError(f"partition must cover all three modes, got {partition}")
    src = _source(state)
    (a, ad), (b, bd), (c, cd) = (_ops(m) for m in partition)
    key = f"{partition[0]}{partition[1]}|{partition[2]}"
    abc_dag, abc = src.word(a, b, cd), src.word(a, b, c)
    e = _real(src, src.word(*_NUMBER_TRIPLE) - cprod(abc_dag, np.conj(abc_dag)),
              f"bisep_e_{key}")
    eprime = _real(
        src,
        cprod(src.word(ad, a, bd, b), src.word(cd, c)) - cprod(abc, np.conj(abc)),
        f"bisep_eprime_{key}",
    )
    return e, eprime


# column order of every witness table; a partition "AB|C" is named "AB_C"
WITNESS_NAMES = (
    tuple(f"mandel_{m}" for m in MODE_KEYS)
    + tuple(f"antibunch_{k}" for k in MODE_KEYS + PAIR_KEYS)
    + tuple(f"{f}_{k}" for k in MODE_KEYS + PAIR_KEYS for f in ("var_x", "var_y"))
    + tuple(f"{f}_{p}" for f in ("duan", "hz_e", "hz_etilde") for p in PAIR_KEYS)
    + tuple(f"steering_{k}" for k in ORDERED_PAIR_KEYS)
    + tuple(f"{f}_{k.replace('|', '_')}" for f in ("bisep_e", "bisep_eprime")
            for k in PARTITION_KEYS)
)
_MAY_BE_NAN = np.array([name.startswith("mandel_") for name in WITNESS_NAMES])


def witness_table(state) -> np.ndarray:
    """Every witness at every state, shape ``(..., 42)``, columns ``WITNESS_NAMES``.

    ``state`` is a ``MomentState``, a ``(..., 27)`` moment array (correlators
    ``decoupled``) or a ``Correlators`` source.  Every sample is checked: an
    imaginary residue, or a non-finite value outside the Mandel columns,
    raises ``InternalConsistencyError``.  A stack of trajectories is evaluated
    once, to the end, even when some fail: each trajectory's first failed check
    gives the error it raises alone, and the raised error names the earliest
    check that failed, in its first failing trajectory, and lists every
    trajectory's table or error in ``members``.
    """
    source = _source(state)
    src = Correlators(lambda word: source.word(*word))  # shares the words of ``state``
    src._failures = {}
    v = {}
    for m in MODE_KEYS:
        v[f"mandel_{m}"] = mandel_q(src, m)
        v[f"antibunch_{m}"] = antibunch_single(src, m)
        v[f"var_x_{m}"], v[f"var_y_{m}"] = quadrature_variances(src, m)
    for key in PAIR_KEYS:
        pair = tuple(key)
        v[f"antibunch_{key}"] = antibunch_inter(src, pair)
        v[f"var_x_{key}"], v[f"var_y_{key}"] = intermodal_quadrature_variances(src, pair)
        v[f"duan_{key}"] = duan(src, pair)
        v[f"hz_e_{key}"], v[f"hz_etilde_{key}"] = hz_pair(src, pair)
    for key in ORDERED_PAIR_KEYS:
        v[f"steering_{key}"] = steering(src, tuple(key))
    for key in PARTITION_KEYS:
        name = key.replace("|", "_")
        v[f"bisep_e_{name}"], v[f"bisep_eprime_{name}"] = bisep(src, tuple(key.replace("|", "")))
    table = np.stack([v[name] for name in WITNESS_NAMES], axis=-1)
    tables = table.reshape((-1,) + table.shape[max(table.ndim - 2, 0):])  # one per trajectory
    bad = ~(np.isfinite(tables) | _MAY_BE_NAN)
    for m in np.flatnonzero(bad.reshape(len(tables), -1).any(axis=1)).tolist():
        where = tuple(np.argwhere(bad[m])[0])
        src._failures.setdefault(m, InternalConsistencyError(
            f"non-finite witness value {WITNESS_NAMES[where[-1]]}={tables[m][where]}"
        ))
    if src._failures:  # in the order found: the earliest check, then the first trajectory
        error = InternalConsistencyError(*next(iter(src._failures.values())).args)
        error.members = [src._failures.get(m, t) for m, t in enumerate(tables)]
        raise error
    return table
