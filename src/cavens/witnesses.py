"""Nonclassicality witnesses evaluated on moment states.

Sign conventions: a witness fires (detects a nonclassical feature) when its
value drops below zero, except the quadrature variances, whose classical
boundary is the coherent-state value 1/4.

Each witness family's formula is written once, on ``(keys, ...)`` columns
of the operator words it reads, one column per key (a mode, a pair, an
ordered pair or a partition).  A single mode reads as its own pair, so
antibunching is one formula, and a pair's quadrature variances are the
single-mode formula on the compound mode (a + b)/sqrt2.  ``witness_table``
is the one way to evaluate a witness, read as its named column: it expands
the catalog once into a plan, its distinct words compiled by
``closure.Closure`` and each family's columns of them.  A call evaluates every word in one pass (decoupled from
moments, or read from a correlator source: any function from a tuple of
operator words to their stacked values, such as the oracle's) and each
formula once on all its keys.

Every witness is a real quantity on a conjugate-consistent state.  Values
are computed in complex arithmetic and the real part is returned only after
checking that the imaginary residue is below ``IMAG_TOL`` at every sample;
a larger residue signals an inconsistent state (or a transcription bug) and
raises ``InternalConsistencyError`` instead of being silently discarded.
The arithmetic runs with numpy's overflow warnings off: a value that
overflows float64 raises the same error, naming the overflow, ahead of any
residue check.
"""

from __future__ import annotations

import math
from functools import cache, partial

import numpy as np

from .closure import Closure, word_for_name

__all__ = [
    "IMAG_TOL",
    "OCCUPATION_FLOOR",
    "MODE_KEYS",
    "PAIR_KEYS",
    "ORDERED_PAIR_KEYS",
    "PARTITION_KEYS",
    "WITNESS_NAMES",
    "InternalConsistencyError",
    "column_name",
    "catalog_words",
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

# the Hillery-Zubairy keys: the pairs, then the reversed pairs whose E steering reads
_HZ_KEYS = PAIR_KEYS + ("BA", "CB", "CA")


class InternalConsistencyError(RuntimeError):
    """A nominally real witness value carried a large imaginary residue, or
    the float64 arithmetic of a witness overflowed.

    When ``witness_table`` raises it, ``members`` has one entry per
    trajectory of the evaluated stack (one for a single trajectory or
    state): that trajectory's table, or the error it raises evaluated alone.
    """

    members: list | None = None


def _by_trajectory(a: np.ndarray) -> np.ndarray:
    """One row per trajectory: a stack's last axis is the sample axis, and a state is one sample."""
    return np.reshape(a, (-1, np.shape(a)[-1] if np.ndim(a) else 1))


def _real(value, name: str, keys, failures: list, overflows: list):
    """The real part of ``value``, once each sample's imaginary residue is below ``IMAG_TOL``.

    ``value[j]`` is checked as ``name.format(keys[j])``.  A check with a
    larger residue fails a trajectory at its first such sample; every
    failure is appended to ``failures`` as (check, trajectory, error).  Where
    any part of a value is not finite, a ``(trajectories, samples)`` mask of
    those samples is appended to ``overflows``.
    """
    finite = np.isfinite(value)
    if not finite.all():
        overflows.append(_by_trajectory(~finite.all(axis=0)))
    residue = np.imag(value)
    bad = np.abs(residue) >= IMAG_TOL
    if bad.any():
        for key, res, b in zip(keys, residue, bad):
            res, b = _by_trajectory(res), _by_trajectory(b)
            for m in np.flatnonzero(b.any(axis=1)).tolist():
                sample = int(np.argmax(b[m]))
                error = InternalConsistencyError(
                    f"{name.format(key)} has imaginary residue {res[m, sample]:.3e} "
                    f"at sample {sample} (state inconsistent)"
                )
                failures.append((name.format(key), m, error))
    return np.real(value)


# Each family's formula takes ``real`` (``_real`` bound to its keys) and one
# ``(keys, ...)`` column per operator word it ``_reads``.  A word is named
# by a template in which a, b, c stand for a key's modes and d daggers the
# factor before it; upper-case modes are fixed, and a single mode is its own pair.

def _reads(*templates):
    def mark(formula):
        formula.templates = templates
        return formula
    return mark


def _words_of(formula, key: str) -> tuple:
    modes = key.replace("|", "") if len(key) > 1 else key * 2
    table = str.maketrans("abc"[:len(modes)], modes)
    return tuple(word_for_name(t.translate(table)) for t in formula.templates)


@_reads("ada")
def _occupations(real, occ):
    return real(occ, "<n_{}>")


@_reads("adbdba", "ada", "bdb")
def _antibunch(real, quartic, na, nb):
    """Antibunching <ad bd b a> - <ad a><bd b>; of a single mode, b = a."""
    return real(quartic - na * nb, "antibunch_{}")


@_reads("aa", "adad", "ada", "a", "ad")
def _quadrature_variances(real, sq, sqd, occ, m, md):
    """Variances of X = (a + ad)/2 and Y = (a - ad)/2i; squeezed below 1/4."""
    mx, my = (m + md) / 2.0, (m - md) / 2j
    vx = (sq + sqd + 2.0 * occ + 1.0) / 4.0 - mx * mx
    vy = (-sq - sqd + 2.0 * occ + 1.0) / 4.0 - my * my
    return real(vx, "var_x_{}"), real(vy, "var_y_{}")


@_reads("aa", "adad", "ada", "bb", "bdbd", "bdb", "a", "ad", "b", "bd", "ab", "abd", "adb", "adbd")
def _intermodal_variances(real, aa, adad, ada, bb, bdbd, bdb, a, ad, b, bd, ab, abd, adb, adbd):
    """The quadrature variances of the compound mode c = (a + b)/sqrt2."""
    return _quadrature_variances(
        real, (aa + bb + 2.0 * ab) / 2.0, (adad + bdbd + 2.0 * adbd) / 2.0,
        (ada + bdb + abd + adb) / 2.0, (a + b) / math.sqrt(2.0), (ad + bd) / math.sqrt(2.0))


@_reads("adabdb", "abd", "adb", "ada", "bdb", "ab", "adbd")
def _hz(real, quartic, abd, adb, na, nb, ab, adbd):
    """The two Hillery-Zubairy inseparability witnesses of a mode pair:

    E  = <ad a bd b> - |<a bd>|^2
    E~ = <ad a><bd b> - |<a b>|^2
    """
    return (real(quartic - abd * adb, "hz_e_{}"),
            real(na * nb - ab * adbd, "hz_etilde_{}"))


@_reads("AdABdBCdC", "abcd", "abc", "adabdb", "cdc")
def _bisep(real, nnn, abc_dag, abc, nab, nc):
    """The two biseparability witnesses of the partition ab|c:

    E  = <ad a bd b cd c> - |<a b cd>|^2
    E' = <ad a bd b><cd c> - |<a b c>|^2

    Decoupled, E's sixth moment comes from the composite number-triple rule.
    """
    return (real(nnn - abc_dag * np.conj(abc_dag), "bisep_e_{}"),
            real(nab * nc - abc * np.conj(abc), "bisep_eprime_{}"))


def _mandel(occ, antibunch):
    """Mandel parameter (<ad ad a a> - <ad a>^2) / <ad a>; negative means sub-Poissonian.

    With the fourth moment decoupled it is
    (<ad2><a2> + <ada>^2 - 2<ad>^2<a>^2) / <ada>; it is undefined (NaN) at
    negligible occupation, where the normalization is singular.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(occ < OCCUPATION_FLOOR, math.nan, antibunch / occ)[()]


def _duan(vx, vy):
    """4(dX_ab)^2 + 4(dY_ab)^2 - 2 over the two quadratures of the mode (a + b)/sqrt2.

    [X_ab, Y_ab] = i/2, so this is that one mode's uncertainty relation:
    it is >= 0 for every state and never detects entanglement.  Duan et
    al., PRL 84, 2722 (2000), pair x_a + x_b with p_a - p_b instead.
    """
    return 4.0 * vx + 4.0 * vy - 2.0


def _steering(e, occ):
    """Steering witness of the ordered pair (x, y): E_xy + <xd x>/2 < 0.

    That is <xd x (yd y + 1/2)> - |<x yd>|^2 < 0, the branch on the <x yd>
    correlation of the Hillery-Zubairy-type steering criteria (Cavalcanti
    et al., PRA 84, 032115, 2011).  The occupation offset comes from the
    first (steered-by) mode, so the witness is asymmetric under swapping
    the pair.  Their branch on the <x y> correlation is not evaluated, so
    a two-mode squeezed vacuum, whose <x yd> is 0, ticks no steering cell.
    """
    return e + occ / 2.0


def column_name(prefix: str, key: str) -> str:
    """The column of witness ``prefix`` at ``key``; a partition "AB|C" is named "AB_C"."""
    return f"{prefix}_{key.replace('|', '_')}"


# column order of every witness table
WITNESS_NAMES = (
    tuple(f"mandel_{m}" for m in MODE_KEYS)
    + tuple(f"antibunch_{k}" for k in MODE_KEYS + PAIR_KEYS)
    + tuple(f"{f}_{k}" for k in MODE_KEYS + PAIR_KEYS for f in ("var_x", "var_y"))
    + tuple(f"{f}_{p}" for f in ("duan", "hz_e", "hz_etilde") for p in PAIR_KEYS)
    + tuple(f"steering_{k}" for k in ORDERED_PAIR_KEYS)
    + tuple(column_name(f, k) for f in ("bisep_e", "bisep_eprime") for k in PARTITION_KEYS)
)
_MAY_BE_NAN = np.array([name.startswith("mandel_") for name in WITNESS_NAMES])

# every residue check, key by key in catalog order: a trajectory of a stack
# reports its first failure in this order
_CHECK_RANK = {name: rank for rank, name in enumerate(
    [n for m in MODE_KEYS for n in (f"<n_{m}>", f"antibunch_{m}", f"var_x_{m}", f"var_y_{m}")]
    + [n for k in PAIR_KEYS
       for n in (f"antibunch_{k}", f"var_x_{k}", f"var_y_{k}", f"hz_e_{k}", f"hz_etilde_{k}")]
    + [n for k in _HZ_KEYS[len(PAIR_KEYS):] for n in (f"hz_e_{k}", f"hz_etilde_{k}")]
    + [n for k in PARTITION_KEYS for n in (f"bisep_e_{k}", f"bisep_eprime_{k}")]
)}
# the keys of each family in the table
_FAMILIES = {_occupations: MODE_KEYS, _antibunch: MODE_KEYS + PAIR_KEYS,
             _quadrature_variances: MODE_KEYS, _intermodal_variances: PAIR_KEYS,
             _hz: _HZ_KEYS, _bisep: PARTITION_KEYS}
# steering's E and occupation: rows of the hz and occupation families
_STEER_HZ = [_HZ_KEYS.index(k) for k in ORDERED_PAIR_KEYS]
_STEER_OCC = [MODE_KEYS.index(k[0]) for k in ORDERED_PAIR_KEYS]


@cache
def _plan():
    """The catalog expanded once: its distinct words compiled, and each family's columns.

    A family's columns are one (stack, rows) pair per word: the rows of its
    keys' words in one of the closure's stacks.
    """
    columns = {f: list(zip(*(_words_of(f, key) for key in keys))) for f, keys in _FAMILIES.items()}
    words = tuple(dict.fromkeys(w for column in columns.values() for ws in column for w in ws))
    closure = Closure(words)
    place = dict(zip(words, closure.rows))
    return closure, {f: [(place[ws[0]][0], np.array([place[w][1] for w in ws])) for ws in column]
                     for f, column in columns.items()}


def catalog_words() -> tuple:
    """The operator words ``witness_table`` asks a correlator source for, in its order."""
    return _plan()[0].layout


@cache
def _rows(prefix: str, keys: tuple) -> np.ndarray:
    """Table columns of a witness for each key."""
    return np.array([WITNESS_NAMES.index(column_name(prefix, k)) for k in keys])


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported per trajectory
def witness_table(state) -> np.ndarray:
    """Every witness at every state, shape ``(..., 42)``, columns ``WITNESS_NAMES``.

    ``state`` is a ``MomentState``, a ``(..., 27)`` moment array (correlators
    decoupled) or a correlator source: a function from a tuple of words to
    their values, shape ``(len(words), ...)``, such as the oracle's
    ``exact_correlators``.  Every sample is checked: float64
    overflow (a value that is not finite at a sample whose words are), an
    imaginary residue, or a non-finite value outside the Mandel columns
    raises ``InternalConsistencyError``, overflow ahead of residues.  A stack
    of trajectories is evaluated once, to the end, even when some fail: each
    trajectory's first failed check gives the error it raises alone, and the
    raised error names the earliest check that failed, in its first failing
    trajectory, and lists every trajectory's table or error in ``members``.
    """
    closure, columns = _plan()
    if callable(state):
        stacks = np.split(state(closure.layout), closure.cuts)
    else:
        stacks = closure.stacks(state)
    failures, overflows = [], []

    def family(formula):
        real = partial(_real, keys=_FAMILIES[formula], failures=failures, overflows=overflows)
        return formula(real, *(stacks[g][rows] for g, rows in columns[formula]))

    occ, antibunch = family(_occupations), family(_antibunch)
    var_x, var_y = family(_quadrature_variances)
    pair_x, pair_y = family(_intermodal_variances)
    hz_e, hz_etilde = family(_hz)
    bisep_e, bisep_eprime = family(_bisep)
    table = np.empty(stacks[1].shape[1:] + (len(WITNESS_NAMES),))
    by_column = np.moveaxis(table, -1, 0)
    for prefix, keys, values in (
        ("mandel", MODE_KEYS, _mandel(occ, antibunch[:len(MODE_KEYS)])),
        ("antibunch", MODE_KEYS + PAIR_KEYS, antibunch),
        ("var_x", MODE_KEYS, var_x),
        ("var_y", MODE_KEYS, var_y),
        ("var_x", PAIR_KEYS, pair_x),
        ("var_y", PAIR_KEYS, pair_y),
        ("duan", PAIR_KEYS, _duan(pair_x, pair_y)),
        ("hz_e", PAIR_KEYS, hz_e[:len(PAIR_KEYS)]),
        ("hz_etilde", PAIR_KEYS, hz_etilde[:len(PAIR_KEYS)]),
        ("steering", ORDERED_PAIR_KEYS, _steering(hz_e[_STEER_HZ], occ[_STEER_OCC])),
        ("bisep_e", PARTITION_KEYS, bisep_e),
        ("bisep_eprime", PARTITION_KEYS, bisep_eprime),
    ):
        by_column[_rows(prefix, keys)] = values

    tables = table.reshape((-1,) + table.shape[max(table.ndim - 2, 0):])  # one per trajectory
    first = {}  # trajectory -> (rank, error) of its first failed check
    for name, m, error in failures:
        if m not in first or _CHECK_RANK[name] < first[m][0]:
            first[m] = _CHECK_RANK[name], error
    if overflows:  # from finite words, only float64 overflow makes a value non-finite
        given = stacks if callable(state) else stacks[:2]
        finite = np.logical_and.reduce([np.isfinite(words).all(axis=0) for words in given])
        over = np.logical_or.reduce(overflows) & _by_trajectory(finite)
        for m in np.flatnonzero(over.any(axis=1)).tolist():
            first[m] = -1, InternalConsistencyError(
                f"float64 overflow in the witness arithmetic at sample {int(np.argmax(over[m]))}")
    bad = ~(np.isfinite(tables) | _MAY_BE_NAN)
    for m in np.flatnonzero(bad.reshape(len(tables), -1).any(axis=1)).tolist():
        if m not in first:
            where = tuple(np.argwhere(bad[m])[0])
            first[m] = len(_CHECK_RANK), InternalConsistencyError(
                f"non-finite witness value {WITNESS_NAMES[where[-1]]}={tables[m][where]}"
            )
    if first:  # the earliest check, then the first trajectory
        _, m = min((rank, m) for m, (rank, _) in first.items())
        error = InternalConsistencyError(*first[m][1].args)
        error.members = [first[m][1] if m in first else t for m, t in enumerate(tables)]
        raise error
    return table
