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
``_FAMILIES`` declares each family once, by its keys and the prefixes of
the values its formula returns.  Each value is checked once, one check per
key, in one order: key by key through ``MODE_KEYS``, the Hillery-Zubairy
keys and ``PARTITION_KEYS``, then in family order within a key.  The
arithmetic runs with numpy's overflow warnings off: a value that overflows
float64 raises the same error, naming the overflow, ahead of any residue check.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .closure import Closure
from .model import word_for_name

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


# Each family's formula takes one ``(keys, ...)`` column per operator word it
# ``_reads`` and returns a tuple of complex ``(keys, ...)`` values.  A word is named
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
def _occupations(occ):
    return (occ,)


@_reads("adbdba", "ada", "bdb")
def _antibunch(quartic, na, nb):
    """Antibunching <ad bd b a> - <ad a><bd b>; of a single mode, b = a."""
    return (quartic - na * nb,)


@_reads("aa", "adad", "ada", "a", "ad")
def _quadrature_variances(sq, sqd, occ, m, md):
    """Variances of X = (a + ad)/2 and Y = (a - ad)/2i; squeezed below 1/4."""
    mx, my = (m + md) / 2.0, (m - md) / 2j
    vx = (sq + sqd + 2.0 * occ + 1.0) / 4.0 - mx * mx
    vy = (-sq - sqd + 2.0 * occ + 1.0) / 4.0 - my * my
    return vx, vy


@_reads("aa", "adad", "ada", "bb", "bdbd", "bdb", "a", "ad", "b", "bd", "ab", "abd", "adb", "adbd")
def _intermodal_variances(aa, adad, ada, bb, bdbd, bdb, a, ad, b, bd, ab, abd, adb, adbd):
    """The quadrature variances of the compound mode c = (a + b)/sqrt2."""
    return _quadrature_variances(
        (aa + bb + 2.0 * ab) / 2.0, (adad + bdbd + 2.0 * adbd) / 2.0,
        (ada + bdb + abd + adb) / 2.0, (a + b) / math.sqrt(2.0), (ad + bd) / math.sqrt(2.0))


@_reads("adabdb", "abd", "adb", "ada", "bdb", "ab", "adbd")
def _hz(quartic, abd, adb, na, nb, ab, adbd):
    """The two Hillery-Zubairy inseparability witnesses of a mode pair:

    E  = <ad a bd b> - |<a bd>|^2
    E~ = <ad a><bd b> - |<a b>|^2
    """
    return quartic - abd * adb, na * nb - ab * adbd


@_reads("AdABdBCdC", "abcd", "abc", "adabdb", "cdc")
def _bisep(nnn, abc_dag, abc, nab, nc):
    """The two biseparability witnesses of the partition ab|c:

    E  = <ad a bd b cd c> - |<a b cd>|^2
    E' = <ad a bd b><cd c> - |<a b c>|^2

    Decoupled, E's sixth moment comes from the composite number-triple rule.
    """
    return nnn - abc_dag * np.conj(abc_dag), nab * nc - abc * np.conj(abc)


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

# Each family: its keys, and the prefixes of the values its formula returns.
# A value is one residue check per key and fills the table columns its prefix has.
_FAMILIES = {_occupations: (MODE_KEYS, ("<n>",)),
             _antibunch: (MODE_KEYS + PAIR_KEYS, ("antibunch",)),
             _quadrature_variances: (MODE_KEYS, ("var_x", "var_y")),
             _intermodal_variances: (PAIR_KEYS, ("var_x", "var_y")),
             _hz: (_HZ_KEYS, ("hz_e", "hz_etilde")),
             _bisep: (PARTITION_KEYS, ("bisep_e", "bisep_eprime"))}
# every family value's (prefix, keys), in family order
_VALUES = [(prefix, keys) for keys, prefixes in _FAMILIES.values() for prefix in prefixes]
# every residue check (value, key position) in rank order: key by key through these
# keys, then in family order (a stable sort); and the ranks of each value's checks
_CHECKS = sorted(((v, j) for v, (_, keys) in enumerate(_VALUES) for j in range(len(keys))),
                 key=lambda c: (MODE_KEYS + _HZ_KEYS + PARTITION_KEYS).index(_VALUES[c[0]][1][c[1]]))
_RANKS = [np.array([_CHECKS.index((v, j)) for j in range(len(keys))]) for v, (_, keys) in enumerate(_VALUES)]
# steering's E and occupation: rows of the hz and occupation families
_STEER_HZ = [_HZ_KEYS.index(k) for k in ORDERED_PAIR_KEYS]
_STEER_OCC = [MODE_KEYS.index(k[0]) for k in ORDERED_PAIR_KEYS]


def _check_name(v: int, j: int) -> str:
    """The name of check (v, j): prefix_key, a partition's "|" kept; the occupation "<n>" at A is "<n_A>"."""
    prefix, keys = _VALUES[v]
    return f"{prefix[:-1]}_{keys[j]}>" if prefix.endswith(">") else f"{prefix}_{keys[j]}"


@cache
def _plan():
    """The catalog expanded once: its distinct words compiled, and each family's columns.

    A family's columns are one (stack, rows) pair per word: the rows of its
    keys' words in one of the closure's stacks.
    """
    columns = {f: list(zip(*(_words_of(f, key) for key in keys))) for f, (keys, _) in _FAMILIES.items()}
    words = tuple(dict.fromkeys(w for column in columns.values() for ws in column for w in ws))
    closure = Closure(words)
    place = dict(zip(words, closure.rows))
    return closure, {f: [(place[ws[0]][0], np.array([place[w][1] for w in ws])) for ws in column]
                     for f, column in columns.items()}


def catalog_words() -> tuple:
    """The operator words ``witness_table`` asks a correlator source for, in its order."""
    return _plan()[0].layout


@cache
def _columns(prefix: str, keys: tuple) -> tuple:
    """Where ``keys`` have a table column of ``prefix`` (a slice where they lead), and those columns."""
    names = [column_name(prefix, key) for key in keys]
    present = [j for j, name in enumerate(names) if name in WITNESS_NAMES]
    rows = np.array([WITNESS_NAMES.index(names[j]) for j in present], dtype=int)
    return (slice(len(present)) if present == list(range(len(present))) else present), rows


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
    stacks = np.split(state(closure.layout), closure.cuts) if callable(state) else closure.stacks(state)
    values = [value for formula in _FAMILIES
              for value in formula(*(stacks[g][rows] for g, rows in columns[formula]))]
    occ, antibunch, _, _, pair_x, pair_y, hz_e, *_ = real = [value.real for value in values]  # as _VALUES
    shape = stacks[1].shape[1:]
    table = np.empty(shape + (len(WITNESS_NAMES),))
    by_column = np.moveaxis(table, -1, 0)
    for (prefix, keys), value in [
        *zip(_VALUES, real),
        (("mandel", MODE_KEYS), _mandel(occ, antibunch[:len(MODE_KEYS)])),
        (("duan", PAIR_KEYS), _duan(pair_x, pair_y)),
        (("steering", ORDERED_PAIR_KEYS), _steering(hz_e[_STEER_HZ], occ[_STEER_OCC])),
    ]:
        positions, rows = _columns(prefix, keys)
        by_column[rows] = value[positions]
    trajectories, samples = math.prod(shape[:-1]), math.prod(shape[-1:])
    failed = np.zeros((len(_CHECKS), trajectories), dtype=bool)  # rank x trajectory
    overflow = np.zeros(shape, dtype=bool)
    for value, ranks in zip(values, _RANKS):
        bad, finite = np.abs(value.imag) >= IMAG_TOL, np.isfinite(value)
        if bad.any():
            failed[ranks] = bad.reshape(len(ranks), trajectories, samples).any(axis=2)
        if not finite.all():
            overflow |= ~finite.all(axis=0)
    tables = table.reshape((trajectories,) + shape[-1:] + table.shape[-1:])  # one per trajectory
    first = {}  # trajectory -> (rank, error) of its first failed check
    for m in np.flatnonzero(failed.any(axis=0)).tolist():
        rank = int(np.argmax(failed[:, m]))
        v, j = _CHECKS[rank]
        residue = values[v][j].imag.reshape(trajectories, samples)[m]
        sample = int(np.argmax(np.abs(residue) >= IMAG_TOL))
        first[m] = rank, InternalConsistencyError(f"{_check_name(v, j)} has imaginary residue "
                                                  f"{residue[sample]:.3e} at sample {sample} (state inconsistent)")
    if overflow.any():  # from finite words, only float64 overflow makes a value non-finite
        given = stacks if callable(state) else stacks[:2]
        finite = np.logical_and.reduce([np.isfinite(words).all(axis=0) for words in given])
        over = (overflow & finite).reshape(trajectories, samples)
        for m in np.flatnonzero(over.any(axis=1)).tolist():
            first[m] = -1, InternalConsistencyError(
                f"float64 overflow in the witness arithmetic at sample {int(np.argmax(over[m]))}")
    bad = ~(np.isfinite(tables) | _MAY_BE_NAN)
    for m in np.flatnonzero(bad.any(axis=tuple(range(1, bad.ndim)))).tolist():
        if m not in first:
            where = tuple(np.argwhere(bad[m])[0])
            first[m] = len(_CHECKS), InternalConsistencyError(
                f"non-finite witness value {WITNESS_NAMES[where[-1]]}={tables[m][where]}"
            )
    if first:  # the earliest check, then the first trajectory
        _, m = min((rank, m) for m, (rank, _) in first.items())
        error = InternalConsistencyError(*first[m][1].args)
        error.members = [first[m][1] if m in first else t for m, t in enumerate(tables)]
        raise error
    return table
