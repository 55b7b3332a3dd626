"""Decoupling of higher-order correlators into stored first/second moments.

Third- and fourth-order normal-ordered correlators are closed by the rules

    <xyz>  = <xy><z> + <x><yz> + <xz><y> - 2<x><y><z>
    <wxyz> = <wx><yz> + <wy><xz> + <wz><xy> - 2<w><x><y><z>

evaluated on the stored moments, each pair in its word order.  They are the
Gaussian cumulant expansion with means (Isserlis 1918): they drop only the
third and fourth cumulants, so they are exact on every Gaussian state, not
only on zero-mean data, and the quadratic dynamics keeps a thermal initial
state Gaussian.  The one approximation is the sixth-order number correlator
<AdA BdB CdC>: the three-factor rule applied to the composite number
factors, with each composite pair expanded by the four-factor rule, which is
not the Gaussian expansion of that word.

An operator word is a tuple of operator indices: 0, 1, 2 for A, B, C and
3, 4, 5 for Ad, Bd, Cd, the slots of the stored means and the row order of
the drift matrix in ``dynamics``; ``word_for_name("AdBd")`` is ``(3, 4)``.
A ``Closure`` compiles a list of words once into slot-index arrays; a call
reads a ``MomentState`` or a ``(..., 27)`` stack of states, gathers every
ordered pair word at once and runs each rule once on the stack of all the
words it closes.  ``decoupled(states, words)`` is the one way to evaluate a
list of words.  The rules are written in numpy's own complex arithmetic,
whose kernels round an element the same way whatever the length of the
contiguous array it sits in, so a stack of words or states gives the same
bits as each taken alone.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .model import MODES, MOMENT_NAMES, MomentState

__all__ = [
    "Closure",
    "SLOT_WORDS",
    "word_for_name",
    "decoupled",
]


def word_for_name(name: str) -> tuple[int, ...]:
    """Operator word of a name such as ``"AdBd"``: each ``d`` toggles the dagger before it."""
    word: list[int] = []
    for ch in name:
        if ch in MODES:
            word.append(MODES.index(ch))
        elif ch == "d" and word:
            word[-1] = (word[-1] + 3) % 6
        else:
            raise ValueError(f"cannot parse moment name {name!r}")
    return tuple(word)


# operator word of every stored moment, indexed by ``Moment``
SLOT_WORDS = tuple(word_for_name(name) for name in MOMENT_NAMES)


def _pair_slot(x: int, y: int) -> tuple[int, bool]:
    """Stored slot of the ordered product xy, and whether it is anti-normal.

    Same-mode anti-normal pairs pick up the commutator: <a ad> = <ad a> + 1.
    Cross-mode factors commute and are stored in A < B < C order.
    """
    anti = y == x + 3
    if anti or x % 3 > y % 3:
        x, y = y, x
    return SLOT_WORDS.index((x, y)), anti


# the ordered pair of operators x, y sits at 6 x + y: its slot, and the anti-normal pairs
_PAIRS = [(x, y) for x in range(6) for y in range(6)]
_PAIR_SLOTS, _ANTI_NORMAL = map(np.array, zip(*(_pair_slot(x, y) for x, y in _PAIRS)))
# <AdA BdB CdC>, its composite pairs AB, BC, AC, and the pairs of the number operators
_NUMBER_TRIPLE = (3, 0, 4, 1, 5, 2)
_NUMBER_PAIRS = ((3, 0, 4, 1), (4, 1, 5, 2), (3, 0, 5, 2))
_NUMBERS = [18, 25, 32]


class Closure:
    """A list of operator words compiled to slot indices.

    ``layout`` lays the words out in five stacks: the six single operators,
    all 36 ordered pairs, then the distinct triples and quadruples the list
    asks for, and <AdA BdB CdC> if it does.  ``stacks(states)`` evaluates
    them at a ``MomentState`` or a ``(..., 27)`` stack, each ``(words, ...)``:
    the pairs in one gather, then each decoupling rule once, on the stack of
    all the words it closes.  ``np.split(table, cuts)`` cuts a table of the
    layout's words the same way, and ``rows[i]`` places ``words[i]`` as
    (stack, row).  ``ValueError`` names a word no rule closes.
    """

    def __init__(self, words):
        for w in words:
            if not (1 <= len(w) <= 4 or w == _NUMBER_TRIPLE) or not all(0 <= f < 6 for f in w):
                raise ValueError(f"no decoupling rule for the word {w}")
        triples = list(dict.fromkeys(w for w in words if len(w) == 3))
        quads = list(dict.fromkeys(w for w in words if len(w) == 4))
        sextic = [_NUMBER_TRIPLE] if _NUMBER_TRIPLE in words else []
        quads += [w for w in _NUMBER_PAIRS if sextic and w not in quads]
        self._number_pairs = [quads.index(w) for w in _NUMBER_PAIRS] if sextic else None
        self._triples = np.array(triples, dtype=np.intp).reshape(-1, 3).T
        self._quads = np.array(quads, dtype=np.intp).reshape(-1, 4).T
        groups = [[(i,) for i in range(6)], _PAIRS, triples, quads, sextic]
        self.rows = [next((g, group.index(w)) for g, group in enumerate(groups) if w in group)
                     for w in words]
        self.layout = tuple(w for group in groups for w in group)
        self.cuts = np.cumsum([len(group) for group in groups[:-1]])

    def stacks(self, states: MomentState | np.ndarray) -> list:
        s = np.moveaxis(states.values if isinstance(states, MomentState) else states, -1, 0)
        p = s[_PAIR_SLOTS]
        p[_ANTI_NORMAL] += 1.0
        triples = _decouple3(p, s, *self._triples) if self._triples.size else None
        quads = _decouple4(p, s, *self._quads) if self._quads.size else None
        sextic = None if self._number_pairs is None else \
            _number_triple(p, *quads[self._number_pairs])[None]
        return [s[:6], p, triples, quads, sextic]


def _decouple3(p, s, x, y, z):
    """<xyz> ~ <xy><z> + <x><yz> + <xz><y> - 2<x><y><z> for index arrays x, y, z."""
    sx, sy, sz = s[x], s[y], s[z]
    return p[6 * x + y] * sz + sx * p[6 * y + z] + p[6 * x + z] * sy - 2.0 * sx * sy * sz


def _decouple4(p, s, w, x, y, z):
    """All three pair pairings minus twice the mean product, for index arrays w, x, y, z."""
    return (
        p[6 * w + x] * p[6 * y + z]
        + p[6 * w + y] * p[6 * x + z]
        + p[6 * w + z] * p[6 * x + y]
        - 2.0 * s[w] * s[x] * s[y] * s[z]
    )


def _number_triple(p, nab, nbc, nac):
    """The three-factor rule on the number operators, given their decoupled pairs."""
    na, nb, nc = p[_NUMBERS]
    return nab * nc + na * nbc + nac * nb - 2.0 * na * nb * nc


@lru_cache(maxsize=256)
def _compiled(words: tuple) -> Closure:
    return Closure(words)


def decoupled(states: MomentState | np.ndarray, words) -> np.ndarray:
    """Stored or decoupled expectation of each word, shape ``(len(words), ...)``."""
    closure = _compiled(tuple(words))
    stacks = closure.stacks(states)
    return np.stack([stacks[g][row] for g, row in closure.rows])
