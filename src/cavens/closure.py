"""Decoupling of higher-order correlators into stored first/second moments.

Third- and fourth-order normal-ordered correlators are approximated by the
linearized-correction (Bogoliubov-style) rules

    <xyz>  ~ <xy><z> + <x><yz> + <xz><y> - 2<x><y><z>
    <wxyz> ~ <wx><yz> + <wy><xz> + <wz><xy> - 2<w><x><y><z>

evaluated on the stored moments.  For zero-mean data the four-factor rule
reduces to the exact Gaussian (Isserlis) pair expansion.  The sixth-order
number correlator <AdA BdB CdC> is built by applying the three-factor rule
to the composite number factors, with each composite pair expanded by the
four-factor rule.

The rules read a ``MomentState`` or a ``(..., 27)`` array of states, so one
call decouples a whole trajectory.  Complex products go through ``cprod``
(and ``cquot``, ``csquare``), which round exactly as Python's ``complex``
does; numpy's complex multiply may use FMA.  A stack of states thus gives
the same bits as its states taken one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MOMENT_NAMES, Moment, MomentState

__all__ = [
    "OperatorFactor",
    "SLOT_WORDS",
    "word_for_name",
    "annihilator",
    "creator",
    "cprod",
    "cquot",
    "csquare",
    "single_moment",
    "pair_moment",
    "decouple3",
    "decouple4",
    "number_triple_product",
]


@dataclass(frozen=True)
class OperatorFactor:
    """One mode operator in a correlator word: a mode label and a dagger flag."""

    mode: str
    daggered: bool = False

    def __post_init__(self):
        if self.mode not in ("A", "B", "C"):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def conjugate(self) -> "OperatorFactor":
        return OperatorFactor(self.mode, not self.daggered)


def word_for_name(name: str) -> tuple[OperatorFactor, ...]:
    """Operator word of a name such as ``"AdBd"``: each ``d`` daggers the factor before it."""
    factors: list[OperatorFactor] = []
    for ch in name:
        if ch in "ABC":
            factors.append(OperatorFactor(ch, False))
        elif ch == "d" and factors:
            factors[-1] = factors[-1].conjugate
        else:
            raise ValueError(f"cannot parse moment name {name!r}")
    return tuple(factors)


# operator word of every stored moment, indexed by ``Moment``
SLOT_WORDS = tuple(word_for_name(name) for name in MOMENT_NAMES)


def annihilator(mode: str) -> OperatorFactor:
    return OperatorFactor(mode, False)


def creator(mode: str) -> OperatorFactor:
    return OperatorFactor(mode, True)


def _complex(re, im):
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real = re
    out.imag = im
    return out[()]


def cprod(*factors):
    """Left-to-right product of complex arrays or scalars, rounded like ``complex``.

    Each step forms (ar*br - ai*bi) + i(ar*bi + ai*br) from the parts, as
    CPython does; a real factor counts as ``complex(x, 0.0)``.
    """
    re, im = factors[0].real, factors[0].imag
    for f in factors[1:]:
        re, im = re * f.real - im * f.imag, re * f.imag + im * f.real
    return _complex(re, im)


def cquot(a, b: complex):
    """``a / b`` for a scalar divisor, by CPython's complex division rule."""
    br, bi = float(b.real), float(b.imag)
    if abs(br) >= abs(bi):
        ratio = bi / br
        denom = br + bi * ratio
        return _complex((a.real + a.imag * ratio) / denom, (a.imag - a.real * ratio) / denom)
    ratio = br / bi
    denom = br * ratio + bi
    return _complex((a.real * ratio + a.imag) / denom, (a.imag * ratio - a.real) / denom)


def csquare(a):
    """``a ** 2`` as CPython computes it: (1 + 0j) * (a * a)."""
    return cprod(1.0, cprod(a, a))


def _slot(states: MomentState | np.ndarray, *factors: OperatorFactor):
    """The stored moment of a word of one or two factors given in slot order."""
    values = states.values if isinstance(states, MomentState) else states
    return values[..., Moment["".join(f.mode + "d" * f.daggered for f in factors)]][()]


def single_moment(states: MomentState | np.ndarray, x: OperatorFactor):
    return _slot(states, x)


def pair_moment(states: MomentState | np.ndarray, x: OperatorFactor, y: OperatorFactor):
    """Expectation of the ordered product xy, resolved to stored slots.

    Same-mode anti-normal pairs pick up the commutator: <a ad> = <ad a> + 1.
    Cross-mode factors commute and are stored in A < B < C order.
    """
    if x.mode == y.mode and not x.daggered and y.daggered:
        return _slot(states, y, x) + 1.0
    if x.mode > y.mode:
        x, y = y, x
    return _slot(states, x, y)


def decouple3(
    states: MomentState | np.ndarray,
    x: OperatorFactor,
    y: OperatorFactor,
    z: OperatorFactor,
):
    """Three-factor decoupling <xyz> ~ <xy><z> + <x><yz> + <xz><y> - 2<x><y><z>."""
    sx, sy, sz = (single_moment(states, f) for f in (x, y, z))
    return (
        cprod(pair_moment(states, x, y), sz)
        + cprod(sx, pair_moment(states, y, z))
        + cprod(pair_moment(states, x, z), sy)
        - cprod(2.0, sx, sy, sz)
    )


def decouple4(
    states: MomentState | np.ndarray,
    w: OperatorFactor,
    x: OperatorFactor,
    y: OperatorFactor,
    z: OperatorFactor,
):
    """Four-factor decoupling: all three pair pairings minus twice the mean product."""
    return (
        cprod(pair_moment(states, w, x), pair_moment(states, y, z))
        + cprod(pair_moment(states, w, y), pair_moment(states, x, z))
        + cprod(pair_moment(states, w, z), pair_moment(states, x, y))
        - cprod(2.0, *(single_moment(states, f) for f in (w, x, y, z)))
    )


def number_triple_product(states: MomentState | np.ndarray):
    """Closed form for the sixth-order correlator <AdA BdB CdC>.

    Treats the three number operators as composite factors in the
    three-factor rule; each composite pair <XY> is a four-factor decoupling
    and each composite single <X> is a stored occupation.
    """
    na, nb, nc = (pair_moment(states, creator(m), annihilator(m)) for m in "ABC")
    nab = decouple4(states, creator("A"), annihilator("A"), creator("B"), annihilator("B"))
    nbc = decouple4(states, creator("B"), annihilator("B"), creator("C"), annihilator("C"))
    nac = decouple4(states, creator("A"), annihilator("A"), creator("C"), annihilator("C"))
    return (
        cprod(nab, nc) + cprod(na, nbc) + cprod(nac, nb) - cprod(2.0, na, nb, nc)
    )
