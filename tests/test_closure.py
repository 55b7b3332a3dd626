import numpy as np
import pytest

from cavens.closure import OperatorFactor, decoupled, word_for_name
from cavens.model import Moment, MomentState, initial_state
from conftest import make_coherent_state, make_random_state


def _word(states, name: str):
    """Stored or decoupled expectation of the word ``name`` (``"AdA"``: each d daggers)."""
    return decoupled(states, [word_for_name(name)])[0]


def test_operator_factor_validates_mode():
    with pytest.raises(ValueError):
        OperatorFactor("D", False)
    assert OperatorFactor("A", True).conjugate == OperatorFactor("A")


def test_pair_moment_same_mode_commutator():
    s = initial_state(1.0, 0.0, 0.0)
    assert _word(s, "AAd") == 2.0
    assert _word(s, "AdA") == 1.0


def test_pair_moment_cross_mode_lookup(rng):
    s = make_random_state(rng)
    # factors of different modes commute; daggered reads resolve to conjugates
    assert _word(s, "BdA") == s[Moment.ABd]
    assert _word(s, "BdA") == np.conj(s[Moment.AdB])
    assert _word(s, "AC") == s[Moment.AC]
    assert _word(s, "AA") == s[Moment.AA]
    assert _word(s, "CdBd") == s[Moment.BdCd]


def test_decouple3_zero_means(rng):
    s = make_random_state(rng)
    v = s.values.copy()
    for slot in (Moment.A, Moment.B, Moment.C, Moment.Ad, Moment.Bd, Moment.Cd):
        v[slot] = 0.0
    zero_mean = MomentState(v)
    assert _word(zero_mean, "ABCd") == 0.0


def test_decouple3_coherent_factorizes():
    s = make_coherent_state(0.4 + 0.1j, -0.3j, 1.1)
    got = _word(s, "ABC")
    assert got == pytest.approx((0.4 + 0.1j) * (-0.3j) * 1.1, abs=1e-14)


def test_decouple3_plus_state_matches_fock_expectation():
    """Product of (|0> + |1>)/sqrt(2): decoupled <ABC> equals the exact 1/8."""
    from cavens.oracle import FockBasisSpec, exact_correlators, moments_from_density

    spec = FockBasisSpec(3)
    c = np.zeros(spec.local_dim, dtype=complex)
    c[0] = c[1] = 1 / np.sqrt(2)
    vec = np.kron(np.kron(c, c), c)
    rho = np.outer(vec, vec.conj())
    state = moments_from_density(rho, spec)
    dec = _word(state, "ABC")
    assert dec == pytest.approx(0.125, abs=1e-12)
    assert dec == pytest.approx(exact_correlators(rho, spec).words([word_for_name("ABC")])[0],
                                abs=1e-12)


def test_decouple4_occupation_pairing_only():
    s = initial_state(1.0, 1.0, 1.0)
    assert _word(s, "AdABdB") == 1.0


def test_decouple4_coherent_unit_amplitudes():
    s = make_coherent_state(1.0, 1.0, 1.0)
    assert _word(s, "AdABdB") == pytest.approx(1.0, abs=1e-14)


def test_decouple_hermiticity(rng):
    for _ in range(10):
        s = make_random_state(rng)
        w, x, y, z = (OperatorFactor(m, bool(rng.integers(2)))
                      for m in ("A", "B", "B", "C"))
        lhs, rhs, l3, r3 = decoupled(s, [
            (w, x, y, z), (z.conjugate, y.conjugate, x.conjugate, w.conjugate),
            (w, x, z), (z.conjugate, x.conjugate, w.conjugate),
        ])
        assert lhs == pytest.approx(np.conj(rhs), abs=1e-12)
        assert l3 == pytest.approx(np.conj(r3), abs=1e-12)


def test_decouple4_self_conjugate_pattern_is_real(rng):
    for _ in range(10):
        s = make_random_state(rng)
        assert abs(_word(s, "AdABdB").imag) < 1e-10


def test_zero_mean_reduction_is_isserlis(rng):
    s = make_random_state(rng)
    v = s.values.copy()
    for slot in (Moment.A, Moment.B, Moment.C, Moment.Ad, Moment.Bd, Moment.Cd):
        v[slot] = 0.0
    zm = MomentState(v)

    def word(name):  # a one-element array, as the rule sees its operands
        return decoupled(zm, [word_for_name(name)])

    pairs = (word("AdA") * word("CdC")
             + word("AdCd") * word("AC")
             + word("AdC") * word("ACd")
             - 2.0 * word("Ad") * word("A") * word("Cd") * word("C"))
    assert _word(zm, "AdACdC") == pairs[0]


def test_number_triple_product_values():
    assert _word(initial_state(1, 1, 1), "AdABdBCdC") == 1.0
    assert _word(initial_state(0, 0, 0), "AdABdBCdC") == 0.0


def test_single_moment_reads_slots(rng):
    s = make_random_state(rng)
    assert _word(s, "B") == s[Moment.B]
    assert _word(s, "Cd") == s[Moment.Cd]


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64)


def test_decoupling_a_stack_matches_each_state(rng):
    states = [make_random_state(rng) for _ in range(5)]
    stack = np.stack([s.values for s in states])
    for name in ("AdBBdC", "AdABdBCdC"):
        got = _word(stack, name)
        assert got.shape == (5,)
        assert np.array_equal(_bits(got), _bits([_word(s, name) for s in states]))
