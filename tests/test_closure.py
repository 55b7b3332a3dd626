import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavens.closure import (
    OperatorFactor,
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
from cavens.model import Moment, MomentState, initial_state
from conftest import make_coherent_state, make_random_state


def test_operator_factor_validates_mode():
    with pytest.raises(ValueError):
        OperatorFactor("D", False)
    assert creator("A").conjugate == annihilator("A")


def test_pair_moment_same_mode_commutator():
    s = initial_state(1.0, 0.0, 0.0)
    assert pair_moment(s, annihilator("A"), creator("A")) == 2.0
    assert pair_moment(s, creator("A"), annihilator("A")) == 1.0


def test_pair_moment_cross_mode_lookup(rng):
    s = make_random_state(rng)
    # factors of different modes commute; daggered reads resolve to conjugates
    assert pair_moment(s, creator("B"), annihilator("A")) == s[Moment.ABd]
    assert pair_moment(s, creator("B"), annihilator("A")) == np.conj(s[Moment.AdB])
    assert pair_moment(s, annihilator("A"), annihilator("C")) == s[Moment.AC]
    assert pair_moment(s, annihilator("A"), annihilator("A")) == s[Moment.AA]
    assert pair_moment(s, creator("C"), creator("B")) == s[Moment.BdCd]


def test_decouple3_zero_means(rng):
    s = make_random_state(rng)
    v = s.values.copy()
    for slot in (Moment.A, Moment.B, Moment.C, Moment.Ad, Moment.Bd, Moment.Cd):
        v[slot] = 0.0
    zero_mean = MomentState(v)
    assert decouple3(zero_mean, annihilator("A"), annihilator("B"), creator("C")) == 0.0


def test_decouple3_coherent_factorizes():
    s = make_coherent_state(0.4 + 0.1j, -0.3j, 1.1)
    got = decouple3(s, annihilator("A"), annihilator("B"), annihilator("C"))
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
    word = (annihilator("A"), annihilator("B"), annihilator("C"))
    dec = decouple3(state, *word)
    assert dec == pytest.approx(0.125, abs=1e-12)
    assert dec == pytest.approx(exact_correlators(rho, spec).word(*word), abs=1e-12)


def test_decouple4_occupation_pairing_only():
    s = initial_state(1.0, 1.0, 1.0)
    got = decouple4(s, creator("A"), annihilator("A"), creator("B"), annihilator("B"))
    assert got == 1.0


def test_decouple4_coherent_unit_amplitudes():
    s = make_coherent_state(1.0, 1.0, 1.0)
    got = decouple4(s, creator("A"), annihilator("A"), creator("B"), annihilator("B"))
    assert got == pytest.approx(1.0, abs=1e-14)


def test_decouple_hermiticity(rng):
    for _ in range(10):
        s = make_random_state(rng)
        w, x, y, z = (OperatorFactor(m, bool(rng.integers(2)))
                      for m in ("A", "B", "B", "C"))
        lhs = decouple4(s, w, x, y, z)
        rhs = decouple4(s, z.conjugate, y.conjugate, x.conjugate, w.conjugate)
        assert lhs == pytest.approx(np.conj(rhs), abs=1e-12)
        l3 = decouple3(s, w, x, z)
        r3 = decouple3(s, z.conjugate, x.conjugate, w.conjugate)
        assert l3 == pytest.approx(np.conj(r3), abs=1e-12)


def test_decouple4_self_conjugate_pattern_is_real(rng):
    for _ in range(10):
        s = make_random_state(rng)
        val = decouple4(s, creator("A"), annihilator("A"), creator("B"), annihilator("B"))
        assert abs(val.imag) < 1e-10


def test_zero_mean_reduction_is_isserlis(rng):
    s = make_random_state(rng)
    v = s.values.copy()
    for slot in (Moment.A, Moment.B, Moment.C, Moment.Ad, Moment.Bd, Moment.Cd):
        v[slot] = 0.0
    zm = MomentState(v)
    w, x, y, z = creator("A"), annihilator("A"), creator("C"), annihilator("C")
    pairs = (pair_moment(zm, w, x) * pair_moment(zm, y, z)
             + pair_moment(zm, w, y) * pair_moment(zm, x, z)
             + pair_moment(zm, w, z) * pair_moment(zm, x, y))
    assert decouple4(zm, w, x, y, z) == pairs


def test_number_triple_product_values():
    assert number_triple_product(initial_state(1, 1, 1)) == 1.0
    assert number_triple_product(initial_state(0, 0, 0)) == 0.0


def test_single_moment_reads_slots(rng):
    s = make_random_state(rng)
    assert single_moment(s, annihilator("B")) == s[Moment.B]
    assert single_moment(s, creator("C")) == s[Moment.Cd]


_parts = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0, 1.0, -2.5]))
_complexes = st.lists(st.builds(complex, _parts, _parts), min_size=1, max_size=8)


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64)


@settings(max_examples=60, deadline=None)
@given(a=_complexes, b=_complexes)
def test_array_arithmetic_rounds_like_python_complex(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    xa, xb = np.array(a), np.array(b)
    assert np.array_equal(_bits(cprod(xa, xb)), _bits([x * y for x, y in zip(a, b)]))
    assert np.array_equal(_bits(cprod(2.0, xa, xb)), _bits([2.0 * x * y for x, y in zip(a, b)]))
    assert np.array_equal(_bits(csquare(xa)), _bits([x ** 2 for x in a]))
    for d in (2.0, 4.0, 2j, 2.0 * np.sqrt(2.0), 2j * np.sqrt(2.0)):
        assert np.array_equal(_bits(cquot(xa, d)), _bits([x / d for x in a]))


def test_decoupling_a_stack_matches_each_state(rng):
    states = [make_random_state(rng) for _ in range(5)]
    stack = np.stack([s.values for s in states])
    word = (creator("A"), annihilator("B"), creator("B"), annihilator("C"))
    got = decouple4(stack, *word)
    assert got.shape == (5,)
    assert np.array_equal(_bits(got), _bits([decouple4(s, *word) for s in states]))
    got = number_triple_product(stack)
    assert np.array_equal(_bits(got), _bits([number_triple_product(s) for s in states]))
