from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinetrees.errors import PrecisionExhausted
from affinetrees.scalars import (
    EXP_INTERVAL_CACHE_SIZE,
    ExpSum,
    _exp_interval,
    rat_from_str,
    rat_to_str,
    scalar_sign,
)

# -- rationals -----------------------------------------------------------------


def test_rat_addition():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_rat_absorbing_zero():
    assert Fraction(2, 3) * 0 == 0


def test_rat_division():
    assert Fraction(1, 2) / Fraction(1, 3) == Fraction(3, 2)


def test_rat_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


def test_rat_string_roundtrip():
    assert rat_from_str("−3".replace("−", "-")) == -3
    assert rat_from_str("5/10") == Fraction(1, 2)
    assert rat_to_str(Fraction(6, 4)) == "3/2"
    assert rat_to_str(Fraction(-7)) == "-7"
    with pytest.raises(ValueError):
        rat_from_str("1.5x")


@pytest.mark.parametrize(
    "value", ["+3/4", "-0", " 7 ", "-12/18", "007", -4, 0, Fraction(3, 6)]
)
def test_rat_from_str_documented_forms(value):
    # 'p', 'p/q' and ints parse exactly as Fraction parses them
    assert rat_from_str(value) == Fraction(value)


@pytest.mark.parametrize("text", ["1e30000", "1.5", "1_000", "1/0", "1/-2", "1 / 2"])
def test_rat_from_str_rejects_other_forms(text):
    with pytest.raises(ValueError):
        rat_from_str(text)


# -- exponential sums ------------------------------------------------------------


def test_exponent_addition():
    assert ExpSum.exponential(1) * ExpSum.exponential(Fraction(1, 2)) == ExpSum.exponential(Fraction(3, 2))


def test_cancellation_gives_empty_map():
    diff = ExpSum.exponential(1) - ExpSum.exponential(1)
    assert diff.is_zero()
    assert diff.terms() == []


def test_distributivity_example():
    lhs = (ExpSum.constant(2) + ExpSum.exponential(1)) * ExpSum.exponential(-1)
    rhs = ExpSum.exponential(-1, 2) + ExpSum.exponential(0)
    assert lhs == rhs


def test_division_by_monomial():
    value = ExpSum.constant(2) + ExpSum.exponential(1)
    quot = value / ExpSum.exponential(1, 2)
    assert quot == ExpSum.exponential(-1) + ExpSum.constant(Fraction(1, 2))
    with pytest.raises(ValueError):
        value / value
    with pytest.raises(ZeroDivisionError):
        value / ExpSum.zero()


small_rats = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@st.composite
def expsums(draw):
    terms = draw(
        st.lists(st.tuples(small_rats, small_rats), min_size=0, max_size=4)
    )
    return ExpSum(terms)


@given(expsums(), expsums(), expsums())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(expsums())
@settings(max_examples=60, deadline=None)
def test_sign_zero_iff_empty(a):
    assert (a.sign() == 0) == a.is_zero()


@given(expsums())
@settings(max_examples=60, deadline=None)
def test_sign_of_negation(a):
    if not a.is_zero():
        assert a.sign() * (-a).sign() == -1


@given(small_rats, small_rats)
@settings(max_examples=60, deadline=None)
def test_rational_embedding_is_ring_hom(p, q):
    embed = ExpSum.constant
    assert embed(p) + embed(q) == embed(p + q)
    assert embed(p) * embed(q) == embed(p * q)
    assert embed(p).sign() == scalar_sign(p)


# -- sign determination -----------------------------------------------------------


def test_sign_empty():
    assert ExpSum.zero().sign() == 0


def test_sign_e_exceeds_one():
    assert (ExpSum.exponential(1) - ExpSum.exponential(0)).sign() == 1


def _euler_bounds(terms: int) -> tuple[Fraction, Fraction]:
    """Independent bracket for e via plain series partial sums: the tail
    after N terms is below 2/N! for N >= 2."""
    partial = Fraction(0)
    term = Fraction(1)
    for i in range(1, terms + 1):
        partial += term
        term /= i
    return partial, partial + 2 * term


def test_sign_three_exceeds_e():
    lo, hi = _euler_bounds(20)
    assert lo < hi and hi < 3  # oracle: e < 3 by direct series bound
    value = ExpSum.constant(3) - ExpSum.exponential(1)
    assert value.sign() == 1


def test_sign_against_series_oracle():
    # 2.7182818284 < e < 2.7182818285 by the series bracket
    lo, hi = _euler_bounds(18)
    below = Fraction(27182818284, 10**10)
    above = Fraction(27182818285, 10**10)
    assert below < lo and hi < above
    assert (ExpSum.exponential(1) - ExpSum.constant(below)).sign() == 1
    assert (ExpSum.exponential(1) - ExpSum.constant(above)).sign() == -1


def test_precision_guard_trips_on_tiny_budget():
    # a nonzero value so close to zero that one refinement pass cannot
    # separate it; the default budget resolves it fine
    close = Fraction("2.7182818284590452353602874713526624977572470936999595")
    value = ExpSum.exponential(1) - ExpSum.constant(close)
    with pytest.raises(PrecisionExhausted):
        value.sign(max_refinements=1)
    assert value.sign() != 0


def test_comparisons_route_through_sign():
    assert ExpSum.exponential(1) > 2
    assert ExpSum.exponential(1) < 3
    assert ExpSum.exponential(-1) < 1
    assert ExpSum.constant(Fraction(1, 2)) <= ExpSum.constant(Fraction(1, 2))


def test_scalar_sign_dispatch():
    assert scalar_sign(Fraction(-2, 5)) == -1
    assert scalar_sign(0) == 0
    assert scalar_sign(ExpSum.exponential(2)) == 1
    with pytest.raises(TypeError):
        scalar_sign("1")


def test_exp_interval_cache_is_bounded():
    _exp_interval.cache_clear()
    assert _exp_interval.cache_info().maxsize == EXP_INTERVAL_CACHE_SIZE
    for k in range(1, EXP_INTERVAL_CACHE_SIZE + 100):
        q = Fraction(k if k % 2 else -k, 97)
        # e**q - 1 has mixed-sign coefficients and the sign of q
        assert ExpSum([(q, 1), (0, -1)]).sign() == (1 if q > 0 else -1)
    info = _exp_interval.cache_info()
    assert info.currsize <= info.maxsize
