import math
import sys
import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinetrees import scalars, trimat
from affinetrees.actions import MatrixAffineAut
from affinetrees.errors import PrecisionExhausted, ResultTooLarge
from affinetrees.scalars import (
    EXP_INTERVAL_CACHE_SIZE,
    ExpSum,
    _exp_interval,
    check_writable,
    rat_from_str,
    rat_to_str,
    scalar_sign,
)
from affinetrees.ordered import Product, Scalars
from affinetrees.trimat import (
    MAX_COMMON_DENOMINATOR_BITS,
    TriMat,
    _columns,
    _decoded,
    _encode,
    nilpotent_exp,
    unipotent_log,
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
    assert rat_to_str(-7) == "-7"
    for huge in (Fraction(1, 10**5000 + 1), 10**5000):
        with pytest.raises(ResultTooLarge):
            rat_to_str(huge)
    with pytest.raises(ValueError):
        rat_from_str("1.5x")


def test_check_writable_agrees_with_rat_to_str_at_the_limit():
    limit = sys.get_int_max_str_digits()
    for k in (10**limit - 1, -(10**limit - 1), 10**limit, -(10**limit)):
        try:
            rat_to_str(k)
        except ResultTooLarge:
            with pytest.raises(ResultTooLarge):
                check_writable(k)
        else:
            check_writable(k)
    # a limit of 0 writes every int
    sys.set_int_max_str_digits(0)
    try:
        check_writable(10**limit)
    finally:
        sys.set_int_max_str_digits(limit)


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


def test_rat_from_str_builds_the_fraction_that_fraction_builds():
    # the value is built from its reduced parts, so it must be the same
    # object in every observable way: type, value, repr and hash
    for text in ["-0", "+6/4", " 3/9 ", "0/5", "007", "-12/18"]:
        got, want = rat_from_str(text), Fraction(text)
        assert type(got) is type(want)
        assert got == want and repr(got) == repr(want) and hash(got) == hash(want)
    for bad in ["1/0", "1.5", "", True]:
        with pytest.raises(ValueError):
            rat_from_str(bad)


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


@given(expsums(), expsums(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_difference_matches_sum_with_negation(a, b, overlap):
    if overlap:
        # shared exponents, some of whose terms cancel
        b = b + a
    for got, want in ((a - b, a + (-b)), (b - a, b + (-a)), (1 - a, 1 + (-a))):
        assert (got._den, got._num) == (want._den, want._num)
        assert repr(got) == repr(want)
    assert ((a - a)._den, (a - a)._num) == (1, {})


@given(expsums(), small_rats)
@settings(max_examples=60, deadline=None)
def test_shift_matches_product_with_unit_monomial(a, q):
    for value, exp in ((a, q), (a, Fraction(0)), (ExpSum.zero(), q)):
        got = value._shifted((exp.numerator, exp.denominator))
        want = value * ExpSum.exponential(exp)
        assert (got._den, got._num) == (want._den, want._num)
        assert repr(got) == repr(want)


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
        with scalars.refinement_budget(1):
            value.sign()
    assert value.sign() != 0


def test_refinement_budget_is_restored_however_its_block_ends():
    bound = scalars.get_default_max_refinements()
    with scalars.refinement_budget(None):
        assert scalars.get_default_max_refinements() == bound
    with pytest.raises(PrecisionExhausted):
        with scalars.refinement_budget(1):
            assert scalars.get_default_max_refinements() == 1
            close = Fraction("2.7182818284590452353602874713526624977572470936999595")
            (ExpSum.exponential(1) - ExpSum.constant(close)).sign()
    assert scalars.get_default_max_refinements() == bound
    for bad in (0, -3):
        with pytest.raises(ValueError):
            scalars.refinement_budget(bad)
    assert scalars.get_default_max_refinements() == bound


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
    ks = range(1, EXP_INTERVAL_CACHE_SIZE + 100)
    qs = [Fraction(k if k % 2 else -k, 97) for k in ks]
    # e**q - 1 has mixed-sign coefficients and the sign of q; its sign
    # test brackets e**-|q|, a key no other q uses
    sums = [(ExpSum([(q, 1), (0, -1)]), 1 if q > 0 else -1) for q in qs]
    assert all(value.sign() == sign for value, sign in sums)
    info = _exp_interval.cache_info()
    assert info.misses > EXP_INTERVAL_CACHE_SIZE
    assert info.currsize <= info.maxsize
    # evicted brackets are computed again, not lost
    assert all(value.sign() == sign for value, sign in sums[:10])
    assert _exp_interval.cache_info().currsize <= info.maxsize


# -- int numerators over one denominator against a Fraction model -----------------
# The model keeps a sum the way the public surface describes it: Fraction
# exponents mapped to nonzero Fraction coefficients.  Every operation's
# result must match it term for term and be in canonical form.


def ref_of(pairs) -> dict:
    out = {}
    for q, c in pairs:
        out[Fraction(q)] = out.get(Fraction(q), 0) + Fraction(c)
    return {q: c for q, c in out.items() if c}


def ref_add(a: dict, b: dict) -> dict:
    return ref_of(list(a.items()) + list(b.items()))


def ref_mul(a: dict, b: dict) -> dict:
    return ref_of([(q1 + q2, c1 * c2) for q1, c1 in a.items() for q2, c2 in b.items()])


def ref_sign(a: dict) -> int:
    """Sign by brackets of the unshifted exponents (small exponents only)."""
    if not a:
        return 0
    depth = 8
    for _ in range(20):
        lo = hi = Fraction(0)
        for q, c in a.items():
            l, h = _exp_interval((q.numerator, q.denominator), depth)
            lo += c * (l if c >= 0 else h)
            hi += c * (h if c >= 0 else l)
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
        depth *= 2
    raise AssertionError("reference sign did not separate")


def assert_canonical(value: ExpSum):
    """Int numerators over one positive int denominator, sharing no
    factor with it, none zero, keyed by reduced int exponent pairs; the
    zero sum has denominator 1."""
    den, num = value._den, value._num
    assert type(den) is int and den > 0
    assert math.gcd(den, *num.values()) == 1
    for (n, d), c in num.items():
        assert type(n) is int and type(d) is int and type(c) is int
        assert d > 0 and math.gcd(n, d) == 1 and c


def assert_matches(value: ExpSum, ref: dict):
    assert value.terms() == sorted(ref.items())
    for q, c in value.terms():
        assert type(q) is Fraction and type(c) is Fraction
    assert_canonical(value)
    assert value == ExpSum(ref.items())
    assert hash(value) == hash(ExpSum(ref.items()))
    if set(ref) <= {0}:
        # a sum equal to a rational compares and hashes like it
        rational = ref.get(Fraction(0), Fraction(0))
        assert value == rational and hash(value) == hash(rational)


# sums of these reduce (1/6 + 1/3 = 1/2) or cancel (1/2 - 1/2 = 0)
oracle_exps = st.sampled_from(
    [Fraction(k, d) for d in (1, 2, 3, 6) for k in range(-7, 8)]
) | small_rats
# coefficients with denominators up to 12 make the lcm, the gcd after a
# cancellation and the reduction of a product nontrivial; b cancels a's
# terms half the time, so sums and differences drop whole terms
wide_coeffs = st.fractions(min_value=-12, max_value=12, max_denominator=12)
wide_pairs = st.lists(st.tuples(oracle_exps, wide_coeffs), max_size=5)
plain_scalars = st.one_of(st.integers(-12, 12), wide_coeffs)


def ref_neg(a: dict) -> dict:
    return {q: -c for q, c in a.items()}


def ref_scale(a: dict, r) -> dict:
    return ref_of([(q, c * r) for q, c in a.items()])


@given(wide_pairs, wide_pairs, plain_scalars, oracle_exps, st.booleans())
@settings(max_examples=200, deadline=None)
def test_int_pair_keys_match_fraction_reference(pa, pb, r, q0, overlap):
    if overlap:
        pb = pb + [(q, -c) for q, c in pa]
    a, b = ExpSum(pa), ExpSum(pb)
    ra, rb = ref_of(pa), ref_of(pb)
    cases = [
        (a, ra),
        (a + b, ref_add(ra, rb)),
        (b + a, ref_add(ra, rb)),
        (a - b, ref_add(ra, ref_neg(rb))),
        (b - a, ref_add(rb, ref_neg(ra))),
        (a - a, {}),
        (-a, ref_neg(ra)),
        (r - a, ref_add(ref_of([(0, r)]), ref_neg(ra))),
        (r + a, ref_add(ref_of([(0, r)]), ra)),
        (a * b, ref_mul(ra, rb)),
        (b * a, ref_mul(ra, rb)),
        (a * r, ref_scale(ra, r)),
        (r * a, ref_scale(ra, r)),
        (a._shifted((q0.numerator, q0.denominator)), {q + q0: c for q, c in ra.items()}),
    ]
    if r:
        monomial = ExpSum.exponential(q0, r)
        cases += [
            (a / r, ref_scale(ra, 1 / Fraction(r))),
            (monomial, {q0: Fraction(r)}),
            (a / monomial, {q - q0: c / r for q, c in ra.items()}),
            (a * monomial / monomial, ra),
        ]
    for value, ref in cases:
        assert_matches(value, ref)
    assert (a == b) == (ra == rb)
    # equal values reached along different paths hash alike
    round_trip = (a + b) - b
    assert round_trip == a and hash(round_trip) == hash(a)
    assert a.term_count() == len(ra)
    assert a.sign() == ref_sign(ra)
    assert (a - b).sign() == ref_sign(ref_add(ra, ref_neg(rb)))


def test_reduced_and_cancelled_exponents_share_one_key():
    sixth, third, half = Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)
    reduced = ExpSum.exponential(sixth) * ExpSum.exponential(third)
    assert (reduced._den, reduced._num) == (1, {(1, 2): 1})
    assert reduced == ExpSum.exponential(half)
    cancelled = ExpSum.exponential(half, 2) * ExpSum.exponential(-half, 3)
    assert (cancelled._den, cancelled._num) == (1, {(0, 1): 6})
    assert cancelled == ExpSum.constant(6) == 6
    quotient = ExpSum.exponential(half, 3) / ExpSum.exponential(half)
    assert (quotient._den, quotient._num) == (1, {(0, 1): 3})
    # e**(1/6) * e**(1/3) and e**(1/2) land on one key and add up
    total = reduced + ExpSum.exponential(half, -1)
    assert total.is_zero() and (total._den, total._num) == (1, {})
    halves = ExpSum([("2/4", 1), (Fraction(1, 2), 1)])
    assert (halves._den, halves._num) == (1, {(1, 2): 2})


@given(small_rats)
@settings(max_examples=60, deadline=None)
def test_rational_sums_hash_like_the_rational(p):
    for value in (ExpSum.constant(p), ExpSum.exponential(0, p), ExpSum([(0, p)])):
        assert value == p and hash(value) == hash(p)
        assert len({value, p}) == 1
    assert ExpSum() == 0 and hash(ExpSum()) == hash(0) == hash(ExpSum.zero())
    assert {ExpSum.constant(p): "x"}[p] == "x"


def test_term_products_hash_no_fraction(monkeypatch):
    a = ExpSum([(Fraction(1, 2), 3), (0, -1), (2, Fraction(1, 3)), (Fraction(-5, 6), 2)])
    b = ExpSum([(Fraction(1, 3), 1), (Fraction(-1, 2), 4), (0, 7)])
    expected = ExpSum(ref_mul(ref_of(a.terms()), ref_of(b.terms())).items())
    calls = []
    real = Fraction.__hash__

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    product = a * b
    total = product + a + b
    monkeypatch.undo()
    assert calls == []
    assert product == expected and total == expected + a + b


def test_sign_brackets_no_positive_exponent(monkeypatch):
    # e**q for q = 10**9 has about 1.44e9 bits; every bracket must stay in [0, 1]
    brackets = []

    def nonpositive_only(key, depth):
        brackets.append(key)
        assert key[0] <= 0, f"bracketed e**({key[0]}/{key[1]})"
        return _exp_interval(key, depth)

    monkeypatch.setattr(scalars, "_exp_interval", nonpositive_only)
    big = 10**9
    start = time.perf_counter()
    assert ExpSum([(big, 1), (0, -1)]).sign() == 1
    assert ExpSum([(big, -1), (0, 1)]).sign() == -1
    assert ExpSum([(-big, 1), (0, -1)]).sign() == -1
    # e**(q) - 3 e**(q - 1) = e**(q - 1) (e - 3) < 0
    assert ExpSum([(big, 1), (big - 1, -3)]).sign() == -1
    # 2 e**(q + 10**-6) > 2 e**q
    q = Fraction(big, 7)
    assert ExpSum([(q + Fraction(1, 10**6), 2), (q, -2)]).sign() == 1
    assert time.perf_counter() - start < 1.0
    assert brackets


# -- the integer kernels against ring sums in the Fraction model -----------------
# Each matrix entry is modelled as a dict {exponent: coefficient}; the
# model series and affine maps sum those term by term.  PAST pushes a
# coefficient's denominator past MAX_COMMON_DENOMINATOR_BITS, so the
# same draws run both the integer kernels and the ring-summing paths.

PAST = 2**MAX_COMMON_DENOMINATOR_BITS + 1


def kernel_exps(constant: bool):
    """Exponents; only 0 when ``constant``, which runs the kernels' int
    paths for constant sums."""
    if constant:
        return st.just(Fraction(0))
    return st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(1, 3)])


def kernel_sums(past: bool, constant: bool):
    coeffs = small_rats.filter(bool)
    if past:
        coeffs = coeffs.map(lambda c: c / PAST)
    return st.lists(st.tuples(kernel_exps(constant), coeffs), min_size=1, max_size=2)


def model_matmul(a, b):
    n = len(a)
    return [
        [ref_of([qc for k in range(n) for qc in ref_mul(a[i][k], b[k][j]).items()]) for j in range(n)]
        for i in range(n)
    ]


def model_series(strict, diag, coeff):
    """diag * I + sum_{k >= 1} coeff(k) * strict**k, strict nilpotent."""
    n = len(strict)
    out = [[{Fraction(0): Fraction(1)} if diag and i == j else {} for j in range(n)] for i in range(n)]
    power, k = strict, 1
    while any(any(row) for row in power):
        out = [
            [ref_add(o, ref_scale(p, coeff(k))) for o, p in zip(orow, prow)]
            for orow, prow in zip(out, power)
        ]
        power, k = model_matmul(power, strict), k + 1
    return out


def assert_matrix_matches(mat, model):
    for row, mrow in zip(mat.rows, model):
        for value, ref in zip(row, mrow):
            assert isinstance(value, ExpSum)
            assert_matches(value, ref)


@given(st.data(), st.integers(1, 5), st.booleans(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_series_match_fraction_model_on_both_sides_of_the_cutoff(data, n, past, constant):
    entry = st.one_of(st.just([]), kernel_sums(past, constant))
    pairs = [[data.draw(entry) if j > i else [] for j in range(n)] for i in range(n)]
    x = TriMat([[ExpSum(p) for p in row] for row in pairs])
    strict = [[ref_of(p) for p in row] for row in pairs]
    assert_matrix_matches(nilpotent_exp(x), model_series(strict, True, lambda k: Fraction(1, factorial(k))))
    g = TriMat([[ExpSum.one() if i == j else v for j, v in enumerate(row)] for i, row in enumerate(x.rows)])
    assert_matrix_matches(unipotent_log(g), model_series(strict, False, lambda k: Fraction((-1) ** (k + 1), k)))
    assert_matrix_matches(g.inverse(), model_series(strict, True, lambda k: Fraction((-1) ** k)))


@given(st.data(), st.integers(1, 5), st.booleans(), st.booleans(), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_affine_maps_match_fraction_model_on_both_sides_of_the_cutoff(
    data, n, past_map, past_point, translate, constant
):
    positive = small_rats.filter(lambda c: c > 0).map(lambda c: c / PAST if past_map else c)
    diag = st.tuples(kernel_exps(constant), positive).map(lambda qc: [qc])
    entry = st.one_of(st.just([]), kernel_sums(past_map, constant))
    rows = [
        [data.draw(diag if i == j else entry) if j >= i else [] for j in range(n)]
        for i in range(n)
    ]
    shift = [data.draw(entry) for _ in range(n)]
    point = st.one_of(st.just([]), kernel_sums(past_point, constant))
    coords = [data.draw(point) for _ in range(n)]
    xs = [ExpSum(p) for p in coords]
    space = Product(*[Scalars("R")] * n)
    affine = [[ExpSum(p) for p in row] + [ExpSum(t)] for row, t in zip(rows, shift)]
    affine.append([ExpSum.zero()] * n + [ExpSum.one()])
    aut = MatrixAffineAut(TriMat(affine), space)
    model = [
        ref_of(
            [qc for a, x in zip(row, coords) for qc in ref_mul(ref_of(a), ref_of(x)).items()]
            + (list(ref_of(t).items()) if translate else [])
        )
        for row, t in zip(rows, shift)
    ]
    cols, da, ela = _encode(_columns(aut.matrix), True)
    if da is not None:
        # column j holds the nonzero entries of column j of the affine
        # matrix, and decodes back to them
        columns = list(zip(*aut.matrix.rows))
        assert len(cols) == n + 1
        for col, column in zip(cols, columns):
            assert set(col) == {i for i, v in enumerate(column) if v}
            assert all(v for v in col.values())
            for value, want in zip(_decoded(col, n + 1, da, ela, True), column):
                assert (value._den, value._num) == (want._den, want._num)
    ring_mode = []

    def decoded(row, n, den, el, expsum):
        ring_mode.append(den is None)
        return _decoded(row, n, den, el, expsum)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trimat, "_decoded", decoded)
        got = aut.matrix.affine_apply(xs, translate)
    # the integer kernel runs unless a common denominator is past the cutoff
    assert ring_mode == [past_map or (past_point and any(xs))]
    for value, ref in zip(got, model):
        assert_matches(value, ref)
