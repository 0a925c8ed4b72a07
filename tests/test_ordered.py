from bisect import bisect_left
from fractions import Fraction
from math import gcd
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinetrees.errors import IndexSpaceMismatch, ZeroComparand
from affinetrees.ordered import (
    LexFamily,
    LexVec,
    Product,
    Scalars,
    _bisect_fraction,
    add_fraction,
    dominates,
    lex_compare,
    lex_distance,
    shift_sorted,
)
from affinetrees.sampling import trial_rng
from affinetrees.scalars import (
    ExpSum,
    _fraction,
    refinement_budget,
)

Q2 = Product(Scalars("Q"), Scalars("Q"))
Z3 = Product(Scalars("Z"), Scalars("Z"), Scalars("Z"))


def qvec(*vals):
    return LexVec(Q2, tuple(Fraction(v) for v in vals))


def test_leading_coordinate_decides():
    assert qvec(1, 0) > qvec(0, 5)


def test_equal_values():
    assert lex_compare(qvec(2, 3), qvec(2, 3)) == 0


def test_column_convention_chain():
    n = 4
    space = Product(*([Scalars("Q")] * n))
    units = []
    for pos in range(n - 1, -1, -1):
        vals = [0] * n
        vals[pos] = 1
        units.append(LexVec(space, vals))
    # (0,...,0,1) < (0,...,1,0) < ... < (1,0,...,0)
    for a, b in zip(units, units[1:]):
        assert a < b
        assert dominates(a, b)


def test_dominates_examples():
    assert dominates(qvec(0, 1), qvec(1, 0))
    assert not dominates(qvec(1, 0), qvec(1, 1))
    assert dominates(qvec(0, 0), qvec(0, 3))
    with pytest.raises(ZeroComparand):
        dominates(qvec(1, 0), qvec(0, 0))


def test_dominates_antisymmetric_on_nonzero():
    for a, b in [(qvec(0, 1), qvec(1, 0)), (qvec(0, 2), qvec(3, 1))]:
        assert dominates(a, b)
        assert not dominates(b, a)


def test_arithmetic():
    a = qvec(1, 2)
    zero = LexVec.zero(Q2)
    assert a + zero == a
    assert (a - a).is_zero()


def test_distance_example():
    # |(3,1) - (1,4)| = |(2,-3)| = (2,-3): the leading coordinate is
    # already positive
    assert lex_distance(qvec(3, 1), qvec(1, 4)) == qvec(2, -3)
    assert lex_distance(qvec(1, 4), qvec(3, 1)) == qvec(2, -3)


def test_index_space_mismatch():
    with pytest.raises(IndexSpaceMismatch):
        qvec(1, 0) + LexVec(Z3, (1, 0, 0))


small_ints = st.integers(min_value=-20, max_value=20)
triples = st.tuples(small_ints, small_ints, small_ints)


@given(triples, triples)
@settings(max_examples=80, deadline=None)
def test_total_order_trichotomy(a, b):
    va, vb = LexVec(Z3, a), LexVec(Z3, b)
    assert (va < vb) + (va == vb) + (va > vb) == 1


@given(triples, triples, triples)
@settings(max_examples=80, deadline=None)
def test_order_translation_invariant(a, b, c):
    va, vb, vc = (LexVec(Z3, v) for v in (a, b, c))
    if va < vb:
        assert va + vc < vb + vc


@given(triples, triples, triples)
@settings(max_examples=80, deadline=None)
def test_metric_laws(a, b, c):
    va, vb, vc = (LexVec(Z3, v) for v in (a, b, c))
    d_ab = lex_distance(va, vb)
    assert d_ab.sign() >= 0
    assert (d_ab.sign() == 0) == (va == vb)
    assert d_ab == lex_distance(vb, va)
    lhs = lex_distance(va, vc)
    assert lhs <= lex_distance(va, vb) + lex_distance(vb, vc)


def test_real_fiber_comparisons():
    space = Product(Scalars("R"), Scalars("R"))
    a = LexVec(space, (ExpSum.exponential(1), ExpSum.zero()))
    b = LexVec(space, (ExpSum.constant(3), ExpSum.zero()))
    assert a < b  # e < 3
    c = LexVec(space, (ExpSum.constant(Fraction(5, 2)), ExpSum.exponential(2)))
    assert a > c  # e > 5/2


def test_family_compare_at_least_index():
    fam = LexFamily(Scalars("Z"), Scalars("Q"))
    a = LexVec(fam, {0: Fraction(1)})
    b = LexVec(fam, {1: Fraction(100)})
    assert a > b  # index 0 is more significant
    assert dominates(b, a)
    assert a + b == LexVec(fam, {0: Fraction(1), 1: Fraction(100)})
    assert (a - a).is_zero()


def test_family_zero_values_dropped():
    fam = LexFamily(Scalars("Z"), Scalars("Q"))
    v = LexVec(fam, {2: Fraction(0), 3: Fraction(1)})
    assert v.value == ((3, Fraction(1)),)


def test_nested_family_of_products():
    fam = LexFamily(Scalars("Z"), Q2)
    a = LexVec(fam, {0: (Fraction(0), Fraction(1))})
    b = LexVec(fam, {0: (Fraction(1), Fraction(0))})
    assert a < b
    assert dominates(a, b)  # same index, fiber classes nested


def test_abs_and_sign():
    assert abs(qvec(-1, 5)) == qvec(1, -5)
    assert qvec(0, -2).sign() == -1
    assert LexVec.zero(Q2).sign() == 0


def test_scalar_kind_validation():
    with pytest.raises(IndexSpaceMismatch):
        LexVec(Z3, (Fraction(1, 2), 0, 0))
    with pytest.raises(ValueError):
        Scalars("X")


# -- the merge against the dict-and-sort bodies it replaced ------------------


class DictFamily(LexFamily):
    """The oracle: each value copied into a dict keyed by index, then the
    union re-sorted."""

    def add(self, a, b):
        out = dict(a)
        for idx, v in b:
            if idx in out:
                s = self.fiber.add(out[idx], v)
                if self.fiber.is_zero(s):
                    del out[idx]
                else:
                    out[idx] = s
            else:
                out[idx] = v
        return tuple(sorted(out.items(), key=lambda kv: kv[0]))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def compare(self, a, b) -> int:
        da, db = dict(a), dict(b)
        for idx in sorted(set(da) | set(db)):
            va = da.get(idx, self.fiber.zero())
            vb = db.get(idx, self.fiber.zero())
            c = self.fiber.compare(va, vb)
            if c:
                return c
        return 0


class DictProduct(Product):
    """Product whose difference is the sum with the negation, as before
    ``sub`` was componentwise."""

    def sub(self, a, b):
        return self.add(a, self.neg(b))


def oracle_space(space):
    if isinstance(space, LexFamily):
        return DictFamily(space.index, oracle_space(space.fiber))
    if isinstance(space, Product):
        return DictProduct(*(oracle_space(f) for f in space.factors))
    return space


def index_pool(index):
    if index.kind == "Z":
        return list(range(-3, 4))
    return sorted({Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3)})


@st.composite
def space_values(draw, space):
    if isinstance(space, Scalars):
        c = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        if space.kind == "Z":
            return c.numerator
        if space.kind == "Q":
            return c
        value = ExpSum.constant(c)
        if draw(st.booleans()):
            q = Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 2)))
            value = value + ExpSum.exponential(q, draw(st.integers(-2, 2)))
        return value
    if isinstance(space, Product):
        return tuple(draw(space_values(f)) for f in space.factors)
    indices = draw(st.lists(st.sampled_from(index_pool(space.index)), max_size=4))
    return space.coerce({i: draw(space_values(space.fiber)) for i in indices})


@st.composite
def colliding_pairs(draw, space):
    """(a, b) where b shares indices with a: some fibers negated (their
    sum vanishes), some repeated (their difference vanishes), some
    redrawn, plus fresh ones."""
    a = draw(space_values(space))
    b = {}
    for idx, v in a:
        mode = draw(st.sampled_from(("skip", "negate", "repeat", "redraw")))
        if mode == "negate":
            b[idx] = space.fiber.neg(v)
        elif mode == "repeat":
            b[idx] = v
        elif mode == "redraw":
            b[idx] = draw(space_values(space.fiber))
    for idx, v in draw(space_values(space)):
        b.setdefault(idx, v)
    return a, space.coerce(b)


FAMILIES = [
    LexFamily(Scalars("Z"), Scalars("Q")),
    LexFamily(Scalars("Q"), Scalars("R")),
    LexFamily(Scalars("Z"), Product(Scalars("Q"), LexFamily(Scalars("Q"), Scalars("Z")))),
    LexFamily(Scalars("Q"), LexFamily(Scalars("Z"), Scalars("Z"))),
]


#: seeded towers of three family levels
TOWERS = [
    LexFamily(Scalars("Q"), LexFamily(Scalars("Q"), LexFamily(Scalars("Q"), Scalars("Q")))),
    LexFamily(
        Scalars("Z"),
        Product(Scalars("R"), LexFamily(Scalars("Q"), LexFamily(Scalars("Z"), Scalars("Z")))),
    ),
]


@pytest.mark.parametrize("space", FAMILIES, ids=repr)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_family_merge_matches_dict_oracle(space, data):
    oracle = oracle_space(space)
    a, b = data.draw(colliding_pairs(space))
    for op in ("add", "sub"):
        got = getattr(space, op)(a, b)
        want = getattr(oracle, op)(a, b)
        assert got == want
        assert repr(got) == repr(want)
        assert repr(got) == repr(space.coerce(got))
    assert not space.sub(a, a)
    assert not space.add(a, space.neg(a))
    assert space.compare(a, b) == oracle.compare(a, b)
    assert space.compare(b, a) == oracle.compare(b, a) == -space.compare(a, b)
    assert space.compare(a, a) == 0
    assert space.compare(a, ()) == oracle.compare(a, ())


def coerced_draw(space, rng):
    """A sample drawn with the same RNG calls as ``space.sample`` makes,
    each family level passing its draws through ``coerce``."""
    if isinstance(space, Scalars):
        return space.sample(rng)
    if isinstance(space, Product):
        return tuple(coerced_draw(f, rng) for f in space.factors)
    out = {}
    for _ in range(rng.randint(0, 3)):
        out[coerced_draw(space.index, rng)] = coerced_draw(space.fiber, rng)
    return space.coerce(out)


@pytest.mark.parametrize("tower", TOWERS, ids=repr)
def test_family_sample_is_a_normal_form_without_coercion(tower):
    for seed in range(40):
        want = coerced_draw(tower, trial_rng(seed, "sample"))
        rng, replay = trial_rng(seed, "sample"), trial_rng(seed, "sample")
        coerced = []
        with pytest.MonkeyPatch.context() as mp:
            for cls in (Scalars, Product, LexFamily):
                real = cls.coerce

                def counting(self, value, real=real):
                    coerced.append(self)
                    return real(self, value)

                mp.setattr(cls, "coerce", counting)
            got = tower.sample(rng)
        assert not coerced
        assert got == want and repr(got) == repr(want)
        assert repr(tower.coerce(got)) == repr(got)
        coerced_draw(tower, replay)
        assert rng.random() == replay.random()  # the same draws were made


# -- point equality: structural, and the same as the order's ----------------

EQUALITY_SPACES = [
    Scalars("Z"),
    Scalars("Q"),
    Scalars("R"),
    Product(Scalars("Z"), Scalars("Q"), Scalars("R")),
    *FAMILIES,
    *TOWERS,
]


@pytest.mark.parametrize("space", EQUALITY_SPACES, ids=repr)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_point_equality_matches_lex_compare(space, data):
    a = LexVec(space, data.draw(space_values(space)))
    d = LexVec(space, data.draw(st.one_of(st.just(space.zero()), space_values(space))))
    for b in (a + d, a - d, (a + d) - d, LexVec(space, data.draw(space_values(space)))):
        same = lex_compare(a, b) == 0
        assert (a == b) is same and (b == a) is same
        assert (a != b) is not same
        if same:
            assert hash(a) == hash(b)


def test_point_equality_runs_no_sign_test(monkeypatch):
    """e and a 53-digit rational just below it need more than one sign
    refinement to tell apart; equality tells them apart structurally."""
    e = ExpSum.exponential(1)
    near = ExpSum.constant(
        Fraction(27182818284590452353602874713526624977572470936999595, 10**52)
    )
    r = Scalars("R")
    pairs = [
        (LexVec(r, e), LexVec(r, near)),
        (LexVec(Product(r, r), (e, 0)), LexVec(Product(r, r), (near, 0))),
        (
            LexVec(LexFamily(Scalars("Z"), r), {1: e}),
            LexVec(LexFamily(Scalars("Z"), r), {1: near}),
        ),
    ]

    def no_sign(self):
        raise AssertionError("point equality ran a sign test")

    with refinement_budget(1):
        monkeypatch.setattr(ExpSum, "sign", no_sign)
        for a, b in pairs:
            assert a != b and not a == b
            assert len({a, b}) == 2
            assert a == LexVec(a.space, a.value) and b == LexVec(b.space, b.value)


# -- index shifts in int arithmetic against Fraction arithmetic ---------------

# denominators with common factors, so a sum's parts are often unreduced
rationals = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 4, 6, 12]))


def assert_same_scalar(got, want):
    """Equal as values and as objects: an unreduced Fraction is != and
    hashes apart from the reduced one without any error."""
    assert type(got) is type(want)
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got.denominator > 0 and gcd(got.numerator, got.denominator) == 1


@pytest.mark.parametrize("kind", ["Z", "Q"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_shift_sorted_matches_scalar_addition(kind, data):
    scalar = st.integers(-40, 40) if kind == "Z" else rationals
    indices = sorted(set(data.draw(st.lists(scalar, max_size=8))))
    pairs = tuple((i, object()) for i in indices)
    t = data.draw(scalar)
    for shift in (t, -t):
        got = shift_sorted(pairs, shift)
        assert type(got) is tuple
        assert [v for _, v in got] == [v for _, v in pairs]
        for (i, _), (j, _) in zip(pairs, got):
            assert_same_scalar(j, i + shift)
        assert [j for j, _ in got] == sorted(j for j, _ in got)
    # any iterable of pairs is taken, not only a tuple
    assert shift_sorted(iter(pairs), t) == shift_sorted(pairs, t)


@given(a=rationals, b=rationals)
@settings(max_examples=300, deadline=None)
def test_slot_sum_matches_fraction_arithmetic(a, b):
    assert_same_scalar(add_fraction(a, b), a + b)
    assert_same_scalar(add_fraction(a, -a), Fraction(0))


@given(st.lists(rationals, max_size=10))
@settings(max_examples=200, deadline=None)
def test_slot_search_matches_bisect_left(indices):
    indices = sorted(set(indices))
    pairs = [(i, object()) for i in indices]
    # below, at and above every stored index, and past both ends
    probes = {Fraction(-41), Fraction(41)}
    for i in indices:
        probes |= {i - Fraction(1, 24), i, i + Fraction(1, 24)}
    for idx in probes:
        for lo in range(len(pairs) + 1):
            want = bisect_left(pairs, idx, lo, key=itemgetter(0))
            assert _bisect_fraction(pairs, idx, lo) == want


@given(st.integers(-10**30, 10**30), st.integers(1, 10**30))
@settings(max_examples=200, deadline=None)
def test_fraction_from_reduced_parts_matches_fraction(n, d):
    want = Fraction(n, d)
    got = _fraction(want.numerator, want.denominator)
    assert_same_scalar(got, want)
    assert got + Fraction(1, 3) == want + Fraction(1, 3)
    assert got < want + 1 and not got < want
