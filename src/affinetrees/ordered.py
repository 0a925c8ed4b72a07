"""Ordered abelian groups with lexicographic structure.

Three space shapes cover everything the constructions need:

* :class:`Scalars` -- the integers, the rationals, or exact reals
  modelled by :class:`~affinetrees.scalars.ExpSum` values.
* :class:`Product` -- a finite lexicographic product; the *first* factor
  is the most significant.
* :class:`LexFamily` -- finitely supported maps from an ordered scalar
  index (integers or rationals) into a common fiber space, compared at
  the smallest differing index.  Finite support is automatically
  well-ordered, so these sit inside the full lexicographic product.

A :class:`LexVec` pairs a value with its space and provides exact
comparison, addition and the metric d(a, b) = |a - b|.  Every value has
one normal form (an exact real is an :class:`~affinetrees.scalars.ExpSum`
in lowest terms, and distinct powers of e are linearly independent over
the rationals), so two points are equal exactly when their spaces and
normal forms are: equality compares them structurally, never runs a
sign test, and agrees with ``hash``.

Values are validated and normalised where they enter, by
``LexVec(space, value)`` and :meth:`Space.coerce`; :meth:`Space.sample`
returns normal forms too.  ``add``, ``neg`` and ``sub`` take and return
normal forms, so :class:`LexVec` arithmetic does not coerce again.
Family values stay sorted by index, so a sum or difference is merged into
a copy of one operand by bisection (:func:`merge_sorted`) rather than
rebuilt through a dict and sorted again.  A rational index is a Fraction
in lowest terms with a positive denominator, as :class:`Scalars` ('Q')
makes it, so its ``_numerator``/``_denominator`` int slots alone decide
order and equality.  Rational indices are searched (:func:`merge_sorted`),
shifted (:func:`shift_sorted`) and added (:func:`add_fraction`) on those
slots, without ``Fraction``'s operator dispatch; the results are the
reduced Fractions the operators give.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd
from operator import itemgetter

from .errors import IndexSpaceMismatch, ZeroComparand
from .scalars import ExpSum, _fraction


_INDEX = itemgetter(0)


def _bisect_fraction(pairs, idx: Fraction, lo: int) -> int:
    """``bisect_left(pairs, idx, lo, key=itemgetter(0))`` for a Fraction
    idx among Fraction indices, read from their int slots: a/b < n/d is
    a*d < n*b, since both denominators are positive."""
    n, d = idx._numerator, idx._denominator
    hi = len(pairs)
    while lo < hi:
        mid = (lo + hi) >> 1
        f = pairs[mid][0]
        if f._numerator * d < n * f._denominator:
            lo = mid + 1
        else:
            hi = mid
    return lo


def merge_sorted(pairs: tuple, updates, combine, is_zero) -> tuple:
    """Merge index-sorted ``updates`` into the index-sorted ``pairs``.

    For each ``(idx, u)`` the value v stored at idx becomes
    ``combine(v, u)``, or ``combine(None, u)`` where idx is absent; a
    result for which ``is_zero`` holds is dropped.  Each update's place is
    found by bisection, starting where the previous one was found, so no
    index is hashed and the untouched pairs are not sorted again.  An int
    index is placed by the C ``bisect_left``; a Fraction index by a binary
    search on the ``_numerator``/``_denominator`` slots, which finds the
    same place and tests the index there for equality slot by slot, as
    reduced forms allow, without ``Fraction.__lt__`` or ``__eq__``.
    """
    if not updates:
        return pairs
    out = list(pairs)
    pos = 0
    for idx, u in updates:
        if type(idx) is Fraction:
            pos = _bisect_fraction(out, idx, pos)
            if pos < len(out):
                at = out[pos][0]
                here = at._numerator == idx._numerator and at._denominator == idx._denominator
            else:
                here = False
        else:
            pos = bisect_left(out, idx, pos, key=_INDEX)
            here = pos < len(out) and out[pos][0] == idx
        if here:
            v = combine(out[pos][1], u)
            if is_zero(v):
                del out[pos]
            else:
                out[pos] = (idx, v)
        else:
            v = combine(None, u)
            if not is_zero(v):
                out.insert(pos, (idx, v))
    return tuple(out)


def add_fraction(x: Fraction, y: Fraction) -> Fraction:
    """x + y for Fractions x and y, on their int slots.

    Where either denominator is 1 the sum is already in lowest terms;
    otherwise one gcd reduces it, and the floor divisions are skipped
    when that gcd is 1.  The result is the reduced Fraction that
    ``x + y`` gives, built without ``Fraction.__add__``'s dispatch.
    """
    a, b = x._numerator, x._denominator
    p, q = y._numerator, y._denominator
    if b == 1:
        n, d = a * q + p, q
    elif q == 1:
        n, d = a + p * b, b
    else:
        n, d = a * q + p * b, b * q
        g = gcd(n, d)
        if g != 1:
            n, d = n // g, d // g
    return _fraction(n, d)


def shift_sorted(pairs, t) -> tuple:
    """The ``(idx, v)`` pairs with every index moved to idx + t, in order.

    Integer indices move by ``i + t``.  For a rational t = p/q each index
    a/b becomes (a*q + p*b) / (b*q) in int arithmetic, by the rule of
    :func:`add_fraction` written out in the loop body: already in lowest
    terms when b or q is 1, and after one gcd otherwise, with no floor
    division when that gcd is 1.  Each Fraction is built in place by
    ``object.__new__`` and two slot writes.  A rational shift reads the
    slots of the indices, which must be Fractions, as :class:`Scalars`
    ('Q') makes them.  A uniform shift keeps the pairs sorted.
    """
    if type(t) is not Fraction:
        return tuple([(i + t, v) for i, v in pairs])
    p, q = t._numerator, t._denominator
    new = object.__new__
    out = []
    for i, v in pairs:
        a, b = i._numerator, i._denominator
        if b == 1:
            n, d = a * q + p, q
        elif q == 1:
            n, d = a + p * b, b
        else:
            n, d = a * q + p * b, b * q
            g = gcd(n, d)
            if g != 1:
                n, d = n // g, d // g
        i = new(Fraction)
        i._numerator = n
        i._denominator = d
        out.append((i, v))
    return tuple(out)


class Space:
    """Shared interface; concrete spaces implement value handling."""

    def coerce(self, value):
        raise NotImplementedError

    def zero(self):
        raise NotImplementedError

    def is_zero(self, value) -> bool:
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def compare(self, a, b) -> int:
        raise NotImplementedError

    def leading(self, value):
        """Significance path of the leading nonzero coordinate, or None.

        Paths of nonzero values in one space align level by level; an
        elementwise-larger path means a less significant (archimedean
        smaller) value.
        """
        raise NotImplementedError

    def sample(self, rng):
        raise NotImplementedError


_ZEROS = {"Z": 0, "Q": Fraction(0), "R": ExpSum.zero()}


class Scalars(Space):
    """The ordered group of integers ('Z'), rationals ('Q') or exact
    reals represented by ExpSum values ('R')."""

    __slots__ = ("kind",)
    KINDS = ("Z", "Q", "R")

    def __init__(self, kind: str):
        if kind not in self.KINDS:
            raise ValueError(f"unknown scalar kind {kind!r}")
        self.kind = kind

    def __eq__(self, other):
        return isinstance(other, Scalars) and self.kind == other.kind

    def __hash__(self):
        return hash(("Scalars", self.kind))

    def __repr__(self):
        return f"Scalars({self.kind!r})"

    def coerce(self, value):
        if isinstance(value, bool):
            raise IndexSpaceMismatch(f"not a scalar: {value!r}")
        if self.kind == "Z":
            if isinstance(value, int):
                return value
            if isinstance(value, Fraction) and value.denominator == 1:
                return int(value)
            raise IndexSpaceMismatch(f"not an integer: {value!r}")
        if self.kind == "Q":
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int):
                return Fraction(value)
            raise IndexSpaceMismatch(f"not a rational: {value!r}")
        if isinstance(value, ExpSum):
            return value
        if isinstance(value, (int, Fraction)):
            return ExpSum.constant(value)
        raise IndexSpaceMismatch(f"not an exact real: {value!r}")

    def zero(self):
        return _ZEROS[self.kind]

    def is_zero(self, value) -> bool:
        return not value

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def compare(self, a, b) -> int:
        if self.kind == "R":
            return (a - b).sign()
        return (a > b) - (a < b)

    def leading(self, value):
        return () if value else None

    def sample(self, rng):
        if self.kind == "Z":
            return rng.randint(-8, 8)
        if self.kind == "Q":
            return Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        base = ExpSum.constant(Fraction(rng.randint(-8, 8), rng.randint(1, 8)))
        if rng.random() < 0.3:
            base = base + ExpSum.exponential(
                Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-3, 3))
            )
        return base


class Product(Space):
    """Finite lexicographic product; factor 0 is the most significant."""

    __slots__ = ("factors",)

    def __init__(self, *factors: Space):
        if not factors:
            raise ValueError("a product needs at least one factor")
        self.factors = tuple(factors)

    def __eq__(self, other):
        return isinstance(other, Product) and self.factors == other.factors

    def __hash__(self):
        return hash(("Product", self.factors))

    def __repr__(self):
        return f"Product{self.factors!r}"

    def coerce(self, value):
        if not isinstance(value, (tuple, list)) or len(value) != len(self.factors):
            raise IndexSpaceMismatch(
                f"expected {len(self.factors)} components, got {value!r}"
            )
        return tuple(f.coerce(v) for f, v in zip(self.factors, value))

    def zero(self):
        return tuple(f.zero() for f in self.factors)

    def is_zero(self, value) -> bool:
        return all(f.is_zero(v) for f, v in zip(self.factors, value))

    def add(self, a, b):
        return tuple(f.add(x, y) for f, x, y in zip(self.factors, a, b))

    def neg(self, a):
        return tuple(f.neg(x) for f, x in zip(self.factors, a))

    def sub(self, a, b):
        return tuple(f.sub(x, y) for f, x, y in zip(self.factors, a, b))

    def compare(self, a, b) -> int:
        for f, x, y in zip(self.factors, a, b):
            c = f.compare(x, y)
            if c:
                return c
        return 0

    def leading(self, value):
        for i, (f, v) in enumerate(zip(self.factors, value)):
            path = f.leading(v)
            if path is not None:
                return (i,) + path
        return None

    def sample(self, rng):
        return tuple(f.sample(rng) for f in self.factors)


class LexFamily(Space):
    """Finitely supported maps index -> fiber, ordered at the least
    differing index.  Values are tuples of (index, fiber value) pairs,
    sorted ascending by index, storing nonzero fiber values only."""

    __slots__ = ("index", "fiber")

    def __init__(self, index: Scalars, fiber: Space):
        if not isinstance(index, Scalars) or index.kind == "R":
            raise ValueError("family index must be the Z or Q scalar space")
        self.index = index
        self.fiber = fiber

    def __eq__(self, other):
        return (
            isinstance(other, LexFamily)
            and self.index == other.index
            and self.fiber == other.fiber
        )

    def __hash__(self):
        return hash(("LexFamily", self.index, self.fiber))

    def __repr__(self):
        return f"LexFamily({self.index!r}, {self.fiber!r})"

    def coerce(self, value):
        if isinstance(value, dict):
            items = value.items()
        elif isinstance(value, (tuple, list)):
            items = value
        else:
            raise IndexSpaceMismatch(f"not a supported-map value: {value!r}")
        out = {}
        for idx, v in items:
            idx = self.index.coerce(idx)
            v = self.fiber.coerce(v)
            if idx in out:
                raise IndexSpaceMismatch(f"duplicate support index {idx!r}")
            if not self.fiber.is_zero(v):
                out[idx] = v
        return tuple(sorted(out.items(), key=lambda kv: kv[0]))

    def zero(self):
        return ()

    def is_zero(self, value) -> bool:
        return not value

    def add(self, a, b):
        fiber = self.fiber
        return merge_sorted(
            a, b, lambda x, v: v if x is None else fiber.add(x, v), fiber.is_zero
        )

    def neg(self, a):
        return tuple((idx, self.fiber.neg(v)) for idx, v in a)

    def sub(self, a, b):
        fiber = self.fiber
        return merge_sorted(
            a,
            b,
            lambda x, v: fiber.neg(v) if x is None else fiber.sub(x, v),
            fiber.is_zero,
        )

    def compare(self, a, b) -> int:
        """Compare at the least index where the families differ, walking
        both sorted supports together; an absent index holds zero."""
        fiber = self.fiber
        i = j = 0
        na, nb = len(a), len(b)
        while i < na or j < nb:
            if j == nb or (i < na and a[i][0] < b[j][0]):
                c = fiber.compare(a[i][1], fiber.zero())
                i += 1
            elif i == na or b[j][0] < a[i][0]:
                c = fiber.compare(fiber.zero(), b[j][1])
                j += 1
            else:
                c = fiber.compare(a[i][1], b[j][1])
                i += 1
                j += 1
            if c:
                return c
        return 0

    def leading(self, value):
        if not value:
            return None
        idx, v = value[0]
        return (idx,) + self.fiber.leading(v)

    def sample(self, rng):
        """A normal form drawn directly: the index and fiber samples are
        normal forms already, so only the zero fibers are dropped."""
        size = rng.randint(0, 3)
        out = {}
        for _ in range(size):
            out[self.index.sample(rng)] = self.fiber.sample(rng)
        nonzero = [(i, v) for i, v in out.items() if not self.fiber.is_zero(v)]
        return tuple(sorted(nonzero, key=lambda kv: kv[0]))


class LexVec:
    """A value together with the space it lives in."""

    __slots__ = ("space", "value")

    def __init__(self, space: Space, value):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "value", space.coerce(value))

    @classmethod
    def _trusted(cls, space: Space, value) -> "LexVec":
        """Wrap a value already in normal form for ``space``, unchecked."""
        vec = object.__new__(cls)
        vec.space, vec.value = space, value
        return vec

    @classmethod
    def zero(cls, space: Space) -> "LexVec":
        return cls._trusted(space, space.zero())

    def _check(self, other) -> "LexVec":
        if not isinstance(other, LexVec):
            raise TypeError(f"expected LexVec, got {other!r}")
        if other.space != self.space:
            raise IndexSpaceMismatch(f"{self.space!r} vs {other.space!r}")
        return other

    def is_zero(self) -> bool:
        return self.space.is_zero(self.value)

    def __add__(self, other):
        other = self._check(other)
        return LexVec._trusted(self.space, self.space.add(self.value, other.value))

    def __sub__(self, other):
        other = self._check(other)
        return LexVec._trusted(self.space, self.space.sub(self.value, other.value))

    def __neg__(self):
        return LexVec._trusted(self.space, self.space.neg(self.value))

    def __eq__(self, other):
        if not isinstance(other, LexVec):
            return NotImplemented
        return self.space == other.space and self.value == other.value

    def __hash__(self):
        return hash((self.space, self.value))

    def __lt__(self, other):
        return self.space.compare(self.value, self._check(other).value) < 0

    def __le__(self, other):
        return self.space.compare(self.value, self._check(other).value) <= 0

    def __gt__(self, other):
        return self.space.compare(self.value, self._check(other).value) > 0

    def __ge__(self, other):
        return self.space.compare(self.value, self._check(other).value) >= 0

    def sign(self) -> int:
        return self.space.compare(self.value, self.space.zero())

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def __repr__(self):
        return f"LexVec({self.value!r})"


def lex_compare(a: LexVec, b: LexVec) -> int:
    """Total-order comparison: -1, 0 or +1."""
    a._check(b)
    return a.space.compare(a.value, b.value)


def lex_distance(a: LexVec, b: LexVec) -> LexVec:
    """The metric d(a, b) = |a - b| = max(a - b, b - a)."""
    return abs(a - b)


def dominates(a: LexVec, b: LexVec) -> bool:
    """Whether every integer multiple of |a| stays below |b| (a strictly
    smaller archimedean class; zero is dominated by everything nonzero)."""
    a._check(b)
    if b.is_zero():
        raise ZeroComparand("domination against zero is undefined")
    pa = a.space.leading(a.value)
    if pa is None:
        return True
    pb = a.space.leading(b.value)
    for xa, xb in zip(pa, pb):
        if xa != xb:
            return xa > xb
    return False
