"""Exact scalar arithmetic.

Two scalar rings are used everywhere else in the library:

* :class:`fractions.Fraction` -- arbitrary-precision rationals, kept as
  gcd-reduced numerator/denominator with a positive denominator.

* :class:`ExpSum` -- finite formal sums ``sum_q c_q * e**q`` with rational
  coefficients ``c_q`` and rational exponents ``q``.  Distinct exponentials
  ``e**q`` are linearly independent over the rationals, so a nonempty
  normalized sum always represents a nonzero real number; equality of
  represented reals is therefore decidable by comparing normalized forms,
  and the sign of a nonzero sum can be determined by interval refinement
  that is guaranteed to terminate.  Internally a sum is stored the way
  FLINT's ``fmpq_poly`` stores a rational polynomial: int numerators over
  one common positive int denominator, in canonical form (the denominator
  and all the numerators have gcd 1, no numerator is 0, and the zero sum
  has denominator 1).  The numerators are keyed by each exponent's
  reduced ``(numerator, denominator)`` int pair with a positive
  denominator (e**0 is ``(0, 1)``).  So sums and products are int work
  plus one gcd per result, exponents add in int arithmetic, and keys hash
  in C.  The public views (:meth:`ExpSum.terms`, ``repr``) give exponents
  and coefficients back as Fractions.

Both kinds of value are immutable and hashable; an ExpSum equal to a
rational (a constant sum, or the zero sum) hashes like that rational.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import PrecisionExhausted, ResultTooLarge

#: Refinement budget for sign determination.  Far beyond any realistic
#: need; turns a hypothetical non-termination into a reported error.
DEFAULT_MAX_REFINEMENTS = 64

_max_refinements = DEFAULT_MAX_REFINEMENTS

_HALF = Fraction(1, 2)


def _fraction(n: int, d: int) -> Fraction:
    """The Fraction n / d, for ints n and d that are already in lowest
    terms with d > 0: gcd(n, d) == 1, and 0 only as 0 / 1.

    Nothing is checked: an unreduced result would compare unequal to,
    and hash apart from, the reduced Fraction of the same value.  The
    slots are set directly, as CPython 3.12's own
    ``Fraction._from_coprime_ints`` does, which skips ``Fraction.__new__``'s
    type dispatch and its second gcd.
    """
    f = object.__new__(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def set_default_max_refinements(n: int) -> None:
    """Override the global sign-test refinement bound (n >= 1)."""
    global _max_refinements
    if n < 1:
        raise ValueError("refinement bound must be at least 1")
    _max_refinements = int(n)


def get_default_max_refinements() -> int:
    return _max_refinements


class refinement_budget:
    """Context manager that sets the sign-test refinement bound to n for
    its block, and restores the bound it found on leaving, however the
    block ends; n None leaves the bound as it is.  An n below 1 raises
    ValueError here, before any block runs."""

    def __init__(self, n: int | None):
        if n is not None and n < 1:
            raise ValueError("refinement bound must be at least 1")
        self._n = n

    def __enter__(self):
        self._previous = _max_refinements
        if self._n is not None:
            set_default_max_refinements(self._n)

    def __exit__(self, *exc_info):
        set_default_max_refinements(self._previous)


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def rat_from_str(text) -> Fraction:
    """Parse 'p/q' or 'p' (also accepts ints) into a normalized Fraction.

    Strings must match ``[+-]?[0-9]+(/[0-9]+)?`` once surrounding
    whitespace is stripped; decimals, exponents and digit separators are
    rejected with :class:`ValueError`.  A str is tested for first, as the
    common case, and its value is built with one gcd."""
    if type(text) is not str:
        if isinstance(text, bool):
            raise ValueError(f"not a rational: {text!r}")
        if isinstance(text, int):
            return Fraction(text)
        if isinstance(text, Fraction):
            return text
        if not isinstance(text, str):
            raise ValueError(f"not a rational: {text!r}")
    match = _RATIONAL.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not a rational: {text!r}")
    num, den = match.groups()
    if den is None:
        return _fraction(int(num), 1)
    den = int(den)
    if not den:
        raise ValueError(f"zero denominator: {text!r}")
    num = int(num)
    g = gcd(num, den)
    return _fraction(num // g, den // g)


def rat_to_str(q: Fraction) -> str:
    """Canonical string form: 'p/q' with q > 0, or 'p' when q == 1.

    Raises :class:`ResultTooLarge` when p or q has more digits than the
    interpreter converts to text."""
    try:
        return str(q if isinstance(q, Fraction) else Fraction(q))
    except ValueError as exc:
        raise _too_large() from exc


def check_writable(k: int) -> None:
    """Raise :class:`ResultTooLarge`, as :func:`rat_to_str` would, when the
    int k has more digits than the interpreter converts to text, without
    converting it."""
    limit = sys.get_int_max_str_digits()
    if limit and abs(k) >= 10**limit:
        raise _too_large()


def _too_large() -> ResultTooLarge:
    return ResultTooLarge(
        f"an exact value has more than {sys.get_int_max_str_digits()} digits,"
        " too many to write as text"
    )


def _round_down(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(math.floor(x * scale), scale)


def _round_up(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(math.ceil(x * scale), scale)


#: Bound on the ``_exp_interval`` cache (one entry per exponent and depth).
EXP_INTERVAL_CACHE_SIZE = 1024


@lru_cache(maxsize=EXP_INTERVAL_CACHE_SIZE)
def _exp_interval(
    key: tuple[int, int], depth: int, bits: int
) -> tuple[Fraction, Fraction]:
    """Rational interval [lo, hi] containing e**q, for the exponent q
    keyed by its reduced ``(numerator, denominator)`` pair; both ends are
    multiples of 2**-bits.

    Argument reduction brings the exponent into [-1/2, 1/2]; a Taylor
    partial sum with an explicit tail bound gives an interval there, and
    repeated squaring (with outward rounding to ``bits`` fractional bits,
    which keeps denominators from exploding) recovers e**q.
    """
    q = Fraction(*key)
    k = 0
    x = q
    while abs(x) > _HALF:
        k += 1
        x = q / (1 << k)
    partial = Fraction(0)
    term = Fraction(1)
    for i in range(1, depth + 1):
        partial += term
        term = term * x / i
    # |x| <= 1/2 makes the tail a geometric series with ratio <= 1/2.
    tail = 2 * abs(term)
    lo, hi = partial - tail, partial + tail
    if lo < 0:
        lo = Fraction(0)
    lo, hi = _round_down(lo, bits), _round_up(hi, bits)
    for _ in range(k):
        lo, hi = _round_down(lo * lo, bits), _round_up(hi * hi, bits)
    return lo, hi


#: Key of the exponent 0, i.e. of the constant term e**0.
_ZERO_EXP = (0, 1)


def _exp_add(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Key of the sum of two exponents, each keyed by its reduced
    ``(numerator, denominator)`` pair with a positive denominator."""
    an, ad = a
    bn, bd = b
    if ad == bd:
        if ad == 1:
            return an + bn, 1
        num, den = an + bn, ad
    else:
        num, den = an * bd + bn * ad, ad * bd
    g = math.gcd(num, den)
    return num // g, den // g


class ExpSum:
    """Immutable finite sum of rational multiples of rational exponentials."""

    __slots__ = ("_den", "_num")

    def __init__(self, terms=()):
        data: dict[tuple[int, int], Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for q, c in items:
            q = Fraction(q)
            key = (q.numerator, q.denominator)
            c = Fraction(c) + data.get(key, 0)
            if c:
                data[key] = c
            else:
                data.pop(key, None)
        # over the lcm of reduced denominators the numerators share no
        # factor with it, so the form is canonical without a gcd
        den = lcm(*(c.denominator for c in data.values()))
        self._den = den
        self._num = {q: c.numerator * (den // c.denominator) for q, c in data.items()}

    @staticmethod
    def _trusted(den: int, num: dict[tuple[int, int], int]) -> "ExpSum":
        """Wrap numerators already in canonical form over ``den``: reduced
        exponent keys with positive denominators, nonzero int numerators,
        den > 0 sharing no factor with all of them (den 1 if none)."""
        res = object.__new__(ExpSum)
        res._den = den
        res._num = num
        return res

    @staticmethod
    def _reduced(den: int, num: dict[tuple[int, int], int], g: int) -> "ExpSum":
        """num / den in canonical form, given that every common factor of
        den and the numerators divides g."""
        if not num:
            return ExpSum._trusted(1, num)
        if g != 1:
            g = gcd(g, *num.values())
            if g != 1:
                den //= g
                num = {q: c // g for q, c in num.items()}
        return ExpSum._trusted(den, num)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "ExpSum":
        return cls._trusted(1, {})

    @classmethod
    def one(cls) -> "ExpSum":
        return cls._trusted(1, {_ZERO_EXP: 1})

    @classmethod
    def constant(cls, c) -> "ExpSum":
        """The rational constant c, i.e. c * e**0."""
        c = Fraction(c)
        return cls._trusted(c.denominator, {_ZERO_EXP: c.numerator} if c else {})

    @classmethod
    def exponential(cls, q, coeff=1) -> "ExpSum":
        """coeff * e**q."""
        q, c = Fraction(q), Fraction(coeff)
        return cls._trusted(
            c.denominator, {(q.numerator, q.denominator): c.numerator} if c else {}
        )

    def _shifted(self, key: tuple[int, int]) -> "ExpSum":
        """self * e**q for the exponent q keyed by ``key``: every exponent
        moves by q and the coefficients stay, so nothing is multiplied."""
        if not key[0]:
            return self
        return ExpSum._trusted(
            self._den, {_exp_add(q, key): c for q, c in self._num.items()}
        )

    # -- views -------------------------------------------------------------

    def terms(self) -> list[tuple[Fraction, Fraction]]:
        """(exponent, coefficient) pairs sorted by exponent."""
        den = self._den
        return sorted((Fraction(n, d), Fraction(c, den)) for (n, d), c in self._num.items())

    def term_count(self) -> int:
        """Number of terms, i.e. of distinct exponents with a nonzero
        coefficient."""
        return len(self._num)

    def is_zero(self) -> bool:
        return not self._num

    def is_monomial(self) -> bool:
        return len(self._num) == 1

    # -- ring structure ----------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, ExpSum):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return ExpSum.constant(other)
        return None

    def _combine(self, o: "ExpSum", sign: int) -> "ExpSum":
        """self + sign * o over the lcm of the two denominators."""
        da, db = self._den, o._den
        if da == db:
            g, fa, fb = da, 1, sign
        else:
            g = gcd(da, db)
            fa, fb = db // g, da // g * sign
        out = {q: c * fa for q, c in self._num.items()} if fa != 1 else dict(self._num)
        for q, c in o._num.items():
            c *= fb
            prev = out.get(q)
            if prev is None:
                out[q] = c
            else:
                c += prev
                if c:
                    out[q] = c
                else:
                    del out[q]
        # a prime of the lcm that divides only one denominator cannot
        # divide every numerator, so only factors of g can cancel
        return ExpSum._reduced(da * fa, out, g)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return ExpSum._trusted(self._den, {q: -c for q, c in self._num.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._combine(self, -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self._scaled(other.numerator, other.denominator)
        if not isinstance(other, ExpSum):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for q1, c1 in self._num.items():
            for q2, c2 in other._num.items():
                if not q1[0]:
                    q = q2
                elif not q2[0]:
                    q = q1
                else:
                    q = _exp_add(q1, q2)
                c = c1 * c2
                prev = out.get(q)
                if prev is None:
                    out[q] = c
                else:
                    c += prev
                    if c:
                        out[q] = c
                    else:
                        del out[q]
        den = self._den * other._den
        return ExpSum._reduced(den, out, den)

    __rmul__ = __mul__

    def _scaled(self, n: int, d: int) -> "ExpSum":
        """self * n / d for ints n and d > 0."""
        if not n:
            return ExpSum._trusted(1, {})
        den = self._den * d
        return ExpSum._reduced(den, {q: c * n for q, c in self._num.items()}, den)

    def __truediv__(self, other):
        """Division by a rational or by a single-term (monomial) sum.

        General quotients leave the ring and are rejected.
        """
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            if not other:
                raise ZeroDivisionError("division by zero")
            n, d = other.numerator, other.denominator
            return self._scaled(-d, -n) if n < 0 else self._scaled(d, n)
        if not isinstance(other, ExpSum):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero")
        if not other.is_monomial():
            raise ValueError("can only divide by a monomial c*e**q")
        (((n0, d0), c0),) = other._num.items()
        shifted = self._shifted((-n0, d0))
        return shifted._scaled(-other._den, -c0) if c0 < 0 else shifted._scaled(other._den, c0)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._den == o._den and self._num == o._num

    def __hash__(self):
        # Equal to the hash of the rational it equals, if it is one.
        num = self._num
        if not num:
            return hash(0)
        if num.keys() == {_ZERO_EXP}:
            return hash(Fraction(num[_ZERO_EXP], self._den))
        return hash((self._den, frozenset(num.items())))

    def __bool__(self):
        return bool(self._num)

    def sign(self) -> int:
        """Sign of the represented real: -1, 0 or +1.

        Zero is decided exactly (no terms).  A sum whose coefficients all
        share one sign is decided exactly as well, since every e**q is
        positive.  Mixed-sign sums are divided by the positive e**top of
        their largest exponent and then bracketed by rational intervals of
        doubling Taylor depth until the interval excludes zero.  Every
        bracketed exponent is then at most 0, so each bracket lies in
        [0, 1] at a fixed number of bits however large the exponents are.
        The positive common denominator does not change the sign, so the
        brackets weight the int numerators, and since each bracket end is
        a multiple of 2**-bits the sums are formed in ints over 2**bits.
        The depth doubles at most as often as the module's refinement
        bound allows (:class:`refinement_budget` sets it for a block);
        a sum still not separated from 0 then raises
        :class:`~affinetrees.errors.PrecisionExhausted`.
        """
        num = self._num
        if not num:
            return 0
        if all(c > 0 for c in num.values()):
            return 1
        if all(c < 0 for c in num.values()):
            return -1
        # tn/td: the largest exponent (every denominator is positive)
        keys = iter(num)
        tn, td = next(keys)
        for n, d in keys:
            if n * td > tn * d:
                tn, td = n, d
        shifted = [(_exp_add(q, (-tn, td)), c) for q, c in num.items()]
        depth = 8
        for step in range(_max_refinements):
            bits = 32 + depth
            scale = 1 << bits
            lo = hi = 0
            for q, c in shifted:
                l, h = _exp_interval(q, depth, bits)
                l = l.numerator * (scale // l.denominator)
                h = h.numerator * (scale // h.denominator)
                if c >= 0:
                    lo += c * l
                    hi += c * h
                else:
                    lo += c * h
                    hi += c * l
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            depth *= 2
        raise PrecisionExhausted(
            f"sign of {self!r} not separated from 0 after {_max_refinements} refinements"
        )

    def _cmp(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign()

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __repr__(self):
        if not self._num:
            return "ExpSum(0)"
        bits = []
        for q, c in self.terms():
            if q == 0:
                bits.append(f"{c}")
            else:
                bits.append(f"{c}*e^({q})")
        return "ExpSum(" + " + ".join(bits) + ")"


def scalar_sign(value) -> int:
    """Sign of a Fraction or ExpSum scalar."""
    if isinstance(value, ExpSum):
        return value.sign()
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return (value > 0) - (value < 0)
    raise TypeError(f"not a scalar: {value!r}")
