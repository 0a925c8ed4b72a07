"""Exact scalar arithmetic.

Two scalar rings are used everywhere else in the library:

* :class:`fractions.Fraction` -- arbitrary-precision rationals, kept as
  gcd-reduced numerator/denominator with a positive denominator.

* :class:`ExpSum` -- finite formal sums ``sum_q c_q * e**q`` with rational
  coefficients ``c_q`` and rational exponents ``q``.  Distinct exponentials
  ``e**q`` are linearly independent over the rationals, so a nonempty
  normalized sum always represents a nonzero real number; equality of
  represented reals is therefore decidable by comparing normalized term
  maps, and the sign of a nonzero sum can be determined by interval
  refinement that is guaranteed to terminate.

Both kinds of value are immutable and hashable.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import lru_cache

from .errors import PrecisionExhausted, ResultTooLarge

#: Refinement budget for sign determination.  Far beyond any realistic
#: need; turns a hypothetical non-termination into a reported error.
DEFAULT_MAX_REFINEMENTS = 64

_max_refinements = DEFAULT_MAX_REFINEMENTS

_HALF = Fraction(1, 2)


def set_default_max_refinements(n: int) -> None:
    """Override the global sign-test refinement bound (n >= 1)."""
    global _max_refinements
    if n < 1:
        raise ValueError("refinement bound must be at least 1")
    _max_refinements = int(n)


def get_default_max_refinements() -> int:
    return _max_refinements


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def rat_from_str(text) -> Fraction:
    """Parse 'p/q' or 'p' (also accepts ints) into a normalized Fraction.

    Strings must match ``[+-]?[0-9]+(/[0-9]+)?`` once surrounding
    whitespace is stripped; decimals, exponents and digit separators are
    rejected with :class:`ValueError`."""
    if isinstance(text, bool):
        raise ValueError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if isinstance(text, str):
        match = _RATIONAL.fullmatch(text.strip())
        if match is None:
            raise ValueError(f"not a rational: {text!r}")
        num, den = match.groups()
        if den is None:
            return Fraction(int(num))
        den = int(den)
        if not den:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), den)
    raise ValueError(f"not a rational: {text!r}")


def rat_to_str(q: Fraction) -> str:
    """Canonical string form: 'p/q' with q > 0, or 'p' when q == 1.

    Raises :class:`ResultTooLarge` when p or q has more digits than the
    interpreter converts to text."""
    try:
        return str(Fraction(q))
    except ValueError as exc:
        raise ResultTooLarge(
            f"an exact value has more than {sys.get_int_max_str_digits()} digits,"
            " too many to write as text"
        ) from exc


def _round_down(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(math.floor(x * scale), scale)


def _round_up(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(math.ceil(x * scale), scale)


#: Bound on the ``_exp_interval`` cache (one entry per exponent and depth).
EXP_INTERVAL_CACHE_SIZE = 1024


@lru_cache(maxsize=EXP_INTERVAL_CACHE_SIZE)
def _exp_interval(q: Fraction, depth: int, bits: int) -> tuple[Fraction, Fraction]:
    """Rational interval [lo, hi] containing e**q.

    Argument reduction brings the exponent into [-1/2, 1/2]; a Taylor
    partial sum with an explicit tail bound gives an interval there, and
    repeated squaring (with outward rounding to ``bits`` fractional bits,
    which keeps denominators from exploding) recovers e**q.
    """
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


class ExpSum:
    """Immutable finite sum of rational multiples of rational exponentials."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        data: dict[Fraction, Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for q, c in items:
            q = Fraction(q)
            c = Fraction(c)
            c += data.get(q, 0)
            if c:
                data[q] = c
            else:
                data.pop(q, None)
        object.__setattr__(self, "_terms", data)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "ExpSum":
        return cls()

    @classmethod
    def one(cls) -> "ExpSum":
        return cls([(0, 1)])

    @classmethod
    def constant(cls, c) -> "ExpSum":
        """The rational constant c, i.e. c * e**0."""
        return cls([(0, Fraction(c))])

    @classmethod
    def exponential(cls, q, coeff=1) -> "ExpSum":
        """coeff * e**q."""
        return cls([(Fraction(q), Fraction(coeff))])

    # -- views -------------------------------------------------------------

    def terms(self) -> list[tuple[Fraction, Fraction]]:
        """(exponent, coefficient) pairs sorted by exponent."""
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    # -- ring structure ----------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, ExpSum):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return ExpSum.constant(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for q, c in o._terms.items():
            s = out.get(q, 0) + c
            if s:
                out[q] = s
            else:
                out.pop(q, None)
        res = ExpSum.__new__(ExpSum)
        object.__setattr__(res, "_terms", out)
        return res

    __radd__ = __add__

    def __neg__(self):
        res = ExpSum.__new__(ExpSum)
        object.__setattr__(res, "_terms", {q: -c for q, c in self._terms.items()})
        return res

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            if not other:
                return ExpSum()
            res = ExpSum.__new__(ExpSum)
            object.__setattr__(
                res, "_terms", {q: c * other for q, c in self._terms.items()}
            )
            return res
        if not isinstance(other, ExpSum):
            return NotImplemented
        out: dict[Fraction, Fraction] = {}
        for q1, c1 in self._terms.items():
            for q2, c2 in other._terms.items():
                q = q1 + q2
                s = out.get(q, 0) + c1 * c2
                if s:
                    out[q] = s
                else:
                    out.pop(q, None)
        res = ExpSum.__new__(ExpSum)
        object.__setattr__(res, "_terms", out)
        return res

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a rational or by a single-term (monomial) sum.

        General quotients leave the ring and are rejected.
        """
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            if not other:
                raise ZeroDivisionError("division by zero")
            return ExpSum([(q, c / other) for q, c in self._terms.items()])
        if not isinstance(other, ExpSum):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero")
        if not other.is_monomial():
            raise ValueError("can only divide by a monomial c*e**q")
        ((q0, c0),) = other._terms.items()
        return ExpSum([(q - q0, c / c0) for q, c in self._terms.items()])

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def sign(self, max_refinements: int | None = None) -> int:
        """Sign of the represented real: -1, 0 or +1.

        Zero is decided exactly (empty term map).  A sum whose coefficients
        all share one sign is decided exactly as well, since every e**q is
        positive.  Mixed-sign sums are bracketed by rational intervals of
        doubling Taylor depth until the interval excludes zero.
        """
        if not self._terms:
            return 0
        coeffs = list(self._terms.values())
        if all(c > 0 for c in coeffs):
            return 1
        if all(c < 0 for c in coeffs):
            return -1
        budget = max_refinements if max_refinements is not None else _max_refinements
        depth = 8
        for step in range(budget):
            bits = 32 + depth
            lo = hi = Fraction(0)
            for q, c in self._terms.items():
                l, h = _exp_interval(q, depth, bits)
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
            f"sign of {self!r} not separated from 0 after {budget} refinements"
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
        if not self._terms:
            return "ExpSum(0)"
        bits = []
        for q, c in self.terms():
            if q == 0:
                bits.append(f"{c}")
            else:
                bits.append(f"{c}*e^({q})")
        return "ExpSum(" + " + ".join(bits) + ")"


def scalar_sign(value, max_refinements: int | None = None) -> int:
    """Sign of a Fraction or ExpSum scalar."""
    if isinstance(value, ExpSum):
        return value.sign(max_refinements)
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return (value > 0) - (value < 0)
    raise TypeError(f"not a scalar: {value!r}")
