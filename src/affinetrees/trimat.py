"""Dense square matrices over an exact scalar ring.

Entries are either Fractions or :class:`~affinetrees.scalars.ExpSum`
values (ints are coerced to Fractions at construction); each matrix
records at construction whether any entry is an ExpSum, which fixes its
ring.  Matrices are immutable; all arithmetic is exact.  The exponential
and logarithm are the finite sums valid for strictly-upper /
unitriangular matrices: both stop at the first zero power of the
nilpotent part (the n-th at latest).

Over the rationals the series runs in integer arithmetic over one common
denominator: with D the lcm of the denominators of the strict part N,
the powers of the integer matrix M = D * N are formed with int products
only, and each entry of the sum is divided out once at the end.  The
inverse of a rational unitriangular matrix is the series
(I + N)**-1 = sum_k (-N)**k, formed the same way.  D can be far larger
than any single entry's denominator (pairwise coprime denominators
multiply), and the integers then grow faster than the Fraction
arithmetic they replace.  So the integer path runs only while D has at
most :data:`MAX_COMMON_DENOMINATOR_BITS` bits; otherwise the series sums
Fractions and the inverse back-substitutes, as for ExpSum entries.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import chain
from math import factorial, lcm

from .errors import (
    DimensionMismatch,
    NotInvertible,
    NotStrictUpper,
    NotUnitriangular,
    NotUpperTriangular,
)
from .scalars import ExpSum, scalar_sign

#: Largest common denominator, in bits, for which a rational series (and
#: a rational unitriangular inverse) runs in integer arithmetic; set below
#: the measured crossover given in :func:`_series`.
MAX_COMMON_DENOMINATOR_BITS = 512

_RING_TYPES = frozenset((Fraction, ExpSum))


def _coerce_entry(v):
    # ExpSum first: for anything else an isinstance test against Fraction
    # goes through ABCMeta, which is slow.
    if isinstance(v, (ExpSum, Fraction)):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    raise TypeError(f"unsupported matrix entry: {v!r}")


class TriMat:
    """Immutable n x n matrix; n >= 1."""

    __slots__ = ("n", "rows", "expsum")

    def __init__(self, rows):
        rows = tuple(map(tuple, rows))
        kinds = set(map(type, chain.from_iterable(rows)))
        if kinds <= _RING_TYPES:
            expsum = ExpSum in kinds
        else:
            rows = tuple(tuple(map(_coerce_entry, row)) for row in rows)
            expsum = any(isinstance(v, ExpSum) for row in rows for v in row)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise DimensionMismatch("matrix must be square and non-empty")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        # whether any entry is an ExpSum: the ring of the matrix
        object.__setattr__(self, "expsum", expsum)

    @classmethod
    def zeros(cls, n, zero=Fraction(0)):
        return cls([[zero] * n for _ in range(n)])

    @classmethod
    def identity(cls, n, one=Fraction(1)):
        zero = one - one
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries):
        entries = [_coerce_entry(v) for v in entries]
        zero = entries[0] - entries[0]
        n = len(entries)
        return cls(
            [[entries[i] if i == j else zero for j in range(n)] for i in range(n)]
        )

    # -- ring helpers ------------------------------------------------------

    def ring_one(self):
        """Multiplicative unit of the entry ring."""
        return ExpSum.one() if self.expsum else Fraction(1)

    def ring_zero(self):
        one = self.ring_one()
        return one - one

    def to_expsum(self) -> "TriMat":
        """Same matrix with every entry coerced into the ExpSum ring."""
        return TriMat(
            [
                [v if isinstance(v, ExpSum) else ExpSum.constant(v) for v in row]
                for row in self.rows
            ]
        )

    # -- arithmetic ----------------------------------------------------------

    def _entrywise(self, other, op):
        if not isinstance(other, TriMat):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} vs {other.n}")
        return TriMat([list(map(op, ra, rb)) for ra, rb in zip(self.rows, other.rows)])

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def scale(self, c):
        return TriMat([[v * c for v in row] for row in self.rows])

    def __mul__(self, other):
        if not isinstance(other, TriMat):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} vs {other.n}")
        n = self.n
        zero = self.ring_zero() + other.ring_zero()
        brows = other.rows
        out = []
        for i in range(n):
            arow = self.rows[i]
            orow = [zero] * n
            for k in range(n):
                a = arow[k]
                if not a:
                    continue
                brow = brows[k]
                for j in range(n):
                    b = brow[j]
                    if b:
                        orow[j] = orow[j] + a * b
            out.append(orow)
        return TriMat(out)

    def __eq__(self, other):
        if not isinstance(other, TriMat):
            return NotImplemented
        return self.n == other.n and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(
            " ".join(str(v) for v in row) for row in self.rows
        )
        return f"TriMat[{body}]"

    # -- shape predicates (checked on demand, not stored) --------------------

    def is_upper_triangular(self) -> bool:
        return all(
            not self.rows[i][j] for i in range(self.n) for j in range(i)
        )

    def is_strict_upper(self) -> bool:
        return all(
            not self.rows[i][j] for i in range(self.n) for j in range(i + 1)
        )

    def is_unitriangular(self) -> bool:
        return self.is_upper_triangular() and all(
            self.rows[i][i] == 1 for i in range(self.n)
        )

    def has_positive_diagonal(self) -> bool:
        return all(scalar_sign(self.rows[i][i]) > 0 for i in range(self.n))

    # -- inversion -----------------------------------------------------------

    def inverse(self) -> "TriMat":
        """Inverse of an upper-triangular matrix.

        A rational unitriangular matrix whose strict part has a common
        denominator of at most :data:`MAX_COMMON_DENOMINATOR_BITS` bits is
        inverted as the series sum_k (-N)**k in integer arithmetic (see
        :func:`_series`).  Any other matrix is inverted row by row from the
        bottom: row i is (e_i - sum_k a_ik * row k) / a_ii over the rows
        k > i already inverted, skipping zeros; a unit diagonal entry
        divides nothing.

        Diagonal entries must be invertible in the entry ring: nonzero,
        and for ExpSum entries monomials.  Otherwise :class:`NotInvertible`
        is raised.
        """
        if not self.is_upper_triangular():
            raise NotUpperTriangular("inverse implemented for upper triangular only")
        n, rows = self.n, self.rows
        for i in range(n):
            d = rows[i][i]
            if not (d.is_monomial() if isinstance(d, ExpSum) else d):
                raise NotInvertible(f"diagonal entry {d!r} has no inverse in the entry ring")
        if not self.expsum and all(rows[i][i] == 1 for i in range(n)):
            strict, denominator = _strict_part(self)
            if denominator is not None:
                return _series(self, True, lambda k: (-1) ** k, strict, denominator)
        one = self.ring_one()
        zero = one - one
        out = [None] * n
        nonzero = [None] * n  # nonzero[k]: the (j, value) pairs of row k != 0
        for i in range(n - 1, -1, -1):
            row = rows[i]
            acc = {}
            for k in range(i + 1, n):
                a = row[k]
                if a:
                    for j, b in nonzero[k]:
                        acc[j] = acc[j] + a * b if j in acc else a * b
            d = row[i]
            unit = d == 1
            orow = [zero] * n
            orow[i] = one if unit else one / d
            for j, v in acc.items():
                orow[j] = -v if unit else -v / d
            out[i] = orow
            nonzero[i] = [(j, v) for j, v in enumerate(orow) if v]
        return TriMat(out)


def _strict_part(mat: TriMat):
    """(rows, D): the strict upper part of mat as sparse rows {j: entry}.

    For a rational mat whose strict part has a common denominator D of at
    most MAX_COMMON_DENOMINATOR_BITS bits, the rows hold the integers
    D * entry; otherwise D is None and the rows hold the entries."""
    n = mat.n
    rows = [{j: r[j] for j in range(i + 1, n) if r[j]} for i, r in enumerate(mat.rows)]
    if mat.expsum:
        return rows, None
    d = 1
    for q in {v.denominator for row in rows for v in row.values()}:
        d = lcm(d, q)
        # stop early: the lcm of many large denominators is costly
        if d.bit_length() > MAX_COMMON_DENOMINATOR_BITS:
            return rows, None
    return [{j: v.numerator * (d // v.denominator) for j, v in row.items()} for row in rows], d


def _series(mat: TriMat, diag: bool, coeff, strict, d) -> TriMat:
    """diag * I + sum_k coeff(k) * B**k, B the strict upper part of mat.

    ``strict, d`` is :func:`_strict_part` of mat.  The powers are formed
    row by row over sparse rows, up to the last nonzero power K.  With
    d None they are powers of B in its own ring, and each entry sums
    coeff(k) * B**k[i][j] from the ring zero of mat.  Otherwise they are
    powers of the integer matrix M = d * B, and each entry is built once,
    as Fraction(sum_k w_k * M**k[i][j], L * d**K), with L the lcm of the
    coefficients' denominators and the integer weights
    w_k = coeff(k) * L * d**(K - k).

    The integers then have about K times as many bits as d, so the
    integer path is only faster while d is small.  Measured on a 2-core
    2.0 GHz Xeon VM, embedding an n = 8 matrix whose 28 entries have
    distinct prime denominators and inverting the 29 x 29 image
    took 0.015 s by Fractions against 0.006 s in integers at d of 262
    bits, 0.027 s against 0.014 s at 621 bits, 0.025 s against 0.026 s at
    914 bits and 0.085 s against 0.58 s at 5558 bits.  The crossover lay
    near 900 bits at n = 8 and n = 3 and near 1100 bits at n = 5, so
    MAX_COMMON_DENOMINATOR_BITS = 512 keeps the integer path where it is
    faster at every size measured.
    """
    n = mat.n
    powers, power = [], strict
    while any(power):
        powers.append(power)
        nxt = []
        for prow in power:
            acc = {}
            for m, p in prow.items():
                for j, b in strict[m].items():
                    acc[j] = acc[j] + p * b if j in acc else p * b
            nxt.append({j: v for j, v in acc.items() if v})
        power = nxt
    coeffs = [coeff(k) for k in range(1, len(powers) + 1)]
    if d is None:
        one = mat.ring_one()
        zero, weights = one - one, coeffs
    else:
        last = len(coeffs)
        lcd = lcm(*(c.denominator for c in coeffs))
        den = lcd * d**last
        one, zero = Fraction(1), 0
        weights = [
            c.numerator * (lcd // c.denominator) * d ** (last - k)
            for k, c in enumerate(coeffs, 1)
        ]
    out = [[zero] * n for _ in range(n)]
    for w, power in zip(weights, powers):
        for orow, prow in zip(out, power):
            for m, p in prow.items():
                orow[m] = orow[m] + p * w
    if d is not None:
        zero = Fraction(0)
        out = [[Fraction(s, den) if s else zero for s in row] for row in out]
    if diag:
        for i, row in enumerate(out):
            row[i] = one
    return TriMat(out)


def nilpotent_exp(mat: TriMat) -> TriMat:
    """exp(N) = sum_k N**k / k! up to the first N**k = 0."""
    if not mat.is_strict_upper():
        raise NotStrictUpper("exponential defined for strictly upper matrices")
    return _series(mat, True, lambda k: Fraction(1, factorial(k)), *_strict_part(mat))


def unipotent_log(mat: TriMat) -> TriMat:
    """log(I + B) = sum_k (-1)**(k+1) B**k / k up to the first B**k = 0."""
    if not mat.is_unitriangular():
        raise NotUnitriangular("logarithm defined for unitriangular matrices")
    return _series(mat, False, lambda k: Fraction((-1) ** (k + 1), k), *_strict_part(mat))
