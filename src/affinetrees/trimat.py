"""Dense square matrices over an exact scalar ring.

Entries are either Fractions or :class:`~affinetrees.scalars.ExpSum`
values (ints are coerced to Fractions at construction).  Matrices are
immutable; all arithmetic is exact.  The exponential and logarithm are
the finite sums valid for strictly-upper / unitriangular matrices: both
stop at the first zero power of the nilpotent part (the n-th at latest).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import factorial

from .errors import (
    DimensionMismatch,
    NotStrictUpper,
    NotUnitriangular,
    NotUpperTriangular,
)
from .scalars import ExpSum, scalar_sign


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

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(_coerce_entry(v) for v in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise DimensionMismatch("matrix must be square and non-empty")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

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
        if any(isinstance(v, ExpSum) for row in self.rows for v in row):
            return ExpSum.one()
        return Fraction(1)

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
        """Inverse of an upper-triangular matrix, row by row from the bottom:
        row i is (e_i - sum_k a_ik * row k) / a_ii over the rows k > i
        already inverted, skipping zeros; a unit diagonal entry divides
        nothing.

        Diagonal entries must be invertible in the entry ring (always the
        case for Fractions; for ExpSum entries they must be monomials).
        """
        if not self.is_upper_triangular():
            raise NotUpperTriangular("inverse implemented for upper triangular only")
        n, one = self.n, self.ring_one()
        zero = one - one
        out = [None] * n
        nonzero = [None] * n  # nonzero[k]: the (j, value) pairs of row k != 0
        for i in range(n - 1, -1, -1):
            row = self.rows[i]
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


def _series(mat: TriMat, diag: bool, coeff) -> TriMat:
    """diag * I + sum_k coeff(k) * B**k, B the strict upper part of mat, formed row
    by row up to the first zero power; sums start at the ring zero of mat."""
    n, one = mat.n, mat.ring_one()
    zero = one - one
    out = [[one if diag and i == j else zero for j in range(n)] for i in range(n)]
    strict = [{j: r[j] for j in range(i + 1, n) if r[j]} for i, r in enumerate(mat.rows)]
    power, k = strict, 1
    while any(power):
        c, nxt = coeff(k), []
        for orow, prow in zip(out, power):
            acc = {}
            for m, p in prow.items():
                orow[m] = orow[m] + p * c
                for j, b in strict[m].items():
                    acc[j] = acc[j] + p * b if j in acc else p * b
            nxt.append({j: v for j, v in acc.items() if v})
        power, k = nxt, k + 1
    return TriMat(out)


def nilpotent_exp(mat: TriMat) -> TriMat:
    """exp(N) = sum_k N**k / k! up to the first N**k = 0."""
    if not mat.is_strict_upper():
        raise NotStrictUpper("exponential defined for strictly upper matrices")
    return _series(mat, True, lambda k: Fraction(1, factorial(k)))


def unipotent_log(mat: TriMat) -> TriMat:
    """log(I + B) = sum_k (-1)**(k+1) B**k / k up to the first B**k = 0."""
    if not mat.is_unitriangular():
        raise NotUnitriangular("logarithm defined for unitriangular matrices")
    return _series(mat, False, lambda k: Fraction((-1) ** (k + 1), k))
