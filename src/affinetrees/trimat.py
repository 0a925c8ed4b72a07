"""Dense square matrices over an exact scalar ring.

Entries are either Fractions or :class:`~affinetrees.scalars.ExpSum`
values (ints are coerced to Fractions at construction); each matrix
records at construction whether any entry is an ExpSum, which fixes its
ring.  Matrices are immutable; all arithmetic is exact.  Two matrices
are equal when their row tuples are, and hash as them.  The shape
predicates -- :meth:`~TriMat.is_upper_triangular`,
:meth:`~TriMat.is_strict_upper`, :meth:`~TriMat.is_unitriangular`,
:meth:`~TriMat.is_identity` and :meth:`~TriMat.has_positive_diagonal`
-- are tested on demand, not stored.  The exponential
and logarithm are the finite sums valid for strictly-upper /
unitriangular matrices: both stop at the first zero power of the
nilpotent part (the n-th at latest).

This module owns the integer encoding.  :func:`_encode` writes sparse
rows {j: nonzero entry} over the common denominator D of the entries'
rational coefficients: as ints, or, over ExpSum entries, as sparse
Laurent polynomials {x: c} in e**(1/L) with int keys and coefficients, L
the lcm of the exponents' denominators (ints again when every exponent
is 0).  Each matrix stores the encoding of its columns, the rows of
D * M**T, in one slot filled on first use, which ``==``, ``hash`` and
``repr`` do not read.  All products run on one kernel, :func:`_product`,
and every output row is written out by one decoder, :func:`_decoded`,
which builds each entry once, with one gcd; it also decodes products
of :func:`_over_lcms` entries, the closed-form embedding's integer
kernel in either ring.  A product of two rational matrices is one int
product of their stored columns, and stores its own
(:func:`_from_columns`); other products sum the entries in their own
ring.  The series take int powers of M = D * N, N the strict part, and
divide each entry of the sum out once.  Every inverse is a series too:
an upper-triangular A is T(I + N) with T its diagonal, so
A**-1 = (sum_k (-N)**k) * T**-1, and each diagonal entry other than 1 is
divided once.  The series encode the strict part afresh, so the stored
columns have two readers only: the product, and
:meth:`TriMat.affine_apply`, which multiplies an encoded point by them.
D can be far larger than any single entry's denominator (pairwise
coprime denominators multiply), and the integers then grow faster than
the Fraction arithmetic they replace.  So the integer path runs only
while D has at most :data:`MAX_COMMON_DENOMINATOR_BITS` bits; otherwise
the same kernel runs in ring mode.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import chain
from math import factorial, gcd, lcm

from .errors import (
    DimensionMismatch,
    NotInvertible,
    NotStrictUpper,
    NotUnitriangular,
    NotUpperTriangular,
)
from .scalars import _ZERO_EXP, ExpSum, _fraction, scalar_sign

#: Largest common denominator, in bits, for which a series (exp, log or
#: an inverse) runs in integer arithmetic, over either ring; set below
#: the measured crossover given in :func:`_series`.
MAX_COMMON_DENOMINATOR_BITS = 512

_RING_TYPES = frozenset((Fraction, ExpSum))

_FZERO = Fraction(0)


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

    __slots__ = ("n", "rows", "expsum", "_enc")

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
        # _encode of the columns, filled by _encoding: a cache, not part of the value
        self._enc = None

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
        if not entries:
            raise DimensionMismatch("matrix must be square and non-empty")
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
        zero = ExpSum.zero()
        return TriMat(
            [
                [
                    v if type(v) is ExpSum
                    else ExpSum._trusted(v.denominator, {_ZERO_EXP: v.numerator}) if v
                    else zero
                    for v in row
                ]
                for row in self.rows
            ]
        )

    def _encoding(self):
        """:func:`_encode` of the sparse columns, stored on first use;
        :meth:`affine_apply` rebinds it when its L grows."""
        if self._enc is None:
            self._enc = _encode(_columns(self), self.expsum)
        return self._enc

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
        expsum = self.expsum or other.expsum
        if not expsum:
            (ca, da, _), (cb, db, _) = self._encoding(), other._encoding()
            if da and db:
                # (AB)**T = B**T A**T
                return _from_columns(_product(cb, ca, None), da * db)
        return TriMat(
            [
                _decoded(row, self.n, None, None, expsum)
                for row in _product(_sparse(self.rows), _sparse(other.rows), None)
            ]
        )

    def __eq__(self, other):
        if not isinstance(other, TriMat):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(
            " ".join(str(v) for v in row) for row in self.rows
        )
        return f"TriMat[{body}]"

    # -- shape predicates (checked on demand, not stored) --------------------

    def is_upper_triangular(self) -> bool:
        return not any(any(row[:i]) for i, row in enumerate(self.rows))

    def is_strict_upper(self) -> bool:
        return not any(any(row[: i + 1]) for i, row in enumerate(self.rows))

    def is_unitriangular(self) -> bool:
        return self.is_upper_triangular() and all(
            self.rows[i][i] == 1 for i in range(self.n)
        )

    def is_identity(self) -> bool:
        return all(
            row[i] == 1 and not any(row[:i]) and not any(row[i + 1 :])
            for i, row in enumerate(self.rows)
        )

    def has_positive_diagonal(self) -> bool:
        return all(scalar_sign(self.rows[i][i]) > 0 for i in range(self.n))

    # -- inversion -----------------------------------------------------------

    def inverse(self) -> "TriMat":
        """Inverse of an upper-triangular matrix, by one series.

        Written as A = T(I + N), with T its diagonal, A**-1 is
        (sum_k (-N)**k) * T**-1.  Each diagonal entry d_i other than 1 is
        divided into the ring unit once; row i of the strict part, scaled
        by 1 / d_i, is row i of N; the series runs by :func:`_series`, in
        integer arithmetic while the common denominator of N has at most
        :data:`MAX_COMMON_DENOMINATOR_BITS` bits and in ring mode past
        it; and column j of the sum is scaled by 1 / d_j.  A unit
        diagonal divides and scales nothing.

        Diagonal entries must be invertible in the entry ring: nonzero,
        and for ExpSum entries monomials.  Otherwise :class:`NotInvertible`
        is raised.
        """
        if not self.is_upper_triangular():
            raise NotUpperTriangular("inverse implemented for upper triangular only")
        n, rows = self.n, self.rows
        diagonal = [rows[i][i] for i in range(n)]
        for d in diagonal:
            if not (d.is_monomial() if isinstance(d, ExpSum) else d):
                raise NotInvertible(f"diagonal entry {d!r} has no inverse in the entry ring")
        if all(d == 1 for d in diagonal):
            return _series(self, True, lambda k: (-1) ** k, *_strict_part(self))
        one = self.ring_one()
        inv = [one if d == 1 else one / d for d in diagonal]
        strict = [
            {j: r[j] * inv[i] for j in range(i + 1, n) if r[j]} for i, r in enumerate(rows)
        ]
        unit = _series(self, True, lambda k: (-1) ** k, *_encode(strict, self.expsum))
        return TriMat(
            [[v * inv[j] if v else v for j, v in enumerate(row)] for row in unit.rows]
        )

    # -- affine action -------------------------------------------------------

    def affine_apply(self, xs, translate: bool) -> list:
        """A xs + t when ``translate``, else A xs, for the affine matrix
        M = [[A, t], [0, 1]] and n - 1 entries xs of its ring.

        xs, encoded as one row over its own D_x, multiplies the stored
        columns: one 1-row :func:`_product`, whose corner coordinate is
        dropped, decoded over D * D_x.  It runs over Laurent polynomials
        in e**(1/L) when either side has an exponent other than 0, L the
        lcm of both exponent denominators.  A new L rescales the columns,
        stored with it in one assignment, so L only grows and the points
        of one orbit rescale nothing after the first.  Past the cutoff
        the unencoded columns multiply xs in ring mode."""
        expsum = self.expsum
        n = len(xs)
        cols, da, ela = self._encoding()
        xrow, dx = {j: x for j, x in enumerate(xs) if x}, None
        if da is not None:
            (xrow,), dx, elx = _encode([xrow], expsum)
        if dx is None:
            if da is not None:
                cols = _columns(self)
            den = el = None
            unit = self.ring_one()
        else:
            den, el, unit = da * dx, None, dx
            if ela is not None or elx is not None:
                el = lcm(ela or 1, elx or 1)
                xrow, unit = _rescaled(xrow, el // elx if elx else 0), {0: dx}
                if el != ela:
                    cols = [_rescaled(col, el // ela if ela else 0) for col in cols]
                    self._enc = (cols, da, el)
        if translate:
            xrow[n] = unit
        row = _product([xrow], cols, el)[0]
        row.pop(n, None)  # the corner coordinate
        return _decoded(row, n, den, el, expsum)


def _common_denominator(denominators):
    """lcm of the denominators, or None once it has more than
    MAX_COMMON_DENOMINATOR_BITS bits."""
    d = 1
    for q in set(denominators):
        d = lcm(d, q)
        # stop early: the lcm of many large denominators is costly
        if d.bit_length() > MAX_COMMON_DENOMINATOR_BITS:
            return None
    return d


def _encode(rows, expsum: bool):
    """(rows, d, el): sparse rows {j: nonzero entry} over one common
    denominator, for integer arithmetic.

    d is the common denominator D of the rational coefficients of the
    entries, the lcm of the entries' own denominators, or None when D has
    more than MAX_COMMON_DENOMINATOR_BITS bits; the rows are then
    returned as given.  Otherwise they hold D * entry: ints when every
    exponent is 0 (el is None), and else, with el the lcm of the
    exponents' denominators, Laurent polynomials {x: c} with int keys and
    coefficients, standing for sum_x c * e**(x / el).  ``expsum`` says
    whether any entry may be an ExpSum; a Fraction among ExpSum entries
    is a constant term.  An ExpSum entry already holds int numerators
    over its own denominator, so each is only multiplied by D over it."""
    if not expsum:
        d = _common_denominator(v.denominator for row in rows for v in row.values())
        if d is None:
            return rows, None, None
        return [{j: v.numerator * (d // v.denominator) for j, v in row.items()} for row in rows], d, None
    parts = [
        {
            j: (v._den, v._num) if type(v) is ExpSum else (v.denominator, {_ZERO_EXP: v.numerator})
            for j, v in row.items()
        }
        for row in rows
    ]
    d = _common_denominator(den for row in parts for den, _ in row.values())
    if d is None:
        return rows, None, None
    keys = {q for row in parts for _, t in row.values() for q in t}
    if keys <= {_ZERO_EXP}:
        return [
            {j: t[_ZERO_EXP] * (d // den) for j, (den, t) in row.items()} for row in parts
        ], d, None
    el = lcm(*(q for _, q in keys))
    return [
        {
            j: {p * (el // q): c * (d // den) for (p, q), c in t.items()}
            for j, (den, t) in row.items()
        }
        for row in parts
    ], d, el


def _strict_part(mat: TriMat):
    """:func:`_encode` of the strict upper part of mat."""
    n = mat.n
    rows = [{j: r[j] for j in range(i + 1, n) if r[j]} for i, r in enumerate(mat.rows)]
    return _encode(rows, mat.expsum)


def _sparse(rows) -> list:
    """Sparse rows {j: entry} of the nonzero entries of rows of matrix
    entries.  Each entry is tested on its numerator slot, not by
    ``__bool__``, which is a Python call per entry: about a third of the
    time of a dense scan."""
    return [
        {j: v for j, v in enumerate(row) if (v._num if type(v) is ExpSum else v._numerator)}
        for row in rows
    ]


def _columns(mat: TriMat) -> list:
    """Sparse columns {i: nonzero entry} of mat."""
    return _sparse(zip(*mat.rows))


def _from_columns(cols, den: int) -> TriMat:
    """The rational matrix whose columns are the sparse int rows ``cols``
    over ``den``.  Columns and den are first divided by their common gcd,
    which leaves exactly the :func:`_encode` of the matrix's columns; it
    is stored as the matrix's encoding while den is within the cutoff."""
    g = gcd(den, *(v for col in cols for v in col.values()))
    if g > 1:
        den //= g
        cols = [{i: v // g for i, v in col.items()} for col in cols]
    n = len(cols)
    mat = TriMat(zip(*(_decoded(col, n, den, None, False) for col in cols)))
    if den.bit_length() <= MAX_COMMON_DENOMINATOR_BITS:
        mat._enc = (cols, den, None)
    return mat


def _rescaled(row: dict, f: int) -> dict:
    """A sparse row of Laurent polynomials in e**(1/el) (or of ints, the
    constant polynomials) written in e**(1/(f * el))."""
    if f == 0:
        return {j: {0: c} for j, c in row.items()}
    if f == 1:
        return row
    return {j: {x * f: c for x, c in t.items()} for j, t in row.items()}


def _product(a, b, el) -> list:
    """a * b over sparse rows, zero entries dropped.

    With el None the entries are ints, or, in ring mode, Fractions and
    ExpSums summed in their own ring; otherwise they are Laurent
    polynomials {x: c} with int keys and coefficients, whose zero terms
    are dropped too."""
    out = []
    for arow in a:
        acc = {}
        if el is None:
            for m, p in arow.items():
                for j, v in b[m].items():
                    acc[j] = acc[j] + p * v if j in acc else p * v
            out.append({j: v for j, v in acc.items() if v})
        else:
            for m, p in arow.items():
                for j, v in b[m].items():
                    t = acc.get(j)
                    if t is None:
                        t = acc[j] = {}
                    for x1, c1 in p.items():
                        for x2, c2 in v.items():
                            x = x1 + x2
                            t[x] = t[x] + c1 * c2 if x in t else c1 * c2
            out.append(
                {j: f for j, t in acc.items() if (f := {x: c for x, c in t.items() if c})}
            )
    return out


def _over_lcms(vectors, expsum: bool):
    """(lcms, nums): for each vector of entries, the lcm r of their
    denominators and r times each entry, without a gcd: an int for a
    Fraction or a constant ExpSum, else an ExpSum over denominator 1,
    whose products and sums take no gcd either.  ``expsum`` says whether
    any entry may be an ExpSum."""
    lcms, nums = [], []
    for vec in vectors:
        if not expsum:
            r = lcm(*(v.denominator for v in vec))
            nums.append([v.numerator * (r // v.denominator) for v in vec])
        else:
            r = lcm(*(v._den if type(v) is ExpSum else v.denominator for v in vec))
            nums.append(
                [
                    v.numerator * (r // v.denominator) if type(v) is not ExpSum
                    else v._num.get(_ZERO_EXP, 0) * (r // v._den) if v._num.keys() <= {_ZERO_EXP}
                    else ExpSum._trusted(1, {q: c * (r // v._den) for q, c in v._num.items()})
                    for v in vec
                ]
            )
        lcms.append(r)
    return lcms, nums


def _decoded(row: dict, n: int, den, el, expsum: bool) -> list:
    """The n entries of a sparse row of :func:`_product` (or of products of
    :func:`_over_lcms` entries), absent ones the ring zero: an ExpSum ring
    when ``expsum``, else the Fractions.

    With den None (ring mode) the entries are kept, a Fraction lifted to
    a constant ExpSum in an ExpSum ring.  Otherwise each entry is built
    once, with one gcd, from its numerator over den: an int s as the
    Fraction s / den, or as a constant ExpSum; an ExpSum s over
    denominator 1 as s / den; a Laurent polynomial {x: c} (el not None)
    as the ExpSum sum_x c / den * e**(x / el), each exponent reduced."""
    out = [ExpSum.zero() if expsum else _FZERO] * n
    if den is None:
        for j, v in row.items():
            out[j] = ExpSum.constant(v) if expsum and type(v) is Fraction else v
    elif el is not None:
        for j, t in row.items():
            num = {}
            for x, c in t.items():
                g = gcd(x, el)
                num[x // g, el // g] = c
            out[j] = ExpSum._reduced(den, num, den)
    elif expsum:
        for j, s in row.items():
            out[j] = ExpSum._reduced(den, s._num if type(s) is ExpSum else {_ZERO_EXP: s}, den)
    else:
        for j, s in row.items():
            g = gcd(s, den)
            out[j] = _fraction(s // g, den // g)
    return out


def _series(mat: TriMat, diag: bool, coeff, strict, d, el) -> TriMat:
    """diag * I + sum_k coeff(k) * B**k, B the strict upper part of mat.

    ``strict, d, el`` is :func:`_strict_part` of mat.  The powers are
    formed by :func:`_product` up to the last nonzero power K, and row i
    of the sum by one more product: of the weight row {k: w_k} with the
    rows i of the powers, decoded by :func:`_decoded` as it comes, so
    one row of numerators is held at a time, not all.  With d None the
    powers are those of B in its own ring, the weights are coeff(k), and
    entries left out are the ring zero of mat.  Otherwise they are powers
    of M = d * B, whose entries are ints or (el not None) Laurent
    polynomials {x: c} over the ints, so they take int products and dict
    sums only.  With L the lcm of the coefficients' denominators, the
    weights are the integers w_k = coeff(k) * L * d**(K - k) (constant
    polynomials when el is not None), and each entry is built once from
    s = sum_k w_k * M**k[i][j] over the denominator L * d**K, with one
    gcd: as the Fraction s / (L * d**K) built from its reduced parts
    (:func:`~affinetrees.scalars._fraction`); as a constant ExpSum with
    numerator s for an ExpSum matrix whose exponents are all 0; or as the
    ExpSum with numerator c at the reduced exponent x / el for each term
    c * e**(x / el) of s.

    The integers then have about K times as many bits as d, so the
    integer path is only faster while d is small.  Measured on a 2-core
    2.0 GHz Xeon VM, embedding an n = 8 matrix whose 28 entries have
    distinct prime denominators and inverting the 29 x 29 image
    took 0.015 s by Fractions against 0.006 s in integers at d of 262
    bits, 0.027 s against 0.014 s at 621 bits, 0.025 s against 0.026 s at
    914 bits and 0.085 s against 0.58 s at 5558 bits.  The crossover lay
    near 900 bits at n = 8 and n = 3 and near 1100 bits at n = 5, so
    MAX_COMMON_DENOMINATOR_BITS = 512 keeps the integer path where it is
    faster at every size measured.  On the same VM, ExpSum matrices whose
    entries are two-term sums (exponents with denominators 2 and 3, and
    distinct prime coefficient denominators) took, embedded and inverted,
    0.0061 s in integers against 0.0121 s by Fractions at d of 483 bits,
    0.013 s against 0.014 s at 963 bits and 0.033 s against 0.015 s at
    1923 bits at n = 5, and 0.18 s against 0.32 s at 451 bits, 0.35 s
    against 0.39 s at 899 bits and 1.05 s against 0.44 s at 1795 bits at
    n = 8.  Their crossover also lies near 1000 bits, so they share the
    cutoff.

    Rejected for ExpSum entries: dense Kronecker substitution, which
    packs each Laurent polynomial into one int at 2**b per exponent step
    and multiplies those.  It won only on constant matrices (5.8x at
    16 x 16), which the int path already covers; on diagonally conjugated
    or mixed entries it took 6.6 ms to 24.5 s against 0.9-122 ms for
    Fraction coefficients, because their exponents lie sparsely in
    (1/el)Z and the packed ints are mostly zero bits.
    """
    powers, power = [], strict
    while any(power):
        powers.append(power)
        power = _product(power, strict, el)
    last = len(powers)
    weights = [coeff(k) for k in range(1, last + 1)]
    if d is None:
        den = None
    else:
        lcd = lcm(*(c.denominator for c in weights))
        den = lcd * d**last
        weights = [
            c.numerator * (lcd // c.denominator) * d ** (last - k)
            for k, c in enumerate(weights, 1)
        ]
        if el is not None:
            weights = [{0: w} for w in weights]
    wrow = [dict(enumerate(weights))]
    n = mat.n
    out = [
        _decoded(_product(wrow, [power[i] for power in powers], el)[0], n, den, el, mat.expsum)
        for i in range(n)
    ]
    if diag:
        one = mat.ring_one()
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
