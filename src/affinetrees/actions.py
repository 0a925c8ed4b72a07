"""Affine automorphisms of lexicographically ordered vector groups.

A map is stored as its affine matrix M = [[A, t], [0, 1]] of dimension
N (upper triangular, positive diagonal, corner entry 1), which acts on
points with N-1 coordinates by x -> A x + t; the dilation A acts on
differences.  Matrix row order and significance order run opposite
ways: row N-1 is the most significant point coordinate, while
:class:`~affinetrees.ordered.Product` spaces list the most significant
component first, so the bridge reverses coordinates.

A map applies M in integer arithmetic, on the kernel and decoder of the
matrix series.  The columns of M are written once, on first use, over
the common denominator D of their rational coefficients, by
:func:`~affinetrees.trimat._encode`: as ints, or for exponential-sum
entries as sparse Laurent polynomials {x: c} in e**(1/L).  They are the
rows of D * M**T.  A point x is encoded the same way as one row over its
own D_x, and ``act`` multiplies (x, D_x) by them, ``dilate`` (x, 0):
one 1-row product (:func:`~affinetrees.trimat._product`), whose corner
coordinate is dropped, and one decode
(:func:`~affinetrees.trimat._decoded`), which builds each output entry
once, with one gcd, over D * D_x, in the ring of the point space.  The
encoding (columns, D, L) is stored on the map outside its fields, so
``==``, ``hash`` and ``repr`` do not see it.  A point whose exponent lcm
does not divide L has the columns rescaled once to the lcm of both,
stored in place of the old encoding, so L only grows and the points of
one orbit rescale nothing after the first.  While either common
denominator has more than
:data:`~affinetrees.trimat.MAX_COMMON_DENOMINATOR_BITS` bits the same
product runs in ring mode, on the unencoded columns and point.

Over the rationals ``compose`` and ``invert`` work on the encodings: a
composite is one int product, (M_s M_o)**T = M_o**T M_s**T, and the
inverse of a unit-diagonal map the int series sum_k (-S / D)**k, S the
strict part of D * M**T (:func:`~affinetrees.trimat._series_sums`).
Divided by the common gcd of its numerators and denominator, either
result is exactly its own encoding, and is stored on it while within
the cutoff; its matrix is decoded once (:func:`_from_columns`).  Other
maps multiply and invert their matrices as
:class:`~affinetrees.trimat.TriMat` does.

Diagnostics distinguish *certified* verdicts (the exact matrix predicate)
from *sampled* evidence, since sampling cannot prove universally
quantified claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .embedding import is_essentially_hyperbolic
from .errors import (
    DimensionMismatch,
    IdentityInput,
    IndexSpaceMismatch,
    NotAffineForm,
)
from .ordered import LexVec, Product, Scalars, lex_distance
from .sampling import trial_rng
from .scalars import ExpSum
from .trimat import (
    MAX_COMMON_DENOMINATOR_BITS,
    TriMat,
    _decoded,
    _encode,
    _product,
    _series_sums,
    _sparse,
)


def _columns(mat: TriMat) -> list:
    """Sparse columns {i: nonzero entry} of an upper triangular matrix:
    column j is read down to row j."""
    rows = mat.rows
    return [{i: v for i in range(j + 1) if (v := rows[i][j])} for j in range(mat.n)]


def _translation(mat: TriMat) -> tuple:
    """The translation column t of an affine matrix, in matrix
    coordinate order: stored on each map beside its fields, so
    ``MatrixBundle.act_zero`` and ``is_identity`` read it as it is."""
    return tuple([row[-1] for row in mat.rows[:-1]])


def _from_columns(cols, den: int, space: Product) -> "MatrixAffineAut":
    """The rational map whose affine matrix has the int columns ``cols``
    over ``den``.  Columns and den are first divided by their common gcd,
    which leaves exactly the :func:`~affinetrees.trimat._encode` of the
    matrix's columns; it is stored as the map's encoding while den is
    within the cutoff."""
    g = gcd(den, *(v for col in cols for v in col.values()))
    if g > 1:
        den //= g
        cols = [{i: v // g for i, v in col.items()} for col in cols]
    n = len(cols)
    aut = MatrixAffineAut._trusted(
        TriMat(zip(*(_decoded(col, n, den, None, False) for col in cols))), space
    )
    if den.bit_length() <= MAX_COMMON_DENOMINATOR_BITS:
        object.__setattr__(aut, "_enc", (cols, den, None))
    return aut


def _rescaled(row: dict, f: int) -> dict:
    """A sparse row of Laurent polynomials in e**(1/el) (or of ints, the
    constant polynomials) written in e**(1/(f * el))."""
    if f == 0:
        return {j: {0: c} for j, c in row.items()}
    if f == 1:
        return row
    return {j: {x * f: c for x, c in t.items()} for j, t in row.items()}


@dataclass(frozen=True)
class MatrixAffineAut:
    """The affine matrix [[A, t], [0, 1]] of an order-preserving map of a
    power of the Q or R scalars, its dilation A upper triangular with a
    positive diagonal.  Over R every entry is an ExpSum: a matrix with
    rational entries is lifted once, here."""

    matrix: TriMat
    space: Product

    def __post_init__(self):
        mat, space = self.matrix, self.space
        if not isinstance(space, Product):
            raise IndexSpaceMismatch("an affine matrix acts on a power of Q or R")
        if mat.n < 2:
            raise NotAffineForm("affine form needs dimension at least 2")
        last = mat.rows[-1]
        if any(last[:-1]):
            raise NotAffineForm("matrix must be upper triangular")
        if last[-1] != 1:
            raise NotAffineForm("corner entry must be 1")
        if not mat.is_upper_triangular():
            raise NotAffineForm("dilation must be upper triangular")
        if not mat.has_positive_diagonal():
            raise NotAffineForm("diagonal must be positive for an order-preserving map")
        if len(space.factors) != mat.n - 1:
            raise DimensionMismatch("point space size must match the dilation")
        rings = set(space.factors)
        if rings == {Scalars("R")}:
            if any(type(v) is not ExpSum for row in mat.rows for v in row):
                object.__setattr__(self, "matrix", mat.to_expsum())
        elif rings != {Scalars("Q")}:
            raise IndexSpaceMismatch("an affine matrix acts on a power of Q or R")
        elif mat.expsum:
            raise IndexSpaceMismatch("exact-real entries over the rationals")
        object.__setattr__(self, "translation", _translation(self.matrix))

    @classmethod
    def _trusted(cls, matrix: TriMat, space: Product):
        """Build from a matrix already valid for ``space``, unchecked."""
        aut = object.__new__(cls)
        object.__setattr__(aut, "matrix", matrix)
        object.__setattr__(aut, "space", space)
        object.__setattr__(aut, "translation", _translation(matrix))
        return aut

    @property
    def dim(self) -> int:
        return self.matrix.n - 1

    def is_identity(self) -> bool:
        return not any(self.translation) and self.matrix.is_identity()

    def _encoding(self):
        """:func:`~affinetrees.trimat._encode` of the matrix's columns,
        stored on first use and rebound by :meth:`_apply` when its L
        grows."""
        enc = self.__dict__.get("_enc")
        if enc is None:
            enc = _encode(_columns(self.matrix), self.space.factors[0].kind == "R")
            # not a field: ==, hash and repr do not see it
            object.__setattr__(self, "_enc", enc)
        return enc

    def _apply(self, xs, translate: bool) -> list:
        """A * xs (+ t), xs and the result in matrix coordinate order.

        Within the cutoff the product runs over Laurent polynomials in
        e**(1/L) when either side has an exponent other than 0, L the lcm
        of both exponent denominators.  When L is not the map's, the
        map's columns are rescaled to L and stored with it in one
        assignment, so a reader never sees columns at another L.  Past
        the cutoff xs, with the ring unit in column n, multiplies the
        unencoded columns in ring mode."""
        expsum = self.space.factors[0].kind == "R"
        n = len(xs)
        cols, da, ela = self._encoding()
        xrow, dx = _sparse([xs])[0], None
        if da is not None:
            (xrow,), dx, elx = _encode([xrow], expsum)
        if dx is None:
            if da is not None:
                cols = _columns(self.matrix)
            den = el = None
            unit = self.matrix.ring_one()
        else:
            den, el, unit = da * dx, None, dx
            if ela is not None or elx is not None:
                el = lcm(ela or 1, elx or 1)
                xrow, unit = _rescaled(xrow, el // elx if elx else 0), {0: dx}
                if el != ela:
                    cols = [_rescaled(col, el // ela if ela else 0) for col in cols]
                    object.__setattr__(self, "_enc", (cols, da, el))
        if translate:
            xrow[n] = unit
        row = _product([xrow], cols, el)[0]
        row.pop(n, None)  # the corner coordinate
        return _decoded(row, n, den, el, expsum)

    def _mat_apply(self, values, translate: bool):
        return tuple(reversed(self._apply(values[::-1], translate)))

    def act(self, point: LexVec) -> LexVec:
        if point.space != self.space:
            raise IndexSpaceMismatch("point lives in a different space")
        return LexVec._trusted(self.space, self._mat_apply(point.value, True))

    def dilate(self, delta: LexVec) -> LexVec:
        if delta.space != self.space:
            raise IndexSpaceMismatch("difference lives in a different space")
        return LexVec._trusted(self.space, self._mat_apply(delta.value, False))

    def compose(self, other: "MatrixAffineAut") -> "MatrixAffineAut":
        """self after other: x -> self(other(x)), the matrix M_s M_o."""
        if not isinstance(other, MatrixAffineAut) or other.space != self.space:
            raise IndexSpaceMismatch("can only compose over one space")
        if self.space.factors[0].kind == "Q":
            cs, ds, _ = self._encoding()
            co, do, _ = other._encoding()
            if ds is not None and do is not None:
                return _from_columns(_product(co, cs, None), ds * do, self.space)
        return MatrixAffineAut._trusted(self.matrix * other.matrix, self.space)

    def invert(self) -> "MatrixAffineAut":
        """The inverse map.  Over Q, for a unit diagonal within the
        cutoff, M**T = I + S / D, so the int sums of the series
        sum_k (-S / D)**k, with D**K on the diagonal, are the inverse's
        columns over D**K."""
        if self.space.factors[0].kind == "Q":
            cols, d, _ = self._encoding()
            if d is not None and all(cols[j].get(j) == d for j in range(self.dim)):
                strict = [{i: v for i, v in col.items() if i != j} for j, col in enumerate(cols)]
                sums, den = _series_sums(strict, d, None, lambda k: (-1) ** k)
                sums = list(sums)
                for j, col in enumerate(sums):
                    col[j] = den
                return _from_columns(sums, den, self.space)
        return MatrixAffineAut._trusted(self.matrix.inverse(), self.space)


def from_affine_matrix(mat: TriMat) -> MatrixAffineAut:
    """The map of an affine matrix on the power of Q, or of R when an
    entry is an exponential sum, that it acts on."""
    ring = Scalars("R" if mat.expsum else "Q")
    # a 1 x 1 matrix gets a space too, so that the constructor rejects its size
    return MatrixAffineAut(mat, Product(*[ring] * max(mat.n - 1, 1)))


class ProductAut:
    """Componentwise action on a finite lexicographic product of spaces."""

    def __init__(self, components):
        self.components = tuple(components)
        if not self.components:
            raise DimensionMismatch("a product action needs at least one component")
        self.space = Product(*(c.space for c in self.components))

    def is_identity(self) -> bool:
        return all(c.is_identity() for c in self.components)

    def act(self, point: LexVec) -> LexVec:
        if point.space != self.space:
            raise IndexSpaceMismatch("point lives in a different space")
        parts = tuple(
            c.act(LexVec._trusted(c.space, v)).value
            for c, v in zip(self.components, point.value)
        )
        return LexVec._trusted(self.space, parts)

    def dilate(self, delta: LexVec) -> LexVec:
        if delta.space != self.space:
            raise IndexSpaceMismatch("difference lives in a different space")
        parts = tuple(
            c.dilate(LexVec._trusted(c.space, v)).value
            for c, v in zip(self.components, delta.value)
        )
        return LexVec._trusted(self.space, parts)

    def compose(self, other: "ProductAut") -> "ProductAut":
        return ProductAut(
            a.compose(b) for a, b in zip(self.components, other.components)
        )

    def invert(self) -> "ProductAut":
        return ProductAut(c.invert() for c in self.components)


def check_affine_law(aut, samples: int, seed: int) -> dict:
    """Sample pairs of points and check d(gx, gy) = dilation(d(x, y)) exactly."""
    failures = 0
    witness = None
    for t in range(samples):
        rng = trial_rng(seed, "affine-law", t)
        p = LexVec(aut.space, aut.space.sample(rng))
        q = LexVec(aut.space, aut.space.sample(rng))
        lhs = lex_distance(aut.act(p), aut.act(q))
        rhs = aut.dilate(lex_distance(p, q))
        if lhs != rhs:
            failures += 1
            if witness is None:
                witness = {"trial": t, "p": repr(p), "q": repr(q)}
    return {
        "law": "metric_dilation",
        "trials": samples,
        "failures": failures,
        "witness": witness,
    }


def check_free_and_rigid(aut, samples: int, seed: int) -> dict:
    """Sampled freeness (no fixed point) and rigidity (constant
    displacement sign); adds the exact matrix certificate when available."""
    if aut.is_identity():
        raise IdentityInput("freeness check undefined for the identity")
    certified = None
    if isinstance(aut, MatrixAffineAut):
        certified = is_essentially_hyperbolic(aut.matrix)
    signs = set()
    fixed_witness = None
    moved = 0
    for t in range(samples):
        rng = trial_rng(seed, "free-rigid", t)
        p = LexVec(aut.space, aut.space.sample(rng))
        delta = aut.act(p) - p
        s = delta.sign()
        if s == 0:
            if fixed_witness is None:
                fixed_witness = {"trial": t, "p": repr(p)}
        else:
            moved += 1
            signs.add(s)
    free_on_samples = fixed_witness is None
    sign_constant = len(signs) <= 1 and free_on_samples
    report = {
        "certified": certified,
        "sampled_pass": moved,
        "trials": samples,
        "free_on_samples": free_on_samples,
        "sign_constant": sign_constant,
        "witness": fixed_witness,
    }
    if certified:
        report["consistent"] = free_on_samples and sign_constant
    return report
