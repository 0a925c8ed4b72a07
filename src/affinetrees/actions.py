"""Affine automorphisms of lexicographically ordered vector groups.

An affine matrix of dimension N (upper triangular, positive diagonal,
corner entry 1) acts on points with N-1 coordinates.  Matrix row order
and significance order run opposite ways: row N-1 is the most
significant point coordinate, while :class:`~affinetrees.ordered.Product`
spaces list the most significant component first.  The bridge therefore
reverses coordinates when moving between matrices and points.

A matrix automorphism applies its dilation in integer arithmetic, on
the kernel and decoder of the matrix series.  The dilation is upper
triangular with a positive diagonal, which the constructor checks.  The
columns of [dilation | translation] are written once, on first use,
over the common denominator D_A of their rational coefficients, by
:func:`~affinetrees.trimat._encode`: as ints, or for exponential-sum
entries as sparse Laurent polynomials {x: c} in e**(1/L).  Each point
is encoded the same way as one row over its own D_x; the constant 1
that meets the translation column is D_x.  An exponential sum already
stores int numerators over one denominator, so encoding only rescales
them.  ``act`` and ``dilate`` then each make one 1-row product
(:func:`~affinetrees.trimat._product`) and one decode
(:func:`~affinetrees.trimat._decoded`), which builds every output entry
once, with one gcd, as a Fraction over D_A * D_x or an ExpSum with int
numerators over it, in the ring of the point space: a rational dilation
on a power of R still gives ExpSum values.  The encoding (columns, D_A,
L) is stored on the automorphism outside its fields, so ``==``, ``hash``
and ``repr`` do not see it.  A point whose exponent lcm does not divide
L has the columns rescaled once to the lcm of both, stored in place of
the old encoding, so L only grows and the points of one orbit, which
keep bringing the same exponents, rescale nothing after the first.
While either common denominator has more than
:data:`~affinetrees.trimat.MAX_COMMON_DENOMINATOR_BITS` bits the same
product runs in ring mode, on the unencoded columns and point, as a
matrix product does.

Over the rationals ``compose`` and ``invert`` work on the encodings
themselves.  With the corner D added, the encoded columns are D * M**T
for the augmented matrix M = [[A, t], [0, 1]].  A composite is one int
product of two such transposes, and the inverse of a unit-diagonal map
is the int series sum_k (-S / D)**k, S the strict part of D * M**T
(:func:`~affinetrees.trimat._series_sums`).  Either result is divided by
the common gcd of its numerators and their denominator, which is
exactly the encoding :func:`_encode_affine` would build, and is stored
on the result while its denominator is within the cutoff, so its next
act or composition does not encode it again.  Its fields are decoded
once (:func:`_from_columns`).  Exponential-sum maps and maps past the
cutoff use the ring-mode matrix product, and they and the inverse of a
diagonal other than 1 use :meth:`~affinetrees.trimat.TriMat.inverse`.

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
from .trimat import (
    MAX_COMMON_DENOMINATOR_BITS,
    TriMat,
    _decoded,
    _encode,
    _product,
    _series_sums,
    _sparse,
)


def _columns(dilation: TriMat, translation) -> list:
    """Sparse columns {i: nonzero entry} of [dilation | translation], the
    translation column n.  The dilation is upper triangular, so column j
    is read down to row j."""
    rows = dilation.rows
    cols = [{i: v for i in range(j + 1) if (v := rows[i][j])} for j in range(dilation.n)]
    cols.append({i: v for i, v in enumerate(translation) if v})
    return cols


def _encode_affine(dilation: TriMat, translation, expsum: bool):
    """(cols, D, L): :func:`~affinetrees.trimat._encode` of
    :func:`_columns`, which past the cutoff are returned as they are,
    with D None."""
    return _encode(_columns(dilation, translation), expsum)


def _from_columns(cols, den: int, space: Product) -> "MatrixAffineAut":
    """The rational map whose [dilation | translation] has the int
    columns ``cols`` over ``den``, the translation column last.  Columns
    and den are first divided by their common gcd, which leaves exactly
    :func:`_encode_affine`'s form; it is stored as the map's encoding
    while den is within the cutoff."""
    g = gcd(den, *(v for col in cols for v in col.values()))
    if g > 1:
        den //= g
        cols = [{i: v // g for i, v in col.items()} for col in cols]
    n = len(cols) - 1
    *dilation, translation = (_decoded(col, n, den, None, False) for col in cols)
    aut = MatrixAffineAut._trusted(TriMat(zip(*dilation)), tuple(translation), space)
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
    """Dilation matrix plus translation, in matrix coordinate order, on
    a power of the Q or R scalars.  Construction brings the translation
    into that ring, so ``act`` and ``dilate`` need not coerce."""

    dilation: TriMat
    translation: tuple
    space: Product

    def __post_init__(self):
        if not isinstance(self.space, Product):
            raise IndexSpaceMismatch("an affine matrix acts on a power of Q or R")
        if not self.dilation.is_upper_triangular():
            raise NotAffineForm("dilation must be upper triangular")
        if not self.dilation.has_positive_diagonal():
            raise NotAffineForm("diagonal must be positive for an order-preserving map")
        if len(self.translation) != self.dilation.n:
            raise DimensionMismatch("translation length must match the dilation")
        if len(self.space.factors) != self.dilation.n:
            raise DimensionMismatch("point space size must match the dilation")
        ring = self.space.factors[0]
        if set(self.space.factors) not in ({Scalars("Q")}, {Scalars("R")}):
            raise IndexSpaceMismatch("an affine matrix acts on a power of Q or R")
        object.__setattr__(
            self, "translation", tuple(ring.coerce(v) for v in self.translation)
        )
        if ring.kind == "Q" and self.dilation.expsum:
            raise IndexSpaceMismatch("exact-real dilation over the rationals")

    @classmethod
    def _trusted(cls, dilation: TriMat, translation: tuple, space: Product):
        """Build from parts already valid for ``space``, unchecked: the
        translation a tuple in the space's ring, of the dilation's size."""
        aut = object.__new__(cls)
        object.__setattr__(aut, "dilation", dilation)
        object.__setattr__(aut, "translation", translation)
        object.__setattr__(aut, "space", space)
        return aut

    @property
    def dim(self) -> int:
        return self.dilation.n

    def is_identity(self) -> bool:
        return not any(self.translation) and self.dilation.is_identity()

    def _encoding(self):
        """:func:`_encode_affine` of the map, stored on first use and
        rebound by :meth:`_apply` when its L grows."""
        enc = self.__dict__.get("_enc")
        if enc is None:
            enc = _encode_affine(self.dilation, self.translation, self.space.factors[0].kind == "R")
            # not a field: ==, hash and repr do not see it
            object.__setattr__(self, "_enc", enc)
        return enc

    def _apply(self, xs, translate: bool) -> list:
        """dilation * xs (+ translation), xs and the result in matrix
        coordinate order: one 1-row :func:`~affinetrees.trimat._product`
        of xs with the map's columns, decoded by
        :func:`~affinetrees.trimat._decoded`.

        Within the cutoff xs is encoded as one row over its own
        denominator D_x, with D_x in column n when it meets the
        translation, and the product runs in integer arithmetic: over
        Laurent polynomials in e**(1/L) when either side has an exponent
        other than 0, L the lcm of both exponent denominators.  When L is
        not the map's (xs's lcm does not divide it), the map's columns are
        rescaled to L and stored with it in one assignment, so a reader
        never sees columns at another L.  Each
        output entry is then built once over D_A * D_x.  Past the cutoff
        xs, with the ring unit in column n, multiplies the unencoded
        columns in ring mode."""
        expsum = self.space.factors[0].kind == "R"
        n = self.dim
        cols, da, ela = self._encoding()
        xrow, dx = _sparse([xs])[0], None
        if da is not None:
            (xrow,), dx, elx = _encode([xrow], expsum)
        if dx is None:
            if da is not None:
                cols = _columns(self.dilation, self.translation)
            den = el = None
            unit = self.dilation.ring_one()
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
        return _decoded(_product([xrow], cols, el)[0], n, den, el, expsum)

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
        """self after other: x -> self(other(x)).

        Over Q, with both encodings within the cutoff, the encoded
        columns D * M**T of the augmented matrices M = [[A, t], [0, 1]]
        multiply as (M_s * M_o)**T = M_o**T * M_s**T: one int product,
        the corner D_o of M_o**T added to its translation row."""
        if not isinstance(other, MatrixAffineAut) or other.space != self.space:
            raise IndexSpaceMismatch("can only compose over one space")
        if self.space.factors[0].kind == "Q":
            cs, ds, _ = self._encoding()
            co, do, _ = other._encoding()
            if ds is not None and do is not None:
                n = self.dim
                first = [*co[:n], {**co[n], n: do}]
                return _from_columns(_product(first, cs, None), ds * do, self.space)
        dil = self.dilation * other.dilation
        # translations are stored in matrix row order, so no reversal here
        moved = self._apply(other.translation, True)
        return MatrixAffineAut._trusted(dil, tuple(moved), self.space)

    def invert(self) -> "MatrixAffineAut":
        """The inverse map.  Over Q, for a unit diagonal and an encoding
        D * M**T within the cutoff, M**T = I + S / D with S strictly
        triangular, so (M**T)**-1 = sum_k (-S / D)**k: the series' int
        sums (:func:`~affinetrees.trimat._series_sums`), with D**K on the
        diagonal, are the inverse's columns over D**K."""
        if self.space.factors[0].kind == "Q":
            cols, d, _ = self._encoding()
            n = self.dim
            if d is not None and all(cols[j].get(j) == d for j in range(n)):
                strict = [{i: v for i, v in col.items() if i != j} for j, col in enumerate(cols)]
                sums, den = _series_sums(strict, d, None, lambda k: (-1) ** k)
                sums = list(sums)
                for j in range(n):
                    sums[j][j] = den
                return _from_columns(sums, den, self.space)
        dil = self.dilation.inverse()
        zeros = (self.space.factors[0].zero(),) * self.dim
        linear = MatrixAffineAut._trusted(dil, zeros, self.space)
        neg = tuple(-v for v in linear._apply(self.translation, False))
        return MatrixAffineAut._trusted(dil, neg, self.space)

    def to_affine_matrix(self) -> TriMat:
        rows = [list(row) + [t] for row, t in zip(self.dilation.rows, self.translation)]
        rows.append([self.dilation.ring_zero()] * self.dim + [self.dilation.ring_one()])
        return TriMat(rows)


def from_affine_matrix(mat: TriMat) -> MatrixAffineAut:
    """Split an affine matrix into dilation block and translation column.
    Only what the constructor cannot see is checked here: the size and
    the last row (0, ..., 0, 1)."""
    N = mat.n
    if N < 2:
        raise NotAffineForm("affine form needs dimension at least 2")
    *head, last = mat.rows
    if any(last[:-1]):
        raise NotAffineForm("matrix must be upper triangular")
    if last[-1] != 1:
        raise NotAffineForm("corner entry must be 1")
    ring = Scalars("R" if mat.expsum else "Q")
    return MatrixAffineAut(
        TriMat([row[:-1] for row in head]), tuple(row[-1] for row in head), Product(*[ring] * (N - 1))
    )


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
        certified = is_essentially_hyperbolic(aut.to_affine_matrix())
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
