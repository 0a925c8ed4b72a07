"""Affine automorphisms of lexicographically ordered vector groups.

A map is stored as its affine matrix M = [[A, t], [0, 1]] of dimension
N (upper triangular, positive diagonal, corner entry 1), which acts on
points with N-1 coordinates by x -> A x + t; the dilation A acts on
differences.  Matrix row order and significance order run opposite
ways: row N-1 is the most significant point coordinate, while
:class:`~affinetrees.ordered.Product` spaces list the most significant
component first, so the bridge reverses coordinates.

A map acts, composes and inverts through its matrix, which owns the
integer encoding of its columns (:mod:`~affinetrees.trimat`): ``act``
and ``dilate`` are :meth:`~affinetrees.trimat.TriMat.affine_apply`,
``compose`` the matrix product and ``invert`` the matrix inverse.

Diagnostics distinguish *certified* verdicts (the exact matrix predicate)
from *sampled* evidence, since sampling cannot prove universally
quantified claims.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .trimat import TriMat


def _translation(mat: TriMat) -> tuple:
    """The translation column t of an affine matrix, in matrix
    coordinate order: stored on each map beside its fields, so
    ``MatrixBundle.act_zero`` and ``is_identity`` read it as it is."""
    return tuple([row[-1] for row in mat.rows[:-1]])


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

    def _mat_apply(self, values, translate: bool):
        return tuple(reversed(self.matrix.affine_apply(values[::-1], translate)))

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
        return MatrixAffineAut._trusted(self.matrix * other.matrix, self.space)

    def invert(self) -> "MatrixAffineAut":
        """The inverse map, the matrix M**-1."""
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
