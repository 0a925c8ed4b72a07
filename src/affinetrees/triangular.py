"""Extension of the unitriangular embedding to upper triangular matrices
with positive diagonal.

Group elements factor uniquely as (unipotent part) * (diagonal part).
To stay inside exact arithmetic the diagonal entries are restricted to
exponentials e**q with rational q, so every scalar that shows up --
conjugated unipotent entries, coordinate multipliers, logarithms of the
diagonal -- lives in the :class:`~affinetrees.scalars.ExpSum` ring.

The embedded image has dimension m + n + 1 (m = n(n-1)/2): the first m
rows carry the unipotent embedding, its linear block multiplied on the
right by the coordinate action of the diagonal, the next n rows carry an identity block whose final
column is the vector of diagonal exponents, and the corner entry is 1.
Nontrivial elements are essentially hyperbolic for the natural affine
action: a nontrivial diagonal contributes a nonzero exponent column that
dominates, and a trivial diagonal reduces to the unitriangular case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .embedding import (
    affine_algebra_rep,
    check_supported_dimension,
    coord_count,
    coord_entries,
    coord_vector,
    embed_unitriangular,
    is_essentially_hyperbolic,
    left_mult_matrix_closed,
)
from .errors import (
    DimensionMismatch,
    IdentityInput,
    NotUnitriangular,
)
from .sampling import rand_exponents, rand_strict_upper, rand_unitriangular, trial_rng
from .scalars import ExpSum
from .trimat import TriMat, nilpotent_exp, unipotent_log


def conjugate_by_diagonal(exponents, mat: TriMat) -> TriMat:
    """d . mat . d**-1 for the diagonal d with entries e**q_i."""
    exponents = tuple(Fraction(q) for q in exponents)
    if len(exponents) != mat.n:
        raise DimensionMismatch("one exponent per matrix row required")
    m = mat.to_expsum()
    zero = m.ring_zero()
    return TriMat(
        [
            [
                v._shifted(_key(qi - qj)) if v else zero
                for qj, v in zip(exponents, row)
            ]
            for qi, row in zip(exponents, m.rows)
        ]
    )


def _key(q: Fraction) -> tuple[int, int]:
    """The term-map key of the exponent q."""
    return q.numerator, q.denominator


def _coord_exponents(exponents) -> list:
    """q_r - q_s for the coordinate housing matrix entry (r, s), in
    :func:`coord_entries` order."""
    return [exponents[r] - exponents[s] for r, s in coord_entries(len(exponents))]


def _coord_multipliers(exponents) -> list:
    """e**q for each q of :func:`_coord_exponents`: how conjugation by the
    diagonal scales each flattened coordinate."""
    return [ExpSum.exponential(q) for q in _coord_exponents(exponents)]


def conj_coord_matrix(exponents) -> TriMat:
    """Diagonal m x m matrix describing how conjugation by the diagonal
    acts on flattened strictly-upper coordinates.

    The coordinate housing matrix entry (r, r + n - k) is scaled by
    e**(q_r - q_{r + n - k}).
    """
    exponents = tuple(Fraction(q) for q in exponents)
    return TriMat.diagonal(_coord_multipliers(exponents))


def conj_coord_matrix_affine(exponents) -> TriMat:
    """The coordinate conjugation matrix padded with a corner 1, sized m+1."""
    exponents = tuple(Fraction(q) for q in exponents)
    return TriMat.diagonal(_coord_multipliers(exponents) + [ExpSum.one()])


@dataclass(frozen=True)
class TriangularElement:
    """Element u * d: unitriangular u over ExpSum entries and a positive
    diagonal d with entries e**q_i.  The (u, d) factorization is canonical."""

    n: int
    u: TriMat
    exponents: tuple

    def __post_init__(self):
        u = self.u if isinstance(self.u, TriMat) else TriMat(self.u)
        u = u.to_expsum()
        if u.n != self.n:
            raise DimensionMismatch("unipotent part has wrong dimension")
        if not u.is_unitriangular():
            raise NotUnitriangular("unipotent part must be unitriangular")
        exps = tuple(Fraction(q) for q in self.exponents)
        if len(exps) != self.n:
            raise DimensionMismatch("one diagonal exponent per row required")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def _trusted(cls, n: int, u: TriMat, exponents: tuple) -> "TriangularElement":
        """Build from parts already valid, unchecked: ``u`` an n x n
        unitriangular ``TriMat`` over ExpSum entries and ``exponents`` a
        tuple of n Fractions."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "u", u)
        object.__setattr__(g, "exponents", exponents)
        return g

    @classmethod
    def identity(cls, n: int) -> "TriangularElement":
        return cls(n, TriMat.identity(n, ExpSum.one()), (Fraction(0),) * n)

    @classmethod
    def unipotent(cls, u: TriMat) -> "TriangularElement":
        return cls(u.n, u, (Fraction(0),) * u.n)

    @classmethod
    def diagonal(cls, exponents) -> "TriangularElement":
        exps = tuple(Fraction(q) for q in exponents)
        n = len(exps)
        return cls(n, TriMat.identity(n, ExpSum.one()), exps)

    def is_identity(self) -> bool:
        return not any(self.exponents) and self.u.is_identity()

    def matrix(self) -> TriMat:
        """The represented upper triangular matrix u * d."""
        keys = [_key(q) for q in self.exponents]
        return TriMat([[v._shifted(k) for v, k in zip(row, keys)] for row in self.u.rows])

    def __mul__(self, other):
        if not isinstance(other, TriangularElement):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} vs {other.n}")
        u = self.u * conjugate_by_diagonal(self.exponents, other.u)
        exps = tuple(a + b for a, b in zip(self.exponents, other.exponents))
        return TriangularElement._trusted(self.n, u, exps)

    def inverse(self) -> "TriangularElement":
        neg = tuple(-q for q in self.exponents)
        return TriangularElement._trusted(
            self.n, conjugate_by_diagonal(neg, self.u.inverse()), neg
        )


def _image(rep: TriMat, exponents) -> TriMat:
    """The (m+n+1)-dimensional image of u * d from the (m+1)-dimensional
    image ``rep`` of u and the exponents of d, built in one pass.

    It equals (image of u) * (image of d): the linear block of ``rep``
    with column s scaled by coordinate s's multiplier, the translation
    column of ``rep``, then an identity block whose last column holds the
    exponents, and the corner 1.
    """
    n = len(exponents)
    m = rep.n - 1
    keys = [_key(q) for q in _coord_exponents(exponents)]
    zero, one = ExpSum.zero(), ExpSum.one()
    rows = [
        [v._shifted(k) if v else v for v, k in zip(row, keys)]
        + [zero] * n
        + [row[m]]
        for row in rep.rows[:m]
    ]
    for i, q in enumerate(exponents):
        rows.append(
            [zero] * (m + i) + [one] + [zero] * (n - 1 - i) + [ExpSum.constant(q)]
        )
    rows.append([zero] * (m + n) + [one])
    return TriMat(rows)


def embed_unipotent_part(u: TriMat) -> TriMat:
    """Embedding of a unitriangular matrix into dimension m + n + 1."""
    return _image(embed_unitriangular(u.to_expsum()), (Fraction(0),) * u.n)


def embed_diagonal_part(exponents) -> TriMat:
    """Embedding of a positive diagonal into dimension m + n + 1."""
    exponents = tuple(Fraction(q) for q in exponents)
    check_supported_dimension(len(exponents))
    identity = TriMat.identity(coord_count(len(exponents)) + 1, ExpSum.one())
    return _image(identity, exponents)


#: (element, image) of the last :func:`embed_triangular` call, rebound as
#: one tuple so a reader never sees an element with another's image
_last_embedding: tuple = (object(), None)


def embed_triangular(g: TriangularElement) -> TriMat:
    """The full embedding: image of the unipotent part times the image of
    the diagonal part.  Multiplicative on the whole group.  The dimension
    is checked by :func:`embed_unitriangular` before any other work.

    The last element embedded and its image are kept in a one-slot memo
    matched by identity (``g is element``): asking again for the same
    object returns the same image object without embedding, while an equal
    but distinct element is embedded again.  Elements and images are
    immutable, so a hit is exact; an error is never stored."""
    global _last_embedding
    element, image = _last_embedding
    if element is g:
        return image
    image = _image(embed_unitriangular(g.u), g.exponents)
    _last_embedding = (g, image)
    return image


def is_essentially_hyperbolic_embedded(g: TriangularElement) -> bool:
    """Exact essential-hyperbolicity verdict for the embedded image of a
    nontrivial element.

    The image comes from :func:`embed_triangular`, so right after
    ``embed_triangular(g)`` for the same object g it is reused from the
    one-slot memo instead of being embedded again."""
    if g.is_identity():
        raise IdentityInput("predicate undefined for the identity element")
    return is_essentially_hyperbolic(embed_triangular(g))


# -- sampled verification of the conjugation identities -------------------------

IDENTITY_TAGS = (
    "exp_conj",
    "log_conj",
    "coord_conj",
    "left_mult_conj",
    "algebra_rep_conj",
    "group_rep_conj",
    "linear_part_conj",
    "translation_part_conj",
    "full_embedding_conj",
    "embedding_isomorphism",
)


def verify_conjugation_identities(n: int, samples: int, seed: int) -> dict:
    """Check the commutation identities tying diagonal conjugation to every
    stage of the embedding, plus isomorphism evidence for the full map.

    Returns {tag: {"trials": int, "failures": int, "witness": dict | None}},
    where the witness (with its trial) is that of the tag's first failure.
    These identities hold exactly, so a failure means an implementation
    bug.  Trial t of every tag draws from ``trial_rng(seed,
    "conj-identities", n, t)``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    m = coord_count(n)
    report = {
        tag: {"trials": 0, "failures": 0, "witness": None} for tag in IDENTITY_TAGS
    }

    def record(tag, t, ok, **inputs):
        # the witness, with the repr of each input, is built on failure only
        entry = report[tag]
        entry["trials"] += 1
        if not ok:
            entry["failures"] += 1
            if entry["witness"] is None:
                witness = {k: repr(v) for k, v in inputs.items()}
                entry["witness"] = {"trial": t, **witness}

    for t in range(samples):
        rng = trial_rng(seed, "conj-identities", n, t)
        exps = rand_exponents(rng, n)
        x = rand_strict_upper(rng, n).to_expsum()
        u = rand_unitriangular(rng, n).to_expsum()
        x_conj = conjugate_by_diagonal(exps, x)
        u_conj = conjugate_by_diagonal(exps, u)
        # Conjugating by the coordinate diagonal scales entries: (m+1)-sized
        # matrices by pad_exps, m-sized ones and vectors by core_exps.  The
        # dense product with the diagonal stays on the left of exp_conj.
        core_exps = _coord_exponents(exps)
        pad_exps = core_exps + [Fraction(0)]
        mults = _coord_multipliers(exps)
        # the diagonals' inverses are their images at the negated exponents
        neg_exps = [-q for q in exps]

        big = rand_strict_upper(rng, m + 1).to_expsum()
        pad = conj_coord_matrix_affine(exps)
        lhs = pad * nilpotent_exp(big) * conj_coord_matrix_affine(neg_exps)
        rhs = nilpotent_exp(conjugate_by_diagonal(pad_exps, big))
        record("exp_conj", t, lhs == rhs, exponents=exps)

        lhs = conjugate_by_diagonal(exps, unipotent_log(u))
        rhs = unipotent_log(u_conj)
        record("log_conj", t, lhs == rhs, u=u)

        lhs = tuple(c * v for c, v in zip(mults, coord_vector(x)))
        rhs = coord_vector(x_conj)
        record("coord_conj", t, lhs == rhs, x=x)

        lhs = conjugate_by_diagonal(core_exps, left_mult_matrix_closed(x))
        rhs = left_mult_matrix_closed(x_conj)
        record("left_mult_conj", t, lhs == rhs, x=x)

        lhs = conjugate_by_diagonal(pad_exps, affine_algebra_rep(x))
        rhs = affine_algebra_rep(x_conj)
        record("algebra_rep_conj", t, lhs == rhs, x=x)

        rep = embed_unitriangular(u)
        rep_conj = embed_unitriangular(u_conj)
        lhs = conjugate_by_diagonal(pad_exps, rep)
        record("group_rep_conj", t, lhs == rep_conj, u=u)

        lin = TriMat([[rep.rows[i][j] for j in range(m)] for i in range(m)])
        lin_conj = TriMat([[rep_conj.rows[i][j] for j in range(m)] for i in range(m)])
        lhs = conjugate_by_diagonal(core_exps, lin)
        record("linear_part_conj", t, lhs == lin_conj, u=u)

        trans = tuple(rep.rows[i][m] for i in range(m))
        trans_conj = tuple(rep_conj.rows[i][m] for i in range(m))
        lhs = tuple(c * v for c, v in zip(mults, trans))
        record("translation_part_conj", t, lhs == trans_conj, u=u)

        zeros = (Fraction(0),) * n
        unipotent_image = _image(rep, zeros)
        demb = embed_diagonal_part(exps)
        lhs = demb * unipotent_image * embed_diagonal_part(neg_exps)
        rhs = _image(rep_conj, zeros)
        record("full_embedding_conj", t, lhs == rhs, u=u)

        g1 = TriangularElement(n, u, exps)
        g2 = TriangularElement(
            n,
            rand_unitriangular(rng, n).to_expsum(),
            rand_exponents(rng, n),
        )
        image1 = _image(rep, g1.exponents)
        ok = embed_triangular(g1 * g2) == image1 * embed_triangular(g2)
        if ok and not g1.is_identity():
            ok = not image1.is_identity()
        if ok and any(exps) and not u.is_identity():
            # unipotent and diagonal images only share the identity
            ok = unipotent_image != demb
        record("embedding_isomorphism", t, ok, g1=g1)

    return report
