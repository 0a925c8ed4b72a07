"""Embedding of unitriangular groups into larger unitriangular groups.

The strictly upper triangular matrices of size n carry a grading by
superdiagonals: sigma_i * sigma_j lands in sigma_{i+j}.  Weighting the
commutator of graded pieces by j/(i+j) yields a left-symmetric product,
which is one entrywise sum (:func:`left_symmetric_product` derives it;
the graded definition is kept as the ``verify`` oracle).  The matrix of
left multiplication by a fixed element -- written in a flattened
coordinate system that lists the superdiagonals from longest index to
shortest -- is strictly block-upper triangular.  Adjoining the
coordinate vector as a final column produces a Lie algebra map into the
affine algebra of dimension m = n(n-1)/2, and conjugating by the matrix
exponential/logarithm turns it into an injective group homomorphism from
the unitriangular group of size n to the one of size m+1.  That
exponential has a closed form in g and g**-1 (:func:`_assembled` derives
it), so :func:`embed_unitriangular` never forms the logarithm or the
(m+1) x (m+1) series; :func:`affine_algebra_rep` and the series stay as
the definition it is tested against.

Images of nontrivial elements are essentially hyperbolic for the natural
affine action: in the displacement of any point, the contribution of the
final column dominates every coordinate the linear part can disturb.
The checker :func:`is_essentially_hyperbolic` evaluates exactly that
row-by-row implication.

Coordinate convention used throughout: for the affine action of an
N x N matrix (bottom-right entry 1) on points with N-1 coordinates,
coordinates with a *larger* row index are *more* significant in the
lexicographic order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    DimensionMismatch,
    IdentityInput,
    NotAffineForm,
    NotInverseClosed,
    NotStrictUpper,
    NotUnitriangular,
    ZeroInput,
)
from .scalars import ExpSum, _fraction
from .trimat import _FZERO, TriMat, _decoded, nilpotent_exp


def coord_count(n: int) -> int:
    """Number of strictly-upper entries of an n x n matrix."""
    return n * (n - 1) // 2


def lowest_superdiag(mat: TriMat) -> int:
    """Smallest i with a nonzero i-th superdiagonal; raises on zero input."""
    for i in range(1, mat.n):
        if any(mat.rows[k][k + i] for k in range(mat.n - i)):
            return i
    raise ZeroInput("zero matrix has no nonzero superdiagonal")


# -- left-symmetric product ---------------------------------------------------


def left_symmetric_product(x: TriMat, y: TriMat) -> TriMat:
    """Bilinear extension of  S_i . T_j = j/(i+j) [S_i, T_j]  over the
    grading, entry by entry.  In entry (a, b), S_i T_j has i = c - a and
    j = b - c, T_j S_i has j = c - a and i = b - c, and j/(i+j) = j/(b-a):
    (x.y)[a][b] = sum_{a<c<b} ((b-c) x[a][c] y[c][b] - (c-a) y[a][c] x[c][b]) / (b-a).
    Each entry starts from the operands' common ring zero, so it has the
    type the graded definition (the ``verify`` oracle) gives it."""
    if x.n != y.n:
        raise DimensionMismatch(f"{x.n} vs {y.n}")
    if not x.is_strict_upper() or not y.is_strict_upper():
        raise NotStrictUpper("left-symmetric product needs strict upper operands")
    n, xr, yr = x.n, x.rows, y.rows
    zero = x.ring_zero() + y.ring_zero()
    rows = [[zero] * n for _ in range(n)]
    for a in range(n - 2):
        xa, ya = xr[a], yr[a]
        for b in range(a + 2, n):
            acc = zero
            for c in range(a + 1, b):
                if xa[c] and yr[c][b]:
                    acc += (b - c) * xa[c] * yr[c][b]
                if ya[c] and xr[c][b]:
                    acc -= (c - a) * ya[c] * xr[c][b]
            rows[a][b] = acc / (b - a)
    return TriMat(rows)


# -- flattened coordinates ----------------------------------------------------


def coord_block(nu: int) -> tuple[int, int]:
    """(block, position) of 1-based coordinate ``nu``.

    Coordinates are grouped into blocks of sizes 1, 2, 3, ...; block k
    holds the (n-k)-th superdiagonal and position r inside it corresponds
    to the matrix entry (r, r + n - k), all 1-based.
    """
    if nu < 1:
        raise IndexError(f"coordinate index {nu} out of range")
    k, total = 1, 1
    while nu > total:
        k += 1
        total += k
    r = nu - k * (k - 1) // 2
    return k, r


def coord_entries(n: int) -> list:
    """The matrix entry (a, b), a < b, of each flattened coordinate, in
    coordinate order: the (n-1)-th superdiagonal, then the (n-2)-th, down
    to the 1st, each from its top row.  Block k of :func:`coord_block` is
    the (n-k)-th superdiagonal."""
    return [(a, a + n - k) for k in range(1, n) for a in range(k)]


def block_nonzero(mat: TriMat, a: int, b: int) -> bool:
    """Whether block (a, b) of a matrix in flattened coordinates has a
    nonzero entry.  Blocks have sizes 1, 2, 3, ... as in
    :func:`coord_block`, so block (a, b) is a x b and starts at row
    a(a-1)/2 and column b(b-1)/2."""
    r0, c0 = a * (a - 1) // 2, b * (b - 1) // 2
    return any(mat.rows[r0 + r][c0 + c] for r in range(a) for c in range(b))


def _coord_positions(n: int) -> list:
    """pos[a][b]: the coordinate of entry (a, b), a < b."""
    pos = [[0] * n for _ in range(n)]
    for i, (a, b) in enumerate(coord_entries(n)):
        pos[a][b] = i
    return pos


def coord_vector(mat: TriMat) -> tuple:
    """Strictly-upper entries flattened in :func:`coord_entries` order;
    length is n(n-1)/2."""
    if not mat.is_strict_upper():
        raise NotStrictUpper("coordinates defined for strict upper matrices")
    rows = mat.rows
    return tuple([rows[a][b] for a, b in coord_entries(mat.n)])


def matrix_from_coords(n: int, vec) -> TriMat:
    vec = tuple(vec)
    if len(vec) != coord_count(n):
        raise DimensionMismatch(
            f"expected {coord_count(n)} coordinates, got {len(vec)}"
        )
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (a, b), v in zip(coord_entries(n), vec):
        rows[a][b] = v
    return TriMat(rows)


# -- the matrix of left multiplication ----------------------------------------


def left_mult_matrix(x: TriMat) -> TriMat:
    """Matrix of y -> x.y in flattened coordinates, built column by column
    from the bilinear product applied to basis elements."""
    if not x.is_strict_upper():
        raise NotStrictUpper("left multiplication needs a strict upper matrix")
    n = x.n
    m = coord_count(n)
    one = x.ring_one()
    zero = x.ring_zero()
    cols = []
    for sigma in range(1, m + 1):
        basis = [zero] * m
        basis[sigma - 1] = one
        col = coord_vector(left_symmetric_product(x, matrix_from_coords(n, basis)))
        cols.append(col)
    return TriMat([[cols[s][r] for s in range(m)] for r in range(m)])


def left_mult_matrix_closed(x: TriMat) -> TriMat:
    """Closed-form route to the same matrix as :func:`left_mult_matrix`,
    built from its nonzero pattern.

    Indexing the coordinates by entries (:func:`coord_entries`), row
    (a, b) is nonzero only in the columns (c, b) and (a, c), a < c < b:
    there it holds x[a][c] (b - c)/(b - a) and -x[c][b] (c - a)/(b - a).
    Both are written even when x's entry is zero, so every entry keeps
    the type its formula gives it.
    """
    if not x.is_strict_upper():
        raise NotStrictUpper("left multiplication needs a strict upper matrix")
    n, xr = x.n, x.rows
    entries, pos = coord_entries(n), _coord_positions(n)
    weights = {span: [Fraction(j, span) for j in range(span)] for span in range(1, n)}
    zero = x.ring_zero()
    rows = [[zero] * len(entries) for _ in entries]
    for row, (a, b) in zip(rows, entries):
        w, xa = weights[b - a], xr[a]
        for c in range(a + 1, b):
            row[pos[c][b]] = xa[c] * w[b - c]
            row[pos[a][c]] = -(xr[c][b] * w[c - a])
    return TriMat(rows)


# -- the affine algebra and group representations ------------------------------


def affine_algebra_rep(x: TriMat) -> TriMat:
    """(m+1) x (m+1) strict upper matrix: left-multiplication block with
    the coordinate vector adjoined as the final column.

    Linear over the entries and bracket-preserving.  A matrix that is not
    strict upper raises :class:`NotStrictUpper` from
    :func:`left_mult_matrix_closed`.
    """
    lam = left_mult_matrix_closed(x)
    vec = coord_vector(x)
    m = lam.n
    zero = x.ring_zero()
    rows = [list(lam.rows[i]) + [vec[i]] for i in range(m)]
    rows.append([zero] * (m + 1))
    return TriMat(rows)


def check_supported_dimension(n: int) -> None:
    """Reject sizes outside the supported range 2 <= n <= 8 before any work."""
    if not 2 <= n <= 8:
        raise DimensionMismatch(
            f"embedding needs 2 <= n <= 8 (the supported range), got n = {n}"
        )


def check_embeddable(g: TriMat) -> None:
    """Reject a size outside 2 <= n <= 8, then a matrix that is not
    unitriangular, before any work."""
    check_supported_dimension(g.n)
    if not g.is_unitriangular():
        raise NotUnitriangular("embedding defined on unitriangular matrices")


def embed_unitriangular(g: TriMat) -> TriMat:
    """Group homomorphism from unitriangular n x n matrices into
    unitriangular (m+1) x (m+1) matrices: the exponential of the affine
    algebra representation of the logarithm, assembled in closed form
    from g and its inverse (:func:`_assembled`).  Over the rationals the
    entries are formed in integers; an ExpSum matrix is assembled in its
    own ring."""
    check_embeddable(g)
    h = g.inverse()
    if not g.expsum:
        return _rational_image(_image_numerators(g, h))
    n, m, zero = g.n, coord_count(g.n), ExpSum.zero()
    weights = {span: [Fraction(j, span) for j in range(span + 1)] for span in range(1, n)}
    rows = [
        _decoded(row, m + 1, None, None, True)
        for _, _, row in _assembled(g.rows, list(zip(*h.rows)), weights, zero)
    ]
    rows.append([zero] * m + [ExpSum.one()])
    return TriMat(rows)


def _assembled(g_rows, h_cols, weights, zero):
    """Rows of the image exp(affine_algebra_rep(log g)) above the corner,
    in closed form from the rows of g and the columns of h = g**-1.

    Write D for the grading derivation, which scales entry (a, b) by
    b - a.  The left-symmetric product is x.y = D**-1 [x, D y], the
    product built from an invertible derivation, so left multiplication
    by x = log g is D**-1 ad_x D, and its exponential D**-1 Ad_g D.  With
    H = diag(0, -1, ..., -(n-1)), ad_H = D, the translation column
    sum_k lambda(x)**k x / (k+1)! is D**-1 (H - g H g**-1).  Indexing the
    coordinates by entries (a, b), a < b, in :func:`coord_entries` order:

    * M[(a,b)][(c,d)] = g[a][c] h[d][b] (d - c) / (b - a) for
      a <= c < d <= b, and 0 elsewhere in the linear block;
    * M[(a,b)][m] = sum_{a < c <= b} (c - a) g[a][c] h[c][b] / (b - a),
      since the rows of g and the columns of h are orthogonal.

    Every entry is one product of an entry of g and one of h, or a short
    sum of them.  ``weights[b - a][j]`` stands for j / (b - a): the
    caller either passes the Fractions themselves, and gets the entries,
    or passes j and divides by b - a.  Each row (a, b) is yielded as
    (a, b, {column: entry}), zero products left out and the translation,
    at column m, counted from ``zero``."""
    n = len(g_rows)
    entries, pos = coord_entries(n), _coord_positions(n)
    m = len(entries)
    for a, b in entries:
        w, ga, hb = weights[b - a], g_rows[a], h_cols[b]
        row, t = {}, zero
        for c in range(a, b + 1):
            p = ga[c]
            if not p:
                continue
            if c > a and hb[c]:
                t = t + p * hb[c] * w[c - a]
            pc = pos[c]
            for d in range(c + 1, b + 1):
                if q := hb[d]:
                    row[pc[d]] = p * q * w[d - c]
        if t:
            row[m] = t
        yield a, b, row


def _over_lcms(vectors):
    """(lcms, ints): for each vector of Fractions, the lcm r of its
    denominators and the vector times r, as ints."""
    lcms, ints = [], []
    for vec in vectors:
        r = lcm(*(v.denominator for v in vec))
        lcms.append(r)
        ints.append([v.numerator * (r // v.denominator) for v in vec])
    return lcms, ints


def _image_numerators(g: TriMat, h: TriMat) -> list:
    """Rows of the image of a rational g above the corner, h = g**-1, as
    (den, {column: s}) with entry s / den: :func:`_assembled` on g's rows
    over their row lcms r_a and h's columns over their column lcms k_b,
    so row (a, b) shares den = r_a k_b (b - a) and each entry needs one
    gcd, whatever the denominators."""
    row_lcms, g_rows = _over_lcms(g.rows)
    col_lcms, h_cols = _over_lcms(zip(*h.rows))
    weights = {span: range(span + 1) for span in range(1, g.n)}
    return [
        (row_lcms[a] * col_lcms[b] * (b - a), row)
        for a, b, row in _assembled(g_rows, h_cols, weights, 0)
    ]


def _rational_image(image: list) -> TriMat:
    """The image whose rows above the corner :func:`_image_numerators`
    gave, each entry built with one gcd, and the corner row."""
    m = len(image)
    rows = [_decoded(row, m + 1, den, None, False) for den, row in image]
    rows.append([_FZERO] * m + [Fraction(1)])
    return TriMat(rows)


@dataclass(frozen=True)
class AffineRep:
    """Image of a unitriangular matrix under the embedding, with shape data."""

    n: int
    m: int
    matrix: TriMat

    def __post_init__(self):
        if self.m != coord_count(self.n):
            raise DimensionMismatch("m must equal n(n-1)/2")
        if self.matrix.n != self.m + 1:
            raise DimensionMismatch("matrix must have dimension m+1")
        if not self.matrix.is_unitriangular():
            raise NotUnitriangular("affine representation must be unitriangular")

    @classmethod
    def of(cls, g: TriMat) -> "AffineRep":
        return cls(g.n, coord_count(g.n), embed_unitriangular(g))


# -- essential hyperbolicity ---------------------------------------------------


def is_essentially_hyperbolic(mat: TriMat) -> bool:
    """Row-by-row dominance test for an affine matrix (corner entry 1).

    For every row i above the corner: if the diagonal entry differs
    from 1 or some entry strictly between the diagonal and the final
    column is nonzero, then the final column must be nonzero in some row
    strictly below i (and above the corner).  Under the convention that
    larger row index means more significant coordinate, this says the
    translation part dominates everything the linear part can move.
    The rows are read once, from the bottom, carrying whether a final
    column entry below the current row is nonzero.
    """
    N = mat.n
    if not mat.is_upper_triangular() or mat.rows[N - 1][N - 1] != 1:
        raise NotAffineForm("expected upper triangular with corner entry 1")
    if mat.is_identity():
        raise IdentityInput("essential hyperbolicity is undefined for the identity")
    below = False
    for i in range(N - 2, -1, -1):
        row = mat.rows[i]
        if not below and (row[i] != 1 or any(row[i + 1 : N - 1])):
            return False
        below = below or bool(row[N - 1])
    return True


@dataclass(frozen=True)
class AdmissibleReport:
    """Certificate that a strict upper matrix embeds essentially hyperbolically."""

    i0: int
    blocks_checked: int
    blocks_clean: bool
    hyperbolic: bool

    @property
    def ok(self) -> bool:
        return self.blocks_clean and self.hyperbolic

    def to_json(self):
        return asdict(self)


def certify_admissible(x: TriMat) -> AdmissibleReport:
    """For nonzero strict upper x with lowest nonzero superdiagonal i0,
    verify that every block of the left-multiplication matrix strictly
    below the i0-th block superdiagonal vanishes, and that the embedded
    exponential passes :func:`is_essentially_hyperbolic`.  The matrix is
    :func:`left_mult_matrix_closed`, read as the linear block of
    :func:`affine_algebra_rep`; the ``verify`` embedding suite checks it
    against the bilinear :func:`left_mult_matrix`.  The embedded image of
    exp(x) is exp(affine_algebra_rep(x)), since log(exp(x)) = x.  A size
    outside 2 <= n <= 8 is rejected before that representation is built."""
    if not x.is_strict_upper():
        raise NotStrictUpper("certification needs a strict upper matrix")
    i0 = lowest_superdiag(x)  # raises ZeroInput on the zero matrix
    n = x.n
    check_supported_dimension(n)
    rep = affine_algebra_rep(x)
    blocks_checked = 0
    clean = True
    for a in range(1, n):  # block row, sizes 1..n-1
        for b in range(1, n):
            if b - a >= i0:
                continue
            blocks_checked += 1
            if block_nonzero(rep, a, b):
                clean = False
    hyperbolic = is_essentially_hyperbolic(nilpotent_exp(rep))
    return AdmissibleReport(i0, blocks_checked, clean, hyperbolic)


# -- clearing denominators -----------------------------------------------------


def integerize(gens: list[TriMat]) -> tuple[TriMat, list[TriMat]]:
    """Diagonal conjugator clearing all denominators of a finite,
    inverse-closed set of rational unitriangular matrices.

    Row by row, d_i is the lcm of the denominators appearing in row i of
    any generator; the conjugator is the diagonal matrix whose i-th entry
    is the product s_i = d_i * d_{i+1} * ... * d_n.  Conjugation scales
    entry (i, j) by s_i / s_j, a positive integer for j >= i, so zero
    patterns, unit diagonals and essential hyperbolicity are all
    preserved.
    """
    scale = _checked_clearing_scales(gens)
    return TriMat.diagonal(scale), [_scaled_conjugate(g, scale) for g in gens]


def _checked_clearing_scales(gens: list[TriMat]) -> list[int]:
    """:func:`_clearing_scales` of gens, after the checks of
    :func:`integerize`: the diagonal of its conjugator."""
    if not gens:
        raise ValueError("empty generating set")
    n = gens[0].n
    for g in gens:
        if g.n != n:
            raise DimensionMismatch("generators must share one dimension")
        if not g.is_unitriangular():
            raise NotUnitriangular("generators must be unitriangular")
        if g.expsum:
            raise TypeError("integerization needs rational generators")
    # a generator paired with an earlier one is that one's inverse, so its
    # own inverse is already known to be present
    paired = set()
    for i, g in enumerate(gens):
        if i in paired:
            continue
        try:
            paired.add(gens.index(g.inverse()))
        except ValueError:
            raise NotInverseClosed(f"missing inverse of {g!r}") from None
    return _clearing_scales(gens)


def _clearing_scales(gens: list[TriMat]) -> list[int]:
    """The diagonal s_1, ..., s_n of the conjugator of :func:`integerize`,
    for generators already known to satisfy its preconditions: the
    suffix products (:func:`_suffix_products`) of the row lcms d_i of
    the denominators in row i of every generator.  Being unitriangular,
    the generators can have denominators only above the diagonal.
    :func:`_embed_with_clearing_scales` reads the same d_i for an image
    and its inverse off their numerators, without building the inverse."""
    n = gens[0].n
    return _suffix_products(
        [
            lcm(*(g.rows[i][j].denominator for g in gens for j in range(i + 1, n)), 1)
            for i in range(n)
        ]
    )


def _suffix_products(row_lcms: list[int]) -> list[int]:
    """s_i = d_i * d_{i+1} * ... * d_n for the row lcms d_i."""
    scale = list(row_lcms)
    for i in range(len(scale) - 2, -1, -1):
        scale[i] *= scale[i + 1]
    return scale


def _embed_with_clearing_scales(g: TriMat) -> tuple[AffineRep, list[int]]:
    """(AffineRep.of(g), _clearing_scales([image, image**-1])) for a
    rational g that :func:`check_embeddable` accepts, which is not
    checked again here.  The image of g**-1 is the image's inverse, so
    both come from :func:`_image_numerators`, with g and g**-1 swapped,
    and row i's lcm is den // gcd(den, *s) over the numerators s of row i
    of both; the second image is never decoded."""
    h = g.inverse()
    image = _image_numerators(g, h)
    row_lcms = [
        lcm(den // gcd(den, *row.values()), iden // gcd(iden, *irow.values()))
        for (den, row), (iden, irow) in zip(image, _image_numerators(h, g))
    ]
    return AffineRep(g.n, len(image), _rational_image(image)), _suffix_products(row_lcms + [1])


def _scaled_conjugate(g: TriMat, scale: list[int]) -> TriMat:
    """diag(scale) * g * diag(scale)**-1 for scales made by :func:`_clearing_scales`
    from a set holding g: above the diagonal, entry (i, j) times s_i / s_j is
    an integer.  The diagonal and the zeros below it are copied."""
    rows = [list(row) for row in g.rows]
    for i, row in enumerate(rows):
        for j in range(i + 1, len(row)):
            if v := row[j]:
                row[j] = _fraction(v.numerator * (scale[i] // scale[j]) // v.denominator, 1)
    return TriMat(rows)
