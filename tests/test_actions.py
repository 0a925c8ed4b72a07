from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinetrees import trimat
from affinetrees.actions import (
    MatrixAffineAut,
    ProductAut,
    check_affine_law,
    check_free_and_rigid,
    from_affine_matrix,
)
from affinetrees.embedding import embed_unitriangular
from affinetrees.errors import IdentityInput, IndexSpaceMismatch, NotAffineForm
from affinetrees.ordered import LexFamily, LexVec, Product, Scalars, lex_compare, lex_distance
from affinetrees.sampling import (
    rand_fraction,
    rand_nontrivial_unitriangular,
    rand_unitriangular,
    trial_rng,
)
from affinetrees.scalars import ExpSum
from affinetrees.trimat import MAX_COMMON_DENOMINATOR_BITS, TriMat, _columns, _encode


def affine(dilation, translation):
    """The affine matrix [[A, t], [0, 1]] of the rows of A and the
    column t."""
    n = len(translation)
    return TriMat([list(row) + [t] for row, t in zip(dilation, translation)] + [[0] * n + [1]])


def translation_matrix(*column):
    n = len(column)
    return affine(TriMat.identity(n).rows, [Fraction(v) for v in column])


def test_identity_aut():
    aut = from_affine_matrix(TriMat.identity(4))
    assert aut.is_identity()
    p = LexVec(aut.space, (1, 2, 3))
    assert aut.act(p) == p


def test_affine_form_validation():
    with pytest.raises(NotAffineForm):
        from_affine_matrix(TriMat([[1, 0], [1, 1]]))  # lower entry
    with pytest.raises(NotAffineForm):
        from_affine_matrix(TriMat([[1, 0], [0, 2]]))  # corner not 1
    with pytest.raises(NotAffineForm):
        from_affine_matrix(TriMat([[-1, 0], [0, 1]]))  # negative diagonal


@pytest.mark.parametrize(
    "rows",
    [[[0, 1], [1, 0]], [[-1, 0], [0, 1]], [[1, 1], [0, 0]], [[1, 0], [1, 1]]],
    ids=["swap", "negative-diagonal", "zero-diagonal", "lower-entry"],
)
def test_constructor_accepts_only_order_preserving_dilations(rows):
    space = Product(Scalars("Q"), Scalars("Q"))
    with pytest.raises(NotAffineForm):
        MatrixAffineAut(affine(rows, (0, 1)), space)


def test_translation_action():
    aut = from_affine_matrix(translation_matrix(5, 7))
    p = LexVec(aut.space, (Fraction(1), Fraction(2)))
    # matrix rows (5, 7) land on coordinates in significance order (7, 5)
    assert aut.act(p) == LexVec(aut.space, (Fraction(8), Fraction(7)))


def test_roundtrip_to_affine_matrix():
    for t in range(30):
        rng = trial_rng(0, "roundtrip", t)
        mat = rand_unitriangular(rng, rng.randint(2, 6))
        aut = from_affine_matrix(mat)
        assert aut.matrix == mat


def test_composition_matches_matrix_product():
    for t in range(40):
        rng = trial_rng(1, "compose", t)
        n = rng.randint(2, 6)
        a, b = rand_unitriangular(rng, n), rand_unitriangular(rng, n)
        ga, gb = from_affine_matrix(a), from_affine_matrix(b)
        assert ga.compose(gb).matrix == a * b
        p = LexVec(ga.space, ga.space.sample(rng))
        assert ga.compose(gb).act(p) == ga.act(gb.act(p))
        assert ga.invert().matrix == a.inverse()
        assert ga.invert().act(ga.act(p)) == p


def test_translation_embedded_image():
    rng = trial_rng(2, "image")
    g = rand_unitriangular(rng, 4)
    aut = from_affine_matrix(embed_unitriangular(g))
    image = embed_unitriangular(g)
    # translation column read off the final matrix column
    assert aut.translation == tuple(image.rows[i][6] for i in range(6))


def test_order_preserved():
    for t in range(60):
        rng = trial_rng(3, "order", t)
        n = rng.randint(2, 5)
        aut = from_affine_matrix(rand_unitriangular(rng, n))
        p = LexVec(aut.space, aut.space.sample(rng))
        q = LexVec(aut.space, aut.space.sample(rng))
        if p < q:
            assert aut.act(p) < aut.act(q)
        elif q < p:
            assert aut.act(q) < aut.act(p)


def test_affine_law_isometry():
    aut = from_affine_matrix(translation_matrix(1, -2, 3))
    report = check_affine_law(aut, 50, seed=4)
    assert report["failures"] == 0


def test_affine_law_on_images():
    rng = trial_rng(5, "law")
    aut = from_affine_matrix(embed_unitriangular(rand_unitriangular(rng, 4)))
    report = check_affine_law(aut, 50, seed=6)
    assert report["failures"] == 0


def test_affine_law_negative_control():
    good = from_affine_matrix(embed_unitriangular(
        TriMat([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    ))
    corrupted = MatrixAffineAut(
        affine(TriMat.identity(good.dim).rows, good.translation), good.space
    )
    # identity dilation with the real translation: act uses dilation, so
    # the metric law must fail somewhere
    hybrid = MatrixAffineAut(good.matrix, good.space)
    report_good = check_affine_law(hybrid, 50, seed=7)
    assert report_good["failures"] == 0

    class Corrupted:
        space = good.space

        def act(self, p):
            return good.act(p)

        def dilate(self, d):
            return corrupted.dilate(d)

        def is_identity(self):
            return False

    report_bad = check_affine_law(Corrupted(), 50, seed=8)
    assert report_bad["failures"] > 0
    assert report_bad["witness"] is not None


def test_free_and_rigid_translation():
    aut = from_affine_matrix(translation_matrix(0, 4))
    report = check_free_and_rigid(aut, 40, seed=9)
    assert report["certified"] is True
    assert report["free_on_samples"] and report["sign_constant"]
    assert report["consistent"]


def test_not_free_dilation_fixes_origin():
    mat = TriMat([[1, 0, 0], [0, 2, 0], [0, 0, 1]])
    aut = from_affine_matrix(mat)
    assert not aut.is_identity()
    report = check_free_and_rigid(aut, 20, seed=10)
    assert report["certified"] is False
    origin = LexVec.zero(aut.space)
    assert aut.act(origin) == origin


def test_free_and_rigid_identity_rejected():
    with pytest.raises(IdentityInput):
        check_free_and_rigid(from_affine_matrix(TriMat.identity(3)), 5, seed=0)


def test_free_and_rigid_on_images():
    for t in range(20):
        rng = trial_rng(11, "free", t)
        n = rng.randint(2, 5)
        g = rand_nontrivial_unitriangular(rng, n)
        aut = from_affine_matrix(embed_unitriangular(g))
        report = check_free_and_rigid(aut, 20, seed=t)
        assert report["certified"] is True
        assert report["consistent"]


def test_product_action_identity_and_translations():
    t1 = from_affine_matrix(translation_matrix(1))
    t2 = from_affine_matrix(translation_matrix(2, 3))
    prod = ProductAut([t1, t2])
    p = LexVec(prod.space, ((Fraction(5),), (Fraction(0), Fraction(0))))
    moved = prod.act(p)
    assert moved.value[0] == (Fraction(6),)
    assert moved.value[1] == (Fraction(3), Fraction(2))
    ident = ProductAut([from_affine_matrix(TriMat.identity(2))])
    q = LexVec(ident.space, ((Fraction(9),),))
    assert ident.act(q) == q
    assert ident.is_identity()


def test_product_action_affine_law_mixed():
    rng = trial_rng(12, "product")
    g1 = from_affine_matrix(embed_unitriangular(rand_unitriangular(rng, 3)))
    g2 = from_affine_matrix(embed_unitriangular(rand_unitriangular(rng, 4)))
    prod = ProductAut([g1, g2])
    report = check_affine_law(prod, 40, seed=13)
    assert report["failures"] == 0


def test_product_action_functorial():
    rng = trial_rng(14, "functorial")
    a1, b1 = (from_affine_matrix(rand_unitriangular(rng, 3)) for _ in range(2))
    a2, b2 = (from_affine_matrix(rand_unitriangular(rng, 2)) for _ in range(2))
    left = ProductAut([a1, a2]).compose(ProductAut([b1, b2]))
    right = ProductAut([a1.compose(b1), a2.compose(b2)])
    p = LexVec(left.space, left.space.sample(rng))
    assert left.act(p) == right.act(p)


def test_space_mismatch_rejected():
    aut = from_affine_matrix(TriMat.identity(3))
    other = from_affine_matrix(TriMat.identity(4))
    with pytest.raises(IndexSpaceMismatch):
        aut.act(LexVec(other.space, (0, 0, 0)))


def test_is_identity_over_expsum():
    one, zero = ExpSum.one(), ExpSum.zero()
    assert from_affine_matrix(TriMat.identity(3, one)).is_identity()
    moved = TriMat([[one, zero, zero], [zero, one, ExpSum.exponential(1)], [zero, zero, one]])
    assert not from_affine_matrix(moved).is_identity()
    stretched = TriMat([[one, zero, zero], [zero, ExpSum.exponential(1), zero], [zero, zero, one]])
    assert not from_affine_matrix(stretched).is_identity()


def test_point_ring_checked_at_construction():
    with pytest.raises(IndexSpaceMismatch):
        MatrixAffineAut(TriMat.identity(3), Product(Scalars("Z"), Scalars("Z")))
    with pytest.raises(IndexSpaceMismatch):
        MatrixAffineAut(TriMat.identity(3), Product(Scalars("Q"), Scalars("R")))
    with pytest.raises(IndexSpaceMismatch):
        MatrixAffineAut(TriMat.identity(2, ExpSum.one()), Product(Scalars("Q")))


@pytest.mark.parametrize(
    "space", [Scalars("Q"), LexFamily(Scalars("Z"), Scalars("Q"))], ids=["scalars", "family"]
)
def test_constructor_rejects_a_space_that_is_not_a_product(space):
    with pytest.raises(IndexSpaceMismatch, match="a power of Q or R"):
        MatrixAffineAut(TriMat.identity(2), space)


def validated(aut):
    return MatrixAffineAut(aut.matrix, aut.space)


@pytest.mark.parametrize("ring", ["Q", "R", "R-rational-dilation"])
def test_compose_and_invert_results_pass_validation(ring):
    # compose and invert skip the constructor's checks; their results
    # must be what the validating constructor would have built
    e = ExpSum.exponential
    for t in range(10):
        rng = trial_rng(15, "trusted-aut", ring, t)
        n = rng.randint(2, 5)
        mats = []
        for _ in range(2):
            u = rand_unitriangular(rng, n).rows
            rows = [list(row) for row in u]
            for i in range(n - 1):
                rows[i][n - 1] = rand_fraction(rng)
            if ring == "R":
                for i in range(n - 1):
                    rows[i][i] = e(rand_fraction(rng, 3, 3))
                    rows[i][n - 1] = rows[i][n - 1] + e(rand_fraction(rng, 2, 2))
            elif ring == "R-rational-dilation":
                for i in range(n - 1):
                    rows[i][n - 1] = e(rand_fraction(rng, 2, 2), rows[i][n - 1] or 1)
            mats.append(from_affine_matrix(TriMat(rows)))
        a, b = mats
        for aut in (a, a.compose(b), b.compose(a), a.invert(), a.compose(b).invert()):
            assert repr(aut) == repr(validated(aut))
            assert aut == validated(aut)
            assert type(aut.translation) is tuple
            kind = aut.space.factors[0].kind
            entries = {type(v) for row in aut.matrix.rows for v in row}
            assert entries == {ExpSum if kind == "R" else Fraction}
        assert a.compose(a.invert()).is_identity()


# -- the integer kernel against the ring-summing oracle ------------------------

PAST = 2**MAX_COMMON_DENOMINATOR_BITS + 1
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
positive = st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6)
#: Rationals whose denominator alone is past the cutoff.
past_rationals = st.builds(lambda p: Fraction(p, PAST), st.integers(1, 9))
#: Exponents with denominators 1, 2, 3 and 5, so the dilation's and the
#: point's exponent lcms often differ.
exponents = st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)])


def sums_of(coefficients):
    """Sums of up to three terms c * e**q."""
    return st.lists(st.tuples(exponents, coefficients), max_size=3).map(ExpSum)


def monomials_of(coefficients):
    return st.builds(ExpSum.exponential, exponents, coefficients)


sums = sums_of(rationals)
constants = st.builds(ExpSum.constant, rationals)
#: kind -> (ring, diagonal, off-diagonal, translation, coordinate)
KERNEL_KINDS = {
    "Q": ("Q", positive, rationals, rationals, rationals),
    "R": ("R", monomials_of(positive), sums, sums, sums),
    "R-rational-dilation": ("R", positive, rationals, st.one_of(rationals, sums), sums),
    "R-constant": ("R", st.builds(ExpSum.constant, positive), constants, constants, constants),
    "Q-unit": ("Q", st.just(Fraction(1)), rationals, rationals, rationals),
    "Q-past-cutoff": ("Q", past_rationals, rationals, rationals, rationals),
    "R-past-cutoff": ("R", monomials_of(past_rationals), sums, sums, sums),
    "R-point-past-cutoff": ("R", monomials_of(positive), sums, sums, sums_of(past_rationals)),
}


@st.composite
def kernel_cases(draw, kind):
    """(a, b, p): two automorphisms of one space of dimension 1..5 and a
    point of it, each entry zero about a third of the time."""
    ring, diagonal, entries, translations, coords = KERNEL_KINDS[kind]
    n = draw(st.integers(1, 5))
    zero = Scalars(ring).zero()
    space = Product(*[Scalars(ring)] * n)

    def entry(values):
        return draw(st.one_of(st.just(zero), values, values))

    auts = []
    for _ in range(2):
        rows = [
            [draw(diagonal) if j == i else entry(entries) if j > i else zero for j in range(n)]
            for i in range(n)
        ]
        auts.append(MatrixAffineAut(affine(rows, [entry(translations) for _ in range(n)]), space))
    p = LexVec(space, tuple(entry(coords) for _ in range(n)))
    return auts[0], auts[1], p


def assert_same_terms(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert repr(g) == repr(w)
        if isinstance(w, ExpSum):
            assert (g._den, g._num) == (w._den, w._num)


def oracle(aut, xs, translate):
    """dilation * xs (+ translation), in matrix coordinate order, summed
    term by term in the ring of the entries, zero terms skipped."""
    out = []
    offsets = aut.translation if translate else (aut.space.factors[0].zero(),) * aut.dim
    for row, acc in zip(aut.matrix.rows, offsets):
        for a, x in zip(row, xs):
            if a and x:
                acc = acc + a * x
        out.append(acc)
    return out


def dense_product(a: TriMat, b: TriMat) -> list:
    """a * b by the triple loop, in the ring of the product."""
    expsum = a.expsum or b.expsum
    zero = ExpSum.zero() if expsum else Fraction(0)
    out = []
    for i in range(a.n):
        row = []
        for j in range(a.n):
            v = zero
            for k in range(a.n):
                if a.rows[i][k] and b.rows[k][j]:
                    v = v + a.rows[i][k] * b.rows[k][j]
            row.append(ExpSum.constant(v) if expsum and type(v) is Fraction else v)
        out.append(row)
    return out


def back_substituted(mat: TriMat) -> list:
    """The inverse of an upper triangular matrix, solved from the bottom
    row up: row i is (e_i - sum_{k > i} a_ik * row k) / a_ii."""
    n, rows = mat.n, mat.rows
    one = mat.ring_one()
    zero = one - one
    out = [None] * n
    for i in range(n - 1, -1, -1):
        row = []
        for j in range(n):
            v = one if i == j else zero
            for k in range(i + 1, n):
                v = v - rows[i][k] * out[k][j]
            row.append(v / rows[i][i])
        out[i] = row
    return out


@pytest.mark.parametrize("kind", sorted(KERNEL_KINDS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_integer_kernel_matches_ring_sums(kind, data):
    a, b, p = data.draw(kernel_cases(kind))
    calls, decoded = [], trimat._decoded

    def counted(row, n, den, el, expsum):
        # a ring-mode decode (den None) ends each past-cutoff fallback
        if den is None:
            calls.append(row)
        return decoded(row, n, den, el, expsum)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trimat, "_decoded", counted)
        moved, stretched = a.act(p), a.dilate(p)
    # a past-cutoff point takes the fallback unless it is zero
    expect_fallback = kind.endswith("past-cutoff") and (
        kind != "R-point-past-cutoff" or any(p.value)
    )
    assert len(calls) == (2 if expect_fallback else 0)
    if kind.startswith("Q"):
        # a rational matrix's stored encoding is _encode of its columns
        assert a.matrix._enc == _encode(_columns(a.matrix), False)
    composed, inverted = a.compose(b), a.invert()
    want = tuple(reversed(oracle(a, p.value[::-1], True)))
    assert_same_terms(moved.value, want)
    want = tuple(reversed(oracle(a, p.value[::-1], False)))
    assert_same_terms(stretched.value, want)
    for got, want in zip(composed.matrix.rows, dense_product(a.matrix, b.matrix)):
        assert_same_terms(got, want)
    for got, want in zip(inverted.matrix.rows, back_substituted(a.matrix)):
        assert_same_terms(got, want)
    # a rational product within the cutoff keeps the encoding of its
    # integer product, which is _encode of its matrix's columns; a
    # ring-mode product, past the cutoff or exact-real, stores none, and
    # an inverse's series stores none for any kind
    stored = composed.matrix._enc
    if kind in ("Q", "Q-unit"):
        assert stored == _encode(_columns(composed.matrix), False)
    else:
        assert stored is None
    assert inverted.matrix._enc is None


@pytest.mark.parametrize("kind", ["R", "R-rational-dilation"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_rows_rescaled_for_the_last_exponent_lcm_are_kept(kind, data):
    """Points whose exponent lcms differ, in an order that comes back to
    earlier ones, all match the oracle, and the map's encoded columns are
    rescaled once per growth of the lcm L they are stored at, not once
    per act: L only grows, to the lcm of itself and a point's."""
    a, _, p = data.draw(kernel_cases(kind))
    coords = KERNEL_KINDS[kind][4]
    points = [p] + [
        LexVec(a.space, tuple(data.draw(coords) for _ in range(a.dim))) for _ in range(2)
    ]
    order = [points[data.draw(st.integers(0, 2))] for _ in range(6)]
    a.act(p)  # stores the encoding, at an L that p's exponents divide
    cols, da, ela = a.matrix._enc
    # one column per column of the affine matrix, at first exactly the
    # encoding of the matrix's columns or, if p's L did not divide the
    # matrix's, that encoding rescaled to the lcm of both
    assert len(cols) == a.dim + 1
    fresh = _encode(_columns(a.matrix), True)
    assert da == fresh[1]
    if ela == fresh[2]:
        assert cols == fresh[0]
    else:
        f = ela // fresh[2] if fresh[2] else 0
        assert cols == [trimat._rescaled(c, f) for c in fresh[0]]
    rescaled, rescales = trimat._rescaled, []

    def counted(row, f):
        rescales.append(any(row is c for c in a.matrix._enc[0]))
        return rescaled(row, f)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trimat, "_rescaled", counted)
        for q in order:
            moved, stretched = a.act(q), a.dilate(q)
            assert_same_terms(moved.value, tuple(reversed(oracle(a, q.value[::-1], True))))
            assert_same_terms(stretched.value, tuple(reversed(oracle(a, q.value[::-1], False))))

    # the stored L replayed from the one p's act left: it grows only when
    # a point's exponent lcm does not divide it
    expected, last = 0, ela
    for q in order:
        elx = _encode([{j: x for j, x in enumerate(q.value) if x}], True)[2]
        if elx is not None and (last is None or last % elx):
            expected, last = expected + len(cols), lcm(last or 1, elx)
    assert rescales.count(True) == expected
    # the stored columns are those at the last L, each rescaled from its own
    kept = [rescaled(c, last // ela if ela else 0) for c in cols] if last != ela else cols
    assert a.matrix._enc == (kept, da, last)


def test_equality_hash_and_repr_ignore_the_stored_encoding():
    rng = trial_rng(16, "stored-encoding")
    g = rand_unitriangular(rng, 4)
    aut = from_affine_matrix(embed_unitriangular(g))
    twin = from_affine_matrix(embed_unitriangular(g))
    before = (repr(aut), hash(aut), repr(aut.matrix), hash(aut.matrix))
    p = LexVec(aut.space, aut.space.sample(rng))
    moved = aut.act(p)
    assert aut.matrix._enc is not None and twin.matrix._enc is None
    assert (repr(aut), hash(aut), repr(aut.matrix), hash(aut.matrix)) == before
    assert aut == twin and twin == aut
    assert aut.matrix == twin.matrix and twin.matrix == aut.matrix
    assert aut.act(p) == moved == twin.act(p)
    # a product stores its encoding; the same rows built afresh store none
    square = aut.compose(aut).matrix
    rebuilt = TriMat(square.rows)
    assert square._enc is not None and rebuilt._enc is None
    assert square == rebuilt and hash(square) == hash(rebuilt)
    assert repr(square) == repr(rebuilt)
