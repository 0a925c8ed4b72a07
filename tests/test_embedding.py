import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinetrees import embedding, trimat
from affinetrees.embedding import (
    AffineRep,
    _clearing_scales,
    _embed_with_clearing_scales,
    _scaled_conjugate,
    affine_algebra_rep,
    certify_admissible,
    coord_block,
    coord_count,
    coord_entries,
    coord_vector,
    embed_unitriangular,
    integerize,
    is_essentially_hyperbolic,
    left_mult_matrix,
    left_mult_matrix_closed,
    left_symmetric_product,
    matrix_from_coords,
)
from affinetrees.errors import (
    DimensionMismatch,
    IdentityInput,
    NotAffineForm,
    NotInverseClosed,
    NotStrictUpper,
    NotUnitriangular,
    ZeroInput,
)
from affinetrees.harness import _product_graded, superdiag_part
from affinetrees.jsonio import image_and_conjugate_to_json, mat_to_json
from affinetrees.sampling import (
    rand_exponents,
    rand_fraction,
    rand_nontrivial_unitriangular,
    rand_strict_upper,
    rand_unitriangular,
    trial_rng,
)
from affinetrees.scalars import ExpSum
from affinetrees.triangular import TriangularElement, conjugate_by_diagonal
from affinetrees.trimat import (
    MAX_COMMON_DENOMINATOR_BITS,
    TriMat,
    _decoded,
    nilpotent_exp,
    unipotent_log,
)
from test_cli import coprime_60_digit_matrix, golden_tstar_4


def elementary(n, i, j, value=1):
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[i - 1][j - 1] = Fraction(value)
    return TriMat(rows)


def generic4(rng):
    return rand_strict_upper(rng, 4)


# -- the left-symmetric product ------------------------------------------------------


def test_product_elementary_three():
    # hand evaluation of the weighted bracket with both factors on the
    # first superdiagonal: weight 1/2, bracket E12.E23 = E13
    lhs = left_symmetric_product(elementary(3, 1, 2), elementary(3, 2, 3))
    assert lhs == elementary(3, 1, 3, Fraction(1, 2))
    rhs = left_symmetric_product(elementary(3, 2, 3), elementary(3, 1, 2))
    assert rhs == elementary(3, 1, 3, Fraction(-1, 2))


def test_product_generic_four_entries():
    rng = trial_rng(2, "generic4")
    x, y = generic4(rng), generic4(rng)
    x12, x13, x14 = x.rows[0][1], x.rows[0][2], x.rows[0][3]
    x23, x24, x34 = x.rows[1][2], x.rows[1][3], x.rows[2][3]
    y12, y13, y14 = y.rows[0][1], y.rows[0][2], y.rows[0][3]
    y23, y24, y34 = y.rows[1][2], y.rows[1][3], y.rows[2][3]
    prod = left_symmetric_product(x, y)
    assert prod.rows[0][2] == (x12 * y23 - y12 * x23) / 2
    assert prod.rows[1][3] == (x23 * y34 - y23 * x34) / 2
    assert prod.rows[0][3] == Fraction(2, 3) * (x12 * y24 - y13 * x34) + Fraction(
        1, 3
    ) * (x13 * y34 - y12 * x24)
    assert prod.rows[0][1] == 0 and prod.rows[1][2] == 0 and prod.rows[2][3] == 0


def test_product_antisymmetrizes_to_commutator():
    for t in range(100):
        rng = trial_rng(3, "commutator", t)
        n = rng.randint(2, 6)
        x, y = rand_strict_upper(rng, n), rand_strict_upper(rng, n)
        lhs = left_symmetric_product(x, y) - left_symmetric_product(y, x)
        assert lhs == x * y - y * x


def test_left_symmetry_axiom():
    for t in range(60):
        rng = trial_rng(4, "axiom", t)
        n = rng.randint(2, 5)
        x, y, z = (rand_strict_upper(rng, n) for _ in range(3))
        p = left_symmetric_product
        assert p(p(x, y), z) - p(x, p(y, z)) == p(p(y, x), z) - p(y, p(x, z))


def entry_types(mat):
    return [list(map(type, row)) for row in mat.rows]


@pytest.mark.parametrize("n", range(2, 9))
def test_product_matches_graded_oracle_over_both_rings(n):
    # the verify suites draw rational operands only
    for t in range(3):
        rng = trial_rng(6, "graded-oracle", n, t)
        x, y = rand_strict_upper(rng, n), rand_strict_upper(rng, n)
        exponents = rand_exponents(rng, n)
        cx, cy = conjugate_by_diagonal(exponents, x), conjugate_by_diagonal(exponents, y)
        for a, b in [
            (x.to_expsum(), y.to_expsum()),
            (cx, cy),
            (x, y.to_expsum()),
            (cx, y),
            # entries past the second superdiagonal have no nonzero term
            (superdiag_part(x, 1), superdiag_part(y, 1).to_expsum()),
        ]:
            got, want = left_symmetric_product(a, b), _product_graded(a, b)
            assert got == want and repr(got) == repr(want)
            assert entry_types(got) == entry_types(want)
            assert got.expsum


# -- flattened coordinates -----------------------------------------------------------


def test_coord_vector_order():
    rng = trial_rng(5, "coords")
    y = generic4(rng)
    assert coord_vector(y) == (
        y.rows[0][3],
        y.rows[0][2],
        y.rows[1][3],
        y.rows[0][1],
        y.rows[1][2],
        y.rows[2][3],
    )


def test_coord_zero_maps_to_zero():
    assert coord_vector(TriMat.zeros(4)) == (Fraction(0),) * 6
    assert matrix_from_coords(4, [0] * 6) == TriMat.zeros(4)


def test_coord_roundtrip():
    for t in range(100):
        rng = trial_rng(6, "coord-roundtrip", t)
        n = rng.randint(2, 6)
        x = rand_strict_upper(rng, n)
        assert matrix_from_coords(n, coord_vector(x)) == x


def test_coord_block_indexing():
    assert [coord_block(nu) for nu in range(1, 7)] == [
        (1, 1),
        (2, 1),
        (2, 2),
        (3, 1),
        (3, 2),
        (3, 3),
    ]


# -- the left-multiplication matrix ----------------------------------------------------


def left_mult_entry(x: TriMat, rho: int, sigma: int):
    """Per-entry closed form of the (rho, sigma) entry of the
    left-multiplication matrix (1-based coordinate indices): the oracle for
    :func:`left_mult_matrix_closed`."""
    n = x.n
    m = coord_count(n)
    if not (1 <= rho <= m) or not (1 <= sigma <= m):
        raise IndexError(f"coordinate index out of range for m={m}")
    k_r, r_r = coord_block(rho)
    k_s, r_s = coord_block(sigma)
    if k_r < k_s and r_r < r_s and r_s - r_r == k_s - k_r:
        return x.rows[r_r - 1][r_r + (k_s - k_r) - 1] * Fraction(n - k_s, n - k_r)
    if k_r < k_s and r_r == r_s:
        return -(
            x.rows[n - k_s + r_r - 1][n - k_r + r_r - 1] * Fraction(n - k_s, n - k_r)
        )
    return x.ring_zero()


def left_mult_oracle(x: TriMat) -> TriMat:
    m = coord_count(x.n)
    return TriMat(
        [[left_mult_entry(x, r, s) for s in range(1, m + 1)] for r in range(1, m + 1)]
    )


def assert_same(new, ref):
    assert new == ref
    assert repr(new) == repr(ref)
    assert [type(v) for row in new.rows for v in row] == [
        type(v) for row in ref.rows for v in row
    ]


def ring_variants(x, rng):
    """x over Fractions, over ExpSum, and with a random half of its entries
    (zeros included) moved into the ExpSum ring."""
    yield x
    yield x.to_expsum()
    yield TriMat(
        [
            [ExpSum.exponential(rng.choice([0, 1, Fraction(-1, 2)]), v)
             if rng.random() < 0.5 else v for v in row]
            for row in x.rows
        ]
    )


def test_left_mult_closed_matches_oracle_and_bilinear_route():
    for n in range(2, 9):
        rng = trial_rng(30, "lm-structural", n)
        x = rand_strict_upper(rng, n)
        # a sparse x: zero source entries must keep their formula's type
        sparse = TriMat(
            [[v if rng.random() < 0.3 else Fraction(0) for v in row] for row in x.rows]
        )
        for base in (x, sparse, TriMat.zeros(n)):
            for y in ring_variants(base, rng):
                closed = left_mult_matrix_closed(y)
                assert_same(closed, left_mult_oracle(y))
                assert closed == left_mult_matrix(y)


def count_builds(monkeypatch):
    built = []
    init = TriMat.__init__

    def counting(self, rows):
        built.append(1)
        init(self, rows)

    monkeypatch.setattr(TriMat, "__init__", counting)
    return built


def test_left_mult_closed_builds_one_matrix(monkeypatch):
    x = rand_strict_upper(trial_rng(31, "lm-builds"), 8)
    built = count_builds(monkeypatch)
    left_mult_matrix_closed(x)
    assert len(built) == 1


def test_left_mult_golden_entries():
    rng = trial_rng(7, "lm-golden")
    x = generic4(rng)
    x12, x13, x24 = x.rows[0][1], x.rows[0][2], x.rows[1][3]
    x23, x34 = x.rows[1][2], x.rows[2][3]
    assert left_mult_entry(x, 1, 2) == -Fraction(2, 3) * x34
    assert left_mult_entry(x, 1, 3) == Fraction(2, 3) * x12
    assert left_mult_entry(x, 1, 4) == -Fraction(1, 3) * x24
    assert left_mult_entry(x, 1, 6) == Fraction(1, 3) * x13
    assert left_mult_entry(x, 2, 4) == -Fraction(1, 2) * x23
    assert left_mult_entry(x, 4, 6) == 0  # same block, third case


def test_left_mult_zero():
    m = coord_count(5)
    assert left_mult_matrix(TriMat.zeros(5)) == TriMat.zeros(m)


def test_left_mult_two_routes_agree():
    for n in range(2, 7):
        for t in range(25):
            rng = trial_rng(8, "two-routes", n, t)
            x = rand_strict_upper(rng, n)
            assert left_mult_matrix(x) == left_mult_matrix_closed(x)


def test_left_mult_strictly_block_upper():
    for t in range(50):
        rng = trial_rng(9, "blocks", t)
        n = rng.randint(2, 6)
        x = rand_strict_upper(rng, n)
        lam = left_mult_matrix(x)
        for a in range(1, n):
            for b in range(1, a + 1):
                r0, c0 = a * (a - 1) // 2, b * (b - 1) // 2
                assert all(
                    not lam.rows[r0 + r][c0 + c] for r in range(a) for c in range(b)
                )


def test_left_mult_index_range():
    with pytest.raises(IndexError):
        left_mult_entry(TriMat.zeros(4), 0, 1)
    with pytest.raises(IndexError):
        left_mult_entry(TriMat.zeros(4), 1, 7)


def test_product_shape_errors():
    from affinetrees.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        left_symmetric_product(TriMat.zeros(3), TriMat.zeros(4))
    with pytest.raises(NotStrictUpper):
        left_symmetric_product(TriMat.identity(3), TriMat.zeros(3))
    with pytest.raises(DimensionMismatch):
        matrix_from_coords(4, [0] * 5)


# -- algebra and group representations ---------------------------------------------------


def test_algebra_rep_zero():
    assert affine_algebra_rep(TriMat.zeros(4)) == TriMat.zeros(7)


def test_algebra_rep_last_column():
    rng = trial_rng(10, "rep-col")
    x = generic4(rng)
    rep = affine_algebra_rep(x)
    assert tuple(rep.rows[i][6] for i in range(7)) == coord_vector(x) + (Fraction(0),)


def test_algebra_rep_bracket():
    for t in range(100):
        rng = trial_rng(11, "bracket", t)
        n = rng.randint(2, 5)
        x, y = rand_strict_upper(rng, n), rand_strict_upper(rng, n)
        rx, ry = affine_algebra_rep(x), affine_algebra_rep(y)
        assert affine_algebra_rep(x * y - y * x) == rx * ry - ry * rx


def test_embedding_of_identity():
    for n in range(2, 6):
        m = coord_count(n)
        assert embed_unitriangular(TriMat.identity(n)) == TriMat.identity(m + 1)


def test_embedding_specific_entries():
    rng = trial_rng(12, "image-entries")
    a, b, c, d, e, f = (rand_fraction(rng) for _ in range(6))
    mat = TriMat([[1, c, e, f], [0, 1, b, d], [0, 0, 1, a], [0, 0, 0, 1]])
    img = embed_unitriangular(mat)
    assert img.rows[0][4] == -a * c / 3
    assert img.rows[0][6] == f - c * d / 3 - 2 * a * e / 3 + a * b * c / 3
    assert img.rows[0][3] == -d / 3 + a * b / 3
    assert tuple(img.rows[i][6] for i in range(3, 6)) == (c, b, a)


def test_embedding_multiplicative():
    for t in range(60):
        rng = trial_rng(13, "hom", t)
        n = rng.randint(2, 5)
        g, h = rand_unitriangular(rng, n), rand_unitriangular(rng, n)
        assert embed_unitriangular(g * h) == embed_unitriangular(g) * embed_unitriangular(h)


def test_embedding_injective_evidence():
    for t in range(60):
        rng = trial_rng(14, "inj", t)
        n = rng.randint(2, 5)
        g = rand_nontrivial_unitriangular(rng, n)
        assert embed_unitriangular(g) != TriMat.identity(coord_count(n) + 1)


def test_embedding_rejects_non_unitriangular():
    with pytest.raises(NotUnitriangular):
        embed_unitriangular(TriMat([[2, 0], [0, 1]]))


def test_embedding_rejects_dimension_nine(monkeypatch):
    def no_inverse(_):
        raise AssertionError("the dimension is checked before any inversion")

    monkeypatch.setattr(TriMat, "inverse", no_inverse)
    g = rand_unitriangular(trial_rng(16, "nine"), 9)
    with pytest.raises(DimensionMismatch, match="2 <= n <= 8"):
        embed_unitriangular(g)
    with pytest.raises(DimensionMismatch, match="2 <= n <= 8"):
        AffineRep.of(g)


def test_affine_rep_shape():
    rng = trial_rng(15, "shape")
    rep = AffineRep.of(rand_unitriangular(rng, 4))
    assert rep.n == 4 and rep.m == 6 and rep.matrix.n == 7
    assert rep.matrix.is_unitriangular()


# -- essential hyperbolicity ----------------------------------------------------------


def test_pure_translation_is_hyperbolic():
    mat = elementary(3, 1, 3) + TriMat.identity(3)
    assert is_essentially_hyperbolic(mat)


def test_linear_noise_without_translation_is_not():
    mat = elementary(3, 1, 2) + TriMat.identity(3)
    assert not is_essentially_hyperbolic(mat)


def test_identity_input_rejected():
    with pytest.raises(IdentityInput):
        is_essentially_hyperbolic(TriMat.identity(3))


def identity_rows(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


@pytest.mark.parametrize(
    "one, zero",
    [(Fraction(1), Fraction(0)), (ExpSum.one(), ExpSum()), (Fraction(1), ExpSum())],
)
def test_identity_rejected_in_place_over_both_rings(one, zero, monkeypatch):
    eye = TriMat(identity_rows(5, one, zero))
    built = count_builds(monkeypatch)
    with pytest.raises(IdentityInput):
        is_essentially_hyperbolic(eye)
    assert not built


@pytest.mark.parametrize("value", [Fraction(1, 7), ExpSum.exponential(1, -2)])
def test_near_identity_gets_a_verdict(value, monkeypatch):
    # one off-diagonal entry: hyperbolic exactly when it is a translation
    n = 5
    built = count_builds(monkeypatch)
    for i in range(n - 1):
        for j in range(i + 1, n):
            rows = identity_rows(n, Fraction(1), Fraction(0))
            rows[i][j] = value
            assert is_essentially_hyperbolic(TriMat(rows)) == (j == n - 1)
    rows = identity_rows(n, Fraction(1), Fraction(0))
    rows[0][0] = value
    assert not is_essentially_hyperbolic(TriMat(rows))
    # only the test's own inputs were built
    assert len(built) == n * (n - 1) // 2 + 1


def lowest_entry_verdict(mat):
    """Hyperbolic exactly when every row with a diagonal entry other than
    1 or a nonzero entry short of the final column lies above the lowest
    nonzero entry of the final column."""
    N, rows = mat.n, mat.rows
    low = max((k for k in range(N - 1) if rows[k][N - 1]), default=-1)
    return all(
        i < low for i in range(N - 1) if rows[i][i] != 1 or any(rows[i][i + 1 : N - 1])
    )


def test_verdict_matches_lowest_entry_form():
    verdicts = set()
    for t in range(200):
        rng = trial_rng(31, "lowest-entry", t)
        image = embed_unitriangular(rand_unitriangular(rng, rng.randint(2, 4)))
        rows = [list(row) for row in image.rows]
        N = len(rows)
        # drop translation entries and linear noise at random, and
        # sometimes stretch a diagonal entry
        for i in range(N - 1):
            for j in range(i + 1, N):
                if rng.random() < 0.5:
                    rows[i][j] = Fraction(0)
            if rng.random() < 0.1:
                rows[i][i] = Fraction(2)
        mat = TriMat(rows)
        if mat.is_identity():
            continue
        verdict = is_essentially_hyperbolic(mat)
        assert verdict == lowest_entry_verdict(mat)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_affine_form_required():
    with pytest.raises(NotAffineForm):
        is_essentially_hyperbolic(TriMat([[1, 0], [1, 1]]))
    with pytest.raises(NotAffineForm):
        is_essentially_hyperbolic(TriMat([[1, 0], [0, 2]]))


def test_images_are_essentially_hyperbolic():
    for t in range(100):
        rng = trial_rng(16, "image-hyp", t)
        n = rng.randint(2, 6)
        g = rand_nontrivial_unitriangular(rng, n)
        assert is_essentially_hyperbolic(embed_unitriangular(g))


def test_all_slots_nonzero_image_is_hyperbolic():
    mat = TriMat([[1, 1, 1, 1], [0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1]])
    assert is_essentially_hyperbolic(embed_unitriangular(mat))


# -- admissibility certificates ---------------------------------------------------------


def test_certify_second_superdiagonal():
    x = elementary(4, 1, 3) + elementary(4, 2, 4, 2)
    report = certify_admissible(x)
    assert report.i0 == 2
    assert report.blocks_clean and report.hyperbolic
    assert report.blocks_checked > 0


def test_certify_first_superdiagonal():
    x = elementary(4, 1, 2)
    report = certify_admissible(x)
    assert report.i0 == 1 and report.ok


def test_certify_zero_rejected():
    with pytest.raises(ZeroInput):
        certify_admissible(TriMat.zeros(4))


def test_certify_random():
    for t in range(100):
        rng = trial_rng(17, "certify", t)
        n = rng.randint(2, 6)
        x = rand_strict_upper(rng, n)
        if all(not v for row in x.rows for v in row):
            continue
        assert certify_admissible(x).ok


@pytest.mark.parametrize("n", range(2, 9))
def test_certify_matches_report_from_bilinear_matrix(n, monkeypatch):
    rng = trial_rng(31, "certify-routes", n)
    inputs = []
    for i0 in range(1, n):
        # nonzero only from the i0-th superdiagonal up
        x = rand_strict_upper(rng, n)
        x = TriMat(
            [[v if j - i >= i0 else Fraction(0) for j, v in enumerate(row)]
             for i, row in enumerate(x.rows)]
        )
        if any(v for row in x.rows for v in row):
            inputs.extend(ring_variants(x, rng))
    reports = [certify_admissible(x) for x in inputs]
    monkeypatch.setattr(embedding, "left_mult_matrix_closed", left_mult_matrix)
    assert [certify_admissible(x) for x in inputs] == reports
    assert all(report.ok for report in reports)


@pytest.mark.parametrize("n", range(2, 10))
def test_certify_verdict_matches_the_embedded_exponential(n, monkeypatch):
    """The verdict is read off exp(affine_algebra_rep(x)), which is the
    embedded image of exp(x): the embedding takes log(exp(x)) = x.  An
    unsupported size is rejected before any matrix is built from x."""
    rng = trial_rng(37, "certify-round-trip", n)
    if n == 9:
        monkeypatch.setattr(embedding, "left_mult_matrix_closed", None)
    for i0 in range(1, n):
        x = rand_strict_upper(rng, n)
        x = TriMat(
            [[v if j - i >= i0 else Fraction(0) for j, v in enumerate(row)]
             for i, row in enumerate(x.rows)]
        )
        if not any(v for row in x.rows for v in row):
            continue
        for y in (x, x.to_expsum()):
            if n == 9:
                with pytest.raises(DimensionMismatch, match="2 <= n <= 8"):
                    certify_admissible(y)
                continue
            image = embed_unitriangular(nilpotent_exp(y))
            assert_same(nilpotent_exp(affine_algebra_rep(y)), image)
            assert certify_admissible(y).hyperbolic is is_essentially_hyperbolic(image)


# -- clearing denominators -----------------------------------------------------------


def test_integerize_half_example():
    a = TriMat([[1, Fraction(1, 2)], [0, 1]])
    b = TriMat([[1, Fraction(-1, 2)], [0, 1]])
    conj, conjugated = integerize([a, b])
    assert conj == TriMat.diagonal([2, 1])
    assert conjugated[0] == TriMat([[1, 1], [0, 1]])
    assert conjugated[1] == TriMat([[1, -1], [0, 1]])


def test_integerize_integral_input_gives_identity():
    a = TriMat([[1, 3, -2], [0, 1, 4], [0, 0, 1]])
    gens = [a, a.inverse()]
    conj, conjugated = integerize(gens)
    assert conj == TriMat.identity(3)
    assert conjugated == gens


def test_integerize_requires_inverse_closure():
    a = TriMat([[1, Fraction(1, 2)], [0, 1]])
    with pytest.raises(NotInverseClosed):
        integerize([a])
    b = TriMat([[1, 3], [0, 1]])
    with pytest.raises(NotInverseClosed, match="3"):
        integerize([a, a.inverse(), b])
    # duplicates and self-inverse generators are closed
    eye = TriMat.identity(2)
    integerize([a, a, eye, a.inverse()])


def test_integerize_of_many_pairs_finds_each_inverse_in_linear_time():
    # 4,000 inverse pairs: each inverse is looked up by hash, not by a scan
    # of the list, which took 21.6 s for this input
    gens = []
    for k in range(4000):
        g = TriMat([[1, Fraction(k, 2), 1], [0, 1, k % 7], [0, 0, 1]])
        gens += [g, g.inverse()]
    start = time.perf_counter()
    conj, conjugated = integerize(gens)
    assert time.perf_counter() - start < 2
    assert conj == TriMat.diagonal([2, 1, 1])
    assert len(conjugated) == len(gens)
    # the first generator whose inverse is missing is the one named
    start = time.perf_counter()
    with pytest.raises(NotInverseClosed) as info:
        integerize(gens[:2469] + gens[2470:6001] + gens[6002:])
    assert time.perf_counter() - start < 2
    assert str(info.value) == f"missing inverse of {gens[2468]!r}"


def test_integerize_requires_unitriangular():
    with pytest.raises(NotUnitriangular):
        integerize([TriMat([[2, 0], [0, 1]])])


def test_integerize_random_sets():
    for t in range(50):
        rng = trial_rng(18, "integerize", t)
        n = rng.randint(2, 5)
        gens = []
        for _ in range(rng.randint(1, 3)):
            g = rand_unitriangular(rng, n)
            gens.append(g)
            inv = g.inverse()
            if inv not in gens:
                gens.append(inv)
        conj, conjugated = integerize(gens)
        eye = TriMat.identity(n)
        for before, after in zip(gens, conjugated):
            assert after == conj * before * conj.inverse()
            assert after.is_unitriangular()
            assert all(v.denominator == 1 for row in after.rows for v in row)
            if before != eye:
                assert is_essentially_hyperbolic(before) == is_essentially_hyperbolic(after)


#: a factor of every denominator that puts a matrix's common denominator
#: past the cutoff, so its inverse takes the Fraction route
PAST = 2**MAX_COMMON_DENOMINATOR_BITS + 1


@st.composite
def inverse_closed_sets(draw):
    n = draw(st.integers(1, 8))
    factor = draw(st.sampled_from([1, PAST]))
    entries = st.fractions(min_value=-9, max_value=9, max_denominator=9).map(
        lambda q: q / factor
    )
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        g = TriMat(
            [[1 if i == j else draw(entries) if j > i else 0 for j in range(n)]
             for i in range(n)]
        )
        gens += [g, g.inverse()]
    return gens


def full_row_scales(gens):
    """s_i = d_i * ... * d_n with d_i the lcm over every entry of row i."""
    n = gens[0].n
    scale, acc = [1] * n, 1
    for i in range(n - 1, -1, -1):
        acc *= lcm(*(g.rows[i][j].denominator for g in gens for j in range(n)))
        scale[i] = acc
    return scale


@given(inverse_closed_sets())
@settings(max_examples=100, deadline=None)
def test_clearing_scales_match_full_rows(gens):
    assert _clearing_scales(gens) == full_row_scales(gens)


@pytest.mark.parametrize("n", range(2, 9))
def test_scaled_conjugate_matches_dense_product(n):
    for t in range(2):
        g = rand_unitriangular(trial_rng(7, "scaled-conjugate", n, t), n)
        image = embed_unitriangular(g)
        scale = _clearing_scales([image, image.inverse()])
        dense = (
            TriMat.diagonal(scale)
            * image
            * TriMat.diagonal([Fraction(1, s) for s in scale])
        )
        got = _scaled_conjugate(image, scale)
        assert got == dense and repr(got) == repr(dense)
        assert all(type(v) is Fraction for row in got.rows for v in row)


@pytest.mark.parametrize("bits", [None, 0, 24])
@pytest.mark.parametrize("n", range(2, 9))
def test_embed_with_clearing_scales_matches_the_image_and_its_inverse(monkeypatch, n, bits):
    # bits 0 sends every series past the cutoff, 24 sends some
    if bits is not None:
        monkeypatch.setattr(trimat, "MAX_COMMON_DENOMINATOR_BITS", bits)
    for t in range(3):
        g = rand_unitriangular(trial_rng(12, "clearing-scales", n, t), n, den=12)
        rows, scale = _embed_with_clearing_scales(g)
        image = nilpotent_exp(affine_algebra_rep(unipotent_log(g)))
        embedded = embed_unitriangular(g)
        assert embedded == image
        assert scale == _clearing_scales([image, image.inverse()])
        written, conjugated = image_and_conjugate_to_json(rows, scale)
        assert written == mat_to_json(embedded)
        assert conjugated == mat_to_json(_scaled_conjugate(image, scale))


def series_image(g):
    """The defining route to the image: exp of the affine algebra rep of log g."""
    return nilpotent_exp(affine_algebra_rep(unipotent_log(g)))


def tstar_unipotent_parts():
    """golden_tstar_4's g * h, and the unipotent parts of products and
    quotients of random elements of T*(n): exponential sums."""
    parts = [golden_tstar_4().u]
    for n in range(2, 7):
        rng = trial_rng(14, "closed-form-tstar", n)
        g, h = (
            TriangularElement(n, rand_unitriangular(rng, n), rand_exponents(rng, n))
            for _ in range(2)
        )
        parts += [(g * h).u, (g.inverse() * h).u]
    return parts


#: Inputs of the closed form, by kind: rational within the cutoff, with
#: large entries (past it at most sizes), with 60-digit coprime
#: denominators (past it), and in the ExpSum ring.
CLOSED_FORM_CASES = {
    "rational": lambda: [
        rand_unitriangular(trial_rng(14, "closed-form", n, t), n, den=12)
        for n in range(2, 9)
        for t in range(2)
    ],
    "rational-large": lambda: [
        rand_unitriangular(trial_rng(14, "closed-form-large", n), n, num=10**15, den=10**12)
        for n in range(2, 9)
    ],
    "rational-coprime": lambda: [coprime_60_digit_matrix(False), coprime_60_digit_matrix(True)],
    "expsum-constant": lambda: [
        rand_unitriangular(trial_rng(14, "closed-form-lift", n), n).to_expsum()
        for n in range(2, 9)
    ],
    "expsum-mixed": lambda: [
        TriMat([[1, ExpSum.exponential(Fraction(1, 2)), Fraction(1, 3)], [0, 1, 2], [0, 0, 1]])
    ],
    "expsum-tstar": tstar_unipotent_parts,
}


@pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
def test_closed_form_image_matches_the_series(case):
    for g in CLOSED_FORM_CASES[case]():
        want = series_image(g)
        types = [[type(v) for v in row] for row in want.rows]
        got = embed_unitriangular(g)
        assert got.rows == want.rows
        assert [[type(v) for v in row] for row in got.rows] == types
        if not g.expsum:
            rows, scale = _embed_with_clearing_scales(g)
            m = len(rows)
            image = [tuple(_decoded(row, m + 1, den, None, False)) for den, row in rows]
            assert image == list(want.rows[:m])
            assert [[type(v) for v in row] for row in image] == types[:m]
            assert scale == _clearing_scales([want, want.inverse()])


def test_expsum_inputs_past_the_cutoff_match_the_rational_image_and_its_conjugate():
    # 28 coprime 60-digit denominators: every series runs in ring mode,
    # while the assembly runs over the row and column lcms; with exponents
    # its numerators are exponential sums over denominator 1
    g = coprime_60_digit_matrix(True)
    dens = [v.denominator for row in g.rows for v in row]
    assert lcm(*dens).bit_length() > MAX_COMMON_DENOMINATOR_BITS
    lifted = g.to_expsum()
    image = embed_unitriangular(lifted)
    assert image == embed_unitriangular(g).to_expsum()
    assert all(type(v) is ExpSum for row in image.rows for v in row)
    exps = [Fraction(k, 2 + k % 3) for k in range(-3, 5)]
    pad_exps = [exps[a] - exps[b] for a, b in coord_entries(8)] + [Fraction(0)]
    conjugated = embed_unitriangular(conjugate_by_diagonal(exps, lifted))
    assert conjugated == conjugate_by_diagonal(pad_exps, image)
    assert all(type(v) is ExpSum for row in conjugated.rows for v in row)
