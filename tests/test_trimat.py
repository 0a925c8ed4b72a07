from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinetrees.embedding import affine_algebra_rep, embed_unitriangular
from affinetrees.errors import (
    DimensionMismatch,
    NotInvertible,
    NotStrictUpper,
    NotUnitriangular,
    NotUpperTriangular,
)
from affinetrees.sampling import (
    rand_exponents,
    rand_strict_upper,
    rand_unitriangular,
    trial_rng,
)
from affinetrees.scalars import ExpSum
from affinetrees.triangular import conj_coord_matrix_affine, embed_diagonal_part
from affinetrees.trimat import (
    MAX_COMMON_DENOMINATOR_BITS,
    TriMat,
    _columns,
    _encode,
    nilpotent_exp,
    unipotent_log,
)


def elementary(n, i, j, value=1):
    """Matrix with a single nonzero entry at (i, j), 1-based."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[i - 1][j - 1] = Fraction(value)
    return TriMat(rows)


def test_identity_multiplication():
    rng = trial_rng(0, "identity")
    a = rand_unitriangular(rng, 4)
    assert TriMat.identity(4) * a == a
    assert a * TriMat.identity(4) == a


def test_elementary_product():
    lhs = elementary(3, 1, 2) * elementary(3, 2, 3)
    assert lhs == elementary(3, 1, 3)


def test_entry_coercion():
    third, e = Fraction(1, 3), ExpSum.exponential(1)
    mat = TriMat([[1, third], [e, 0]])
    assert all(type(v) is Fraction for v in (mat.rows[0][0], mat.rows[1][1]))
    assert mat.rows[0][1] is third and mat.rows[1][0] is e
    for bad in (True, 1.0, "1"):
        with pytest.raises(TypeError):
            TriMat([[bad]])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        TriMat.identity(2) * TriMat.identity(3)
    with pytest.raises(DimensionMismatch):
        TriMat([[1, 2], [3, 4], [5, 6]])
    for empty in (lambda: TriMat.identity(0), lambda: TriMat.zeros(0), lambda: TriMat.diagonal([])):
        with pytest.raises(DimensionMismatch, match="non-empty"):
            empty()


def test_inverse_roundtrip():
    for t in range(50):
        rng = trial_rng(1, "inverse", t)
        a = rand_unitriangular(rng, rng.randint(2, 6))
        assert a * a.inverse() == TriMat.identity(a.n)
        assert a.inverse() * a == TriMat.identity(a.n)


def test_predicates():
    a = TriMat([[1, 2], [0, 1]])
    assert a.is_upper_triangular() and a.is_unitriangular()
    assert not a.is_strict_upper()
    b = TriMat([[0, 2], [0, 0]])
    assert b.is_strict_upper()
    c = TriMat([[2, 1], [0, Fraction(1, 3)]])
    assert c.has_positive_diagonal()
    assert not TriMat([[-1, 0], [0, 1]]).has_positive_diagonal()


def test_exp_of_zero():
    assert nilpotent_exp(TriMat.zeros(3)) == TriMat.identity(3)


def test_exp_two_by_two():
    a = Fraction(5, 7)
    assert nilpotent_exp(TriMat([[0, a], [0, 0]])) == TriMat([[1, a], [0, 1]])


def test_exp_three_by_three():
    # exp(E12 + E23): the square is E13, so the series stops there
    n = elementary(3, 1, 2) + elementary(3, 2, 3)
    expected = TriMat([[1, 1, Fraction(1, 2)], [0, 1, 1], [0, 0, 1]])
    assert nilpotent_exp(n) == expected


def test_exp_rejects_non_strict():
    with pytest.raises(NotStrictUpper):
        nilpotent_exp(TriMat.identity(2))


def test_log_identity():
    assert unipotent_log(TriMat.identity(4)) == TriMat.zeros(4)


def test_log_rejects_non_unitriangular():
    with pytest.raises(NotUnitriangular):
        unipotent_log(TriMat([[2, 0], [0, 1]]))


def test_log_generic_four_by_four():
    rng = trial_rng(2, "log4")
    a, b, c, d, e, f = (
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)
    )
    mat = TriMat(
        [[1, c, e, f], [0, 1, b, d], [0, 0, 1, a], [0, 0, 0, 1]]
    )
    expected = TriMat(
        [
            [
                0,
                c,
                e - b * c / 2,
                f - c * d / 2 - a * e / 2 + a * b * c / 3,
            ],
            [0, 0, b, d - a * b / 2],
            [0, 0, 0, a],
            [0, 0, 0, 0],
        ]
    )
    assert unipotent_log(mat) == expected


def test_exp_log_roundtrip():
    for t in range(50):
        rng = trial_rng(3, "roundtrip", t)
        n = rng.randint(2, 6)
        u = rand_unitriangular(rng, n)
        assert nilpotent_exp(unipotent_log(u)) == u
        x = rand_strict_upper(rng, n)
        assert unipotent_log(nilpotent_exp(x)) == x


def test_exp_additive_on_commuting():
    for t in range(20):
        rng = trial_rng(4, "commuting", t)
        n = rng.randint(3, 6)
        x = rand_strict_upper(rng, n)
        square = x * x  # commutes with x, stays strictly upper
        lhs = nilpotent_exp(x) * nilpotent_exp(square)
        rhs = nilpotent_exp(x + square)
        assert lhs == rhs


def test_multiplication_associative():
    for t in range(30):
        rng = trial_rng(5, "assoc", t)
        n = rng.randint(2, 5)
        a, b, c = (rand_unitriangular(rng, n) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_triangular_products_stay_triangular():
    rng = trial_rng(6, "closure")
    a, b = rand_unitriangular(rng, 5), rand_unitriangular(rng, 5)
    assert (a * b).is_unitriangular()
    x, y = rand_strict_upper(rng, 5), rand_strict_upper(rng, 5)
    assert (x * y).is_strict_upper()


def test_expsum_entries():
    e = ExpSum.exponential
    mat = TriMat([[e(1), e(0)], [e(0) - e(0), e(-1)]])
    inv = mat.inverse()
    assert mat * inv == TriMat.identity(2, ExpSum.one())


# -- exp/log against the term-by-term series ----------------------------------


def reference_exp(x):
    """sum_{k<n} x**k / k!, one full matrix per term, scaled term and sum."""
    out = TriMat.identity(x.n, x.ring_one())
    term = out
    for k in range(1, x.n):
        term = term * x
        out = out + term.scale(Fraction(1, factorial(k)))
    return out


def reference_log(g):
    """sum_{1<=k<n} (-1)**(k+1)/k * (g - I)**k, one full matrix per step."""
    strict = g - TriMat.identity(g.n, g.ring_one())
    out = TriMat.zeros(g.n, g.ring_zero())
    term = TriMat.identity(g.n, g.ring_one())
    for k in range(1, g.n):
        term = term * strict
        out = out + term.scale(Fraction((-1) ** (k + 1), k))
    return out


def assert_same(new, ref):
    assert new == ref
    assert repr(new) == repr(ref)
    assert [type(v) for row in new.rows for v in row] == [
        type(v) for row in ref.rows for v in row
    ]


def unit_diagonal(x, one):
    return TriMat(
        [[one if i == j else v for j, v in enumerate(row)] for i, row in enumerate(x.rows)]
    )


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
#: The Fermat numbers 2**(2**k) + 1 are pairwise coprime.  Those for
#: k = 4..8 (17 to 257 bits) multiply to 497 bits, so a matrix over them
#: has its common denominator within MAX_COMMON_DENOMINATOR_BITS = 512 and
#: its rational series runs in integers; a factor PAST puts every nonzero
#: entry's denominator past the cutoff.
FERMAT = [2 ** (2**k) + 1 for k in range(4, 9)]
PAST = 2**MAX_COMMON_DENOMINATOR_BITS + 1
coprime_rationals = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(FERMAT))
past_cutoff_rationals = st.builds(
    lambda p, q: Fraction(p, q * PAST), st.integers(-9, 9), st.sampled_from(FERMAT)
)
exponents = st.sampled_from([-1, 0, Fraction(1, 2), 1])
#: Exponents p/q over the 46 primes q < 200, whose lcm has up to 273 bits.
PRIMES = [q for q in range(2, 200) if all(q % r for r in range(2, q))]
wide_exponents = st.builds(Fraction, st.integers(-3, 3), st.sampled_from(PRIMES))


def sums_of(exps, coefficients):
    """Sums of up to two terms c * e**q."""
    return st.lists(st.tuples(exps, coefficients), max_size=2).map(ExpSum)


exp_sums = sums_of(exponents, rationals)
#: ring -> (zero, one, nonzero-entry strategy); the "mixed" rings keep
#: Fraction zeros.  The ExpSum rings with coprime or past-cutoff
#: coefficients put their series on either side of the cutoff, as for the
#: rationals, and "mixed-past-cutoff" runs the ring-summing series on
#: matrices whose entries are Fractions and ExpSums.
RINGS = {
    "Q": (Fraction(0), Fraction(1), rationals),
    "Q-coprime": (Fraction(0), Fraction(1), coprime_rationals),
    "Q-past-cutoff": (Fraction(0), Fraction(1), past_cutoff_rationals),
    "R": (ExpSum(), ExpSum.one(), exp_sums),
    "R-coprime": (ExpSum(), ExpSum.one(), sums_of(wide_exponents, coprime_rationals)),
    "R-past-cutoff": (ExpSum(), ExpSum.one(), sums_of(exponents, past_cutoff_rationals)),
    "mixed": (Fraction(0), Fraction(1), st.one_of(rationals, exp_sums)),
    "mixed-past-cutoff": (
        Fraction(0),
        Fraction(1),
        st.one_of(past_cutoff_rationals, sums_of(exponents, past_cutoff_rationals)),
    ),
}


@st.composite
def strict_uppers(draw):
    """(strictly upper matrix of size 1..9, the unit of its ring)."""
    n = draw(st.integers(1, 9))
    zero, one, entries = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    entry = st.one_of(st.just(zero), entries)
    rows = [[draw(entry) if j > i else zero for j in range(n)] for i in range(n)]
    return TriMat(rows), one


@given(strict_uppers())
@settings(max_examples=60, deadline=None)
def test_exp_matches_reference_series(drawn):
    x, _ = drawn
    assert_same(nilpotent_exp(x), reference_exp(x))


@given(strict_uppers())
@settings(max_examples=60, deadline=None)
def test_log_matches_reference_series(drawn):
    x, one = drawn
    g = unit_diagonal(x, one)
    assert_same(unipotent_log(g), reference_log(g))


# -- products against the dense triple loop -----------------------------------


def reference_product(a, b):
    """Every entry sums a[i][k] * b[k][j] over all k, from the ring zero
    of the pair: an ExpSum zero when either matrix has an ExpSum entry."""
    n, zero = a.n, a.ring_zero() + b.ring_zero()
    return TriMat(
        [
            [sum((a.rows[i][k] * b.rows[k][j] for k in range(n)), zero) for j in range(n)]
            for i in range(n)
        ]
    )


@st.composite
def square_matrices(draw, ring, n):
    zero, _, entries = RINGS[ring]
    entry = st.one_of(st.just(zero), entries)
    return TriMat([[draw(entry) for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("ring", sorted(RINGS))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_product_matches_dense_triple_loop(ring, data):
    n = data.draw(st.integers(1, 6))
    a = data.draw(square_matrices(ring, n))
    other = st.sampled_from([ring, "Q", "Q-past-cutoff", "R"])
    b = data.draw(square_matrices(data.draw(other), n))
    ab = a * b
    assert_same(ab, reference_product(a, b))
    assert_same(b * a, reference_product(b, a))
    # a rational product within the cutoff stores the encoding of its
    # columns, and a chained product reads it as it is; a ring-mode
    # product stores none
    stored = ab._enc
    if ab.expsum or None in (_encode(_columns(m), False)[1] for m in (a, b)):
        assert stored is None
    else:
        want = _encode(_columns(ab), False)
        assert stored == (want if want[1] is not None else None)
    c = data.draw(square_matrices(data.draw(other), n))
    assert_same(ab * c, reference_product(reference_product(a, b), c))
    assert_same(c * ab, reference_product(c, reference_product(a, b)))
    if stored is not None:
        assert ab._enc is stored


# -- equality, hash and shape predicates against entrywise oracles -------------


def entrywise_equal(a, b):
    return a.n == b.n and all(
        x == y for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb)
    )


def entrywise_identity(a):
    return all(
        v == 1 if i == j else not v for i, row in enumerate(a.rows) for j, v in enumerate(row)
    )


def rebuilt(v, other_ring):
    """An entry equal to v but built anew; with ``other_ring`` a Fraction
    becomes a constant ExpSum and a constant ExpSum a Fraction."""
    if isinstance(v, Fraction):
        return ExpSum.constant(v) if other_ring else Fraction(v.numerator, v.denominator)
    terms = v.terms()
    if other_ring and all(q == 0 for q, _ in terms):
        return sum((c for _, c in terms), Fraction(0))
    return ExpSum(terms)


@st.composite
def near_identities(draw, ring):
    """An n x n identity over mixed Fraction and ExpSum units and zeros,
    with up to three entries redrawn from the ring."""
    _, _, entries = RINGS[ring]
    n = draw(st.integers(1, 5))
    ones, zeros = [Fraction(1), ExpSum.one()], [Fraction(0), ExpSum()]
    rows = [
        [draw(st.sampled_from(ones if i == j else zeros)) for j in range(n)]
        for i in range(n)
    ]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(st.one_of(st.sampled_from(ones + zeros), entries))
    return TriMat(rows)


@pytest.mark.parametrize("ring", sorted(RINGS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_equality_hash_and_predicates_match_entrywise_oracles(ring, data):
    a = data.draw(near_identities(ring))
    copy = TriMat(
        [[rebuilt(v, data.draw(st.booleans())) for v in row] for row in a.rows]
    )
    others = [copy, data.draw(near_identities(ring)), TriMat.identity(a.n + 1)]
    if a.n > 1:
        others.append(TriMat([row[:-1] for row in a.rows[:-1]]))
    for b in others:
        assert (a == b) is entrywise_equal(a, b)
        assert (a != b) is not entrywise_equal(a, b)
        if a == b:
            assert hash(a) == hash(b)
    assert copy == a and hash(copy) == hash(a)
    for m in (a, copy):
        assert m.is_identity() is entrywise_identity(m)
        assert m.is_upper_triangular() is all(
            not m.rows[i][j] for i in range(m.n) for j in range(i)
        )
        assert m.is_strict_upper() is all(
            not m.rows[i][j] for i in range(m.n) for j in range(i + 1)
        )
    assert TriMat.identity(a.n).is_identity()
    assert TriMat.identity(a.n, ExpSum.one()).is_identity()


def early_vanishing_cases():
    """Zero matrices, single superdiagonals, and affine algebra images,
    whose powers vanish well before their dimension."""
    rng = trial_rng(8, "vanishing")
    for n in range(1, 10):
        for zero, one in ((Fraction(0), Fraction(1)), (ExpSum(), ExpSum.one())):
            yield TriMat.zeros(n, zero), one
            yield TriMat(
                [[one * Fraction(i + 2, 3) if j == i + 1 else zero for j in range(n)]
                 for i in range(n)]
            ), one
    for n in range(2, 6):
        g = rand_unitriangular(rng, n)
        yield affine_algebra_rep(unipotent_log(g)), Fraction(1)
        yield affine_algebra_rep(unipotent_log(g.to_expsum())), ExpSum.one()


@pytest.mark.parametrize("x, one", list(early_vanishing_cases()))
def test_series_stop_early_and_match_reference(x, one):
    assert_same(nilpotent_exp(x), reference_exp(x))
    assert_same(unipotent_log(unit_diagonal(x, one)), reference_log(unit_diagonal(x, one)))


def test_algebra_image_vanishes_before_its_dimension():
    rep = affine_algebra_rep(unipotent_log(rand_unitriangular(trial_rng(9, "deg"), 5)))
    power, degree = rep, 1
    while any(v for row in power.rows for v in row):
        power, degree = power * rep, degree + 1
    # the grading bounds the degree by n - 1 = 4; the image has size 11
    assert degree <= 4 < rep.n


# -- inverse against the entry-by-entry back-substitution ----------------------


def reference_inverse(mat):
    """Back-substitution column by column from the right, each column from
    the diagonal up, dividing by every diagonal entry."""
    n, zero, one = mat.n, mat.ring_zero(), mat.ring_one()
    inv = [[zero] * n for _ in range(n)]
    for j in range(n - 1, -1, -1):
        inv[j][j] = one / mat.rows[j][j]
        for i in range(j - 1, -1, -1):
            acc = zero
            for k in range(i + 1, j + 1):
                if mat.rows[i][k] and inv[k][j]:
                    acc = acc + mat.rows[i][k] * inv[k][j]
            inv[i][j] = -acc / mat.rows[i][i]
    return TriMat(inv)


nonzero_rationals = rationals.filter(bool)


def monomials_of(exps, coefficients):
    return st.tuples(exps, coefficients.filter(bool)).map(lambda qc: ExpSum.exponential(*qc))


monomials = monomials_of(exponents, rationals)
#: ring -> invertible non-unit diagonal entries
DIAGONALS = {
    "Q": nonzero_rationals,
    "Q-coprime": coprime_rationals.filter(bool),
    "Q-past-cutoff": past_cutoff_rationals.filter(bool),
    "R": monomials,
    "R-coprime": monomials_of(wide_exponents, coprime_rationals),
    "R-past-cutoff": monomials_of(exponents, past_cutoff_rationals),
    "mixed": st.one_of(nonzero_rationals, monomials),
    "mixed-past-cutoff": st.one_of(
        past_cutoff_rationals.filter(bool), monomials_of(exponents, past_cutoff_rationals)
    ),
}


@st.composite
def invertible_uppers(draw):
    """Upper triangular matrix of size 1..11 with an invertible diagonal,
    unit on every row or drawn row by row."""
    n = draw(st.integers(1, 11))
    ring = draw(st.sampled_from(sorted(RINGS)))
    zero, one, entries = RINGS[ring]
    entry = st.one_of(st.just(zero), entries)
    diag = st.just(one) if draw(st.booleans()) else st.one_of(st.just(one), DIAGONALS[ring])
    return TriMat(
        [
            [draw(entry) if j > i else draw(diag) if j == i else zero for j in range(n)]
            for i in range(n)
        ]
    )


def assert_inverse(mat, encoded):
    """mat.inverse() against back-substitution.  With ``encoded`` the
    matrix stores its encoding first, as a map's matrix does once it has
    acted or composed; a stored encoding never changes the inverse, and
    the series stores none on it."""
    if encoded:
        mat._encoding()
    inv = mat.inverse()
    assert_same(inv, reference_inverse(mat))
    assert inv._enc is None
    assert mat * inv == TriMat.identity(mat.n)


@given(invertible_uppers(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_inverse_matches_back_substitution(mat, encoded):
    assert_inverse(mat, encoded)


def inverse_cases():
    rng = trial_rng(12, "inverse")
    for n in range(1, 12):
        g = rand_unitriangular(rng, n)
        yield g
        yield g.to_expsum()
        yield scaled_diagonal(g, lambda i: rng.randint(1, 5))
    image = embed_unitriangular(rand_unitriangular(rng, 8))
    yield image
    yield embed_unitriangular(rand_unitriangular(rng, 5).to_expsum())
    # the 29 x 29 image with a rational diagonal: its series runs in ints
    yield scaled_diagonal(image, lambda i: Fraction(rng.randint(1, 9), rng.randint(1, 9)))
    # the 16 x 16 diagonal pad of the conjugation identities at n = 6, and
    # the 22 x 22 image of a positive diagonal, which has a strict part
    exps = rand_exponents(rng, 6)
    yield conj_coord_matrix_affine(exps)
    yield embed_diagonal_part(exps)
    # a rational diagonal whose strict part is past the cutoff
    past = TriMat(
        [[v / PAST if j > i else v for j, v in enumerate(row)]
         for i, row in enumerate(rand_unitriangular(rng, 10).rows)]
    )
    yield scaled_diagonal(past, lambda i: Fraction(i + 2, 3))


def scaled_diagonal(mat, factor):
    """mat with diagonal entry i multiplied by factor(i)."""
    return TriMat(
        [[v * factor(i) if i == j else v for j, v in enumerate(row)]
         for i, row in enumerate(mat.rows)]
    )


@pytest.mark.parametrize("mat", list(inverse_cases()))
def test_inverse_matches_back_substitution_on_images(mat):
    for encoded in (False, True):
        assert_inverse(TriMat(mat.rows), encoded)


@pytest.mark.parametrize(
    "mat",
    [
        TriMat([[1, 0], [0, 0]]),
        TriMat([[ExpSum.one(), ExpSum()], [ExpSum(), ExpSum()]]),
        TriMat.diagonal([ExpSum([(1, 2), (0, 1)]), ExpSum.one()]),
    ],
)
def test_inverse_rejects_a_diagonal_entry_without_inverse(mat):
    with pytest.raises(NotInvertible):
        mat.inverse()


@pytest.mark.parametrize("below", [Fraction(1, 3), Fraction(1, PAST), ExpSum.exponential(1)])
def test_inverse_rejects_an_entry_below_a_unit_diagonal(below):
    # a stored encoding never changes the error
    for encoded in (False, True):
        mat = TriMat([[1, 2, 0], [0, 1, 5], [below, 0, 1]])
        if encoded:
            mat._encoding()
        with pytest.raises(NotUpperTriangular):
            mat.inverse()


def count_ring_products(monkeypatch, ring):
    """Count the products of entries of the ring class ``ring``.  The
    integer paths form none: they multiply ints only."""
    products = []
    for name in ("__mul__", "__rmul__"):
        real = getattr(ring, name)

        def counting(self, other, real=real):
            products.append(1)
            return real(self, other)

        monkeypatch.setattr(ring, name, counting)
    return products


#: ring -> (entry (i, j) of a strict upper matrix from its coefficient, one)
CUTOFF_RINGS = {
    "Q": (lambda i, j, c: c, Fraction(1)),
    "R": (
        lambda i, j, c: ExpSum([(Fraction(j - i, 3), c), (Fraction(-1, 2), c * i)]),
        ExpSum.one(),
    ),
}


@pytest.mark.parametrize("ring", sorted(CUTOFF_RINGS))
@pytest.mark.parametrize("extra_bits, takes_fraction_path", [(0, False), (1, True)])
def test_common_denominator_past_the_cutoff_takes_the_fraction_path(
    monkeypatch, ring, extra_bits, takes_fraction_path
):
    # one denominator of exactly MAX_COMMON_DENOMINATOR_BITS (+ extra_bits) bits
    den = 2 ** (MAX_COMMON_DENOMINATOR_BITS + extra_bits) - 1
    entry, one = CUTOFF_RINGS[ring]
    x = TriMat(
        [[entry(i, j, Fraction(j - i, den)) if j > i else 0 for j in range(6)] for i in range(6)]
    )
    g = unit_diagonal(x, one)
    expected = reference_exp(x), reference_log(g), reference_inverse(g)
    products = count_ring_products(monkeypatch, type(one))
    results = nilpotent_exp(x), unipotent_log(g), g.inverse()
    assert bool(products) is takes_fraction_path
    monkeypatch.undo()
    for new, ref in zip(results, expected):
        assert_same(new, ref)


def test_unitriangular_inverse_divides_nothing(monkeypatch):
    g = embed_unitriangular(rand_unitriangular(trial_rng(13, "no-div"), 4).to_expsum())
    divisions = []
    div = ExpSum.__truediv__

    def counting(self, other):
        divisions.append(1)
        return div(self, other)

    monkeypatch.setattr(ExpSum, "__truediv__", counting)
    g.inverse()
    assert not divisions
    TriMat.diagonal([ExpSum.exponential(1)]).inverse()
    assert len(divisions) == 1


def test_inverse_divides_once_per_diagonal_entry_other_than_one(monkeypatch):
    one, e = ExpSum.one(), ExpSum.exponential
    mat = TriMat([[e(1), one, e(2)], [ExpSum(), one, e(-1)], [ExpSum(), ExpSum(), e(3, 2)]])
    divisions = []
    div = ExpSum.__truediv__

    def counting(self, other):
        divisions.append(other)
        return div(self, other)

    monkeypatch.setattr(ExpSum, "__truediv__", counting)
    inv = mat.inverse()
    assert divisions == [e(1), e(3, 2)]
    monkeypatch.undo()
    assert_same(inv, reference_inverse(mat))


# -- structural guard: matrices built per call ---------------------------------


def count_builds(monkeypatch):
    built = []
    init = TriMat.__init__

    def counting(self, rows):
        built.append(1)
        init(self, rows)

    monkeypatch.setattr(TriMat, "__init__", counting)
    return built


def test_exp_and_log_build_one_matrix(monkeypatch):
    rng = trial_rng(10, "builds")
    x, g = rand_strict_upper(rng, 8), rand_unitriangular(rng, 8)
    built = count_builds(monkeypatch)
    nilpotent_exp(x)
    assert len(built) == 1
    unipotent_log(g)
    assert len(built) == 2


def test_embedding_builds_at_most_four_matrices(monkeypatch):
    g = rand_unitriangular(trial_rng(11, "builds"), 8)
    built = count_builds(monkeypatch)
    embed_unitriangular(g)
    assert len(built) <= 4
