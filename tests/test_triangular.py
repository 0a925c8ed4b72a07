import gc
import weakref
from fractions import Fraction

import pytest

from affinetrees import triangular
from affinetrees.embedding import coord_count, coord_vector, embed_unitriangular
from affinetrees.errors import DimensionMismatch, IdentityInput, NotUnitriangular
from affinetrees.harness import SuiteConfig, run_suite
from affinetrees.sampling import (
    rand_exponents,
    rand_strict_upper,
    rand_unitriangular,
    trial_rng,
)
from affinetrees.scalars import ExpSum
from affinetrees.triangular import (
    TriangularElement,
    _coord_exponents,
    _image,
    conj_coord_matrix,
    conj_coord_matrix_affine,
    conjugate_by_diagonal,
    embed_diagonal_part,
    embed_triangular,
    embed_unipotent_part,
    is_essentially_hyperbolic_embedded,
    verify_conjugation_identities,
)
from affinetrees.trimat import TriMat


def test_conj_coord_matrix_trivial():
    core = conj_coord_matrix((0, 0, 0, 0))
    assert core == TriMat.identity(6, ExpSum.one())


def test_conj_coord_matrix_blocks():
    # exponents (1, 0, 0, 0): blocks of sizes 1, 2, 3 with entries
    # e^(q_r - q_{r + n - k})
    core = conj_coord_matrix((Fraction(1), 0, 0, 0))
    diag = [core.rows[i][i] for i in range(6)]
    e1, e0 = ExpSum.exponential(1), ExpSum.one()
    assert diag == [e1, e1, e0, e1, e0, e0]


def test_coordinate_conjugation_oracle():
    for t in range(60):
        rng = trial_rng(0, "coord-conj", t)
        n = rng.randint(2, 5)
        exps = rand_exponents(rng, n)
        x = rand_strict_upper(rng, n).to_expsum()
        core = conj_coord_matrix(exps)
        lhs = tuple(
            core.rows[i][i] * v for i, v in enumerate(coord_vector(x))
        )
        rhs = coord_vector(conjugate_by_diagonal(exps, x))
        assert lhs == rhs


@pytest.mark.parametrize("n", range(2, 7))
def test_coordinate_scaling_matches_dense_product(n):
    # verify_conjugation_identities scales entries in place of these products
    rng = trial_rng(9, "coord-scaling", n)
    exps = rand_exponents(rng, n)
    m = coord_count(n)
    core_exps = _coord_exponents(exps)
    for size, diag_exps, diag in (
        (m, core_exps, conj_coord_matrix(exps)),
        (m + 1, core_exps + [0], conj_coord_matrix_affine(exps)),
    ):
        dense = rand_strict_upper(rng, size).to_expsum()
        conjugated = conjugate_by_diagonal(
            rand_exponents(rng, size), rand_unitriangular(rng, size)
        )
        for x in (dense, conjugated):
            assert conjugate_by_diagonal(diag_exps, x) == diag * x * diag.inverse()


@pytest.mark.parametrize("ring", ["Q", "R"])
@pytest.mark.parametrize("n", range(2, 9))
def test_conjugate_by_diagonal_matches_dense_product(n, ring):
    # zero entries are skipped rather than multiplied by e**(q_i - q_j)
    rng = trial_rng(10, "conjugate-dense", n, ring)
    exps = rand_exponents(rng, n)
    d = TriMat.diagonal([ExpSum.exponential(q) for q in exps])
    d_inv = TriMat.diagonal([ExpSum.exponential(-q) for q in exps])
    unit = rand_unitriangular(rng, n)
    if ring == "R":
        unit = conjugate_by_diagonal(rand_exponents(rng, n), unit)
    sparse = TriMat(
        [[v if rng.random() < 0.4 else 0 * v for v in row] for row in unit.rows]
    )
    full = TriMat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
    for m in (unit, sparse, full, TriMat.zeros(n)):
        got = conjugate_by_diagonal(exps, m)
        want = d * m * d_inv
        assert got == want
        assert repr(got) == repr(want)
        assert got.expsum


def test_embed_identity():
    g = TriangularElement.identity(4)
    assert embed_triangular(g) == TriMat.identity(11, ExpSum.one())


def test_embed_pure_diagonal_example():
    exps = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    mat = embed_diagonal_part(exps)
    e1, e0, z = ExpSum.exponential(1), ExpSum.one(), ExpSum.zero()
    assert [mat.rows[i][i] for i in range(6)] == [e1, e1, e0, e1, e0, e0]
    # exponent column sits in the middle identity block
    assert [mat.rows[6 + i][10] for i in range(4)] == [
        ExpSum.constant(1),
        z,
        z,
        z,
    ]
    assert mat.rows[10][10] == e0


def test_embed_factorizes():
    for t in range(12):
        rng = trial_rng(1, "factorize", t)
        n = 2 + t % 4
        g = TriangularElement(n, rand_unitriangular(rng, n), rand_exponents(rng, n))
        assert embed_triangular(g) == embed_unipotent_part(g.u) * embed_diagonal_part(
            g.exponents
        )


def test_embed_rejects_dimension_one():
    g = TriangularElement.diagonal((Fraction(1),))
    with pytest.raises(DimensionMismatch, match="2 <= n <= 8"):
        embed_triangular(g)


def test_embed_rejects_dimension_nine():
    rng = trial_rng(3, "nine")
    g = TriangularElement(9, rand_unitriangular(rng, 9), rand_exponents(rng, 9))
    with pytest.raises(DimensionMismatch, match="2 <= n <= 8"):
        embed_triangular(g)


@pytest.mark.parametrize("n", [1, 9])
def test_diagonal_part_rejects_unsupported_dimension(n, monkeypatch):
    def no_build(self, rows):
        raise AssertionError("the dimension is checked before any matrix is built")

    monkeypatch.setattr(TriMat, "__init__", no_build)
    with pytest.raises(DimensionMismatch, match="2 <= n <= 8"):
        embed_diagonal_part((Fraction(1),) * n)


def test_embed_conjugation_consistency():
    for t in range(20):
        rng = trial_rng(2, "conj", t)
        u = rand_unitriangular(rng, 3).to_expsum()
        exps = rand_exponents(rng, 3)
        demb = embed_diagonal_part(exps)
        lhs = demb * embed_unipotent_part(u) * demb.inverse()
        rhs = embed_unipotent_part(conjugate_by_diagonal(exps, u))
        assert lhs == rhs


def test_group_law_and_matrix_transport():
    for t in range(40):
        rng = trial_rng(3, "group", t)
        n = rng.randint(2, 4)
        g1 = TriangularElement(n, rand_unitriangular(rng, n), rand_exponents(rng, n))
        g2 = TriangularElement(n, rand_unitriangular(rng, n), rand_exponents(rng, n))
        g3 = TriangularElement(n, rand_unitriangular(rng, n), rand_exponents(rng, n))
        assert (g1 * g2) * g3 == g1 * (g2 * g3)
        assert (g1 * g2).matrix() == g1.matrix() * g2.matrix()
        assert (g1 * g1.inverse()).is_identity()
        assert (g1.inverse() * g1).is_identity()


def test_unique_factorization_canonical():
    rng = trial_rng(4, "canonical")
    u = rand_unitriangular(rng, 3).to_expsum()
    exps = rand_exponents(rng, 3)
    g = TriangularElement(3, u, exps)
    assert g.u == u and g.exponents == exps
    assert g.matrix().has_positive_diagonal()


def test_conjugation_identities_all_pass():
    report = verify_conjugation_identities(3, 5, seed=9)
    assert all(v["failures"] == 0 for v in report.values())
    assert all(v["trials"] == 5 for v in report.values())


def test_conjugation_identities_trivial_sample():
    report = verify_conjugation_identities(2, 1, seed=0)
    assert all(v["failures"] == 0 for v in report.values())


@pytest.mark.parametrize("n", range(2, 7))
def test_diagonal_images_at_negated_exponents_are_the_inverses(n):
    # verify_conjugation_identities builds the inverses of the pad and of
    # the diagonal part's image this way instead of inverting them
    for t in range(3):
        exps = rand_exponents(trial_rng(17, "negated", n, t), n)
        neg = [-q for q in exps]
        for build in (conj_coord_matrix_affine, embed_diagonal_part):
            inverse = build(exps).inverse()
            assert build(neg) == inverse
            assert repr(build(neg)) == repr(inverse)


def test_identities_hold_at_trivial_element():
    # all-ones diagonal and identity unipotent part: conjugation is a
    # no-op at every stage
    zeros = (Fraction(0),) * 3
    x = rand_strict_upper(trial_rng(8, "trivial"), 3).to_expsum()
    assert conjugate_by_diagonal(zeros, x) == x
    assert conj_coord_matrix(zeros) == TriMat.identity(3, ExpSum.one())
    u = TriMat.identity(3, ExpSum.one())
    g = TriangularElement(3, u, zeros)
    assert g.is_identity()
    assert embed_triangular(g) == TriMat.identity(7, ExpSum.one())


def test_failing_identity_keeps_witness(monkeypatch):
    # a wrong coordinate conjugation matrix breaks the identities that use it
    monkeypatch.setattr(
        triangular,
        "conj_coord_matrix_affine",
        lambda exps: TriMat.identity(coord_count(len(exps)) + 1, ExpSum.one()),
    )
    verdict = run_suite(SuiteConfig(suite="tstar", n_low=3, n_high=3, samples=2, seed=1))
    failed = [c.to_json() for c in verdict.checks if not c.passed]
    assert failed
    for check in failed:
        assert check["name"].startswith("tstar.") and check["name"].endswith(".n3")
        assert check["witness"]["trial"] in (0, 1)


def test_essentially_free_pure_diagonal():
    g = TriangularElement.diagonal((Fraction(1), 0, 0, 0))
    assert is_essentially_hyperbolic_embedded(g)


def test_essentially_free_scalar_diagonal():
    # equal exponents conjugate trivially; the exponent column still moves
    g = TriangularElement.diagonal((Fraction(1, 2),) * 4)
    assert is_essentially_hyperbolic_embedded(g)


def test_essentially_free_pure_unipotent():
    rng = trial_rng(5, "unipotent")
    u = rand_unitriangular(rng, 4)
    while u == TriMat.identity(4):
        u = rand_unitriangular(rng, 4)
    assert is_essentially_hyperbolic_embedded(TriangularElement.unipotent(u))


def test_essentially_free_identity_rejected():
    with pytest.raises(IdentityInput):
        is_essentially_hyperbolic_embedded(TriangularElement.identity(3))


def test_essentially_free_random_sweep():
    for t in range(30):
        rng = trial_rng(6, "sweep", t)
        g = TriangularElement(
            4, rand_unitriangular(rng, 4), rand_exponents(rng, 4)
        )
        if g.is_identity():
            continue
        assert is_essentially_hyperbolic_embedded(g)


def test_unipotent_embedding_agrees_with_base_embedding():
    rng = trial_rng(7, "agree")
    u = rand_unitriangular(rng, 4).to_expsum()
    big = embed_unipotent_part(u)
    rep = embed_unitriangular(u)
    m = 6
    for i in range(m):
        for j in range(m):
            assert big.rows[i][j] == rep.rows[i][j]
        assert big.rows[i][10] == rep.rows[i][m]
    # middle identity block untouched
    for i in range(4):
        assert big.rows[m + i][m + i] == ExpSum.one()
        assert big.rows[m + i][10] == ExpSum.zero()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_conjugation_identities_embed_each_element_once(n, monkeypatch):
    # per trial only u, its conjugate, g2 and g1 * g2 are embedded
    calls = []

    def counted(g):
        calls.append(g)
        return embed_unitriangular(g)

    monkeypatch.setattr(triangular, "embed_unitriangular", counted)
    report = verify_conjugation_identities(n, 1, seed=n)
    assert all(v["failures"] == 0 for v in report.values())
    assert len(calls) == 4


def test_is_identity_builds_no_matrix(monkeypatch):
    rng = trial_rng(11, "is-identity")
    u = rand_unitriangular(rng, 4)
    while u == TriMat.identity(4):
        u = rand_unitriangular(rng, 4)
    cases = [
        (TriangularElement.identity(4), True),
        (TriangularElement.unipotent(u), False),
        (TriangularElement.diagonal((0, Fraction(1, 2), 0, 0)), False),
    ]
    built = []
    init = TriMat.__init__

    def counted(self, rows):
        built.append(rows)
        init(self, rows)

    monkeypatch.setattr(TriMat, "__init__", counted)
    assert [g.is_identity() for g, _ in cases] == [want for _, want in cases]
    assert built == []


# -- the one-slot embedding memo ------------------------------------------------


def nontrivial_element(seed, n=4):
    rng = trial_rng(seed, "memo")
    return TriangularElement(n, rand_unitriangular(rng, n), rand_exponents(rng, n))


@pytest.fixture
def embed_calls(monkeypatch):
    calls = []

    def counted(u):
        calls.append(u)
        return embed_unitriangular(u)

    monkeypatch.setattr(triangular, "embed_unitriangular", counted)
    return calls


def test_verdict_after_embedding_reuses_the_image(embed_calls):
    g = nontrivial_element(1)
    image = embed_triangular(g)
    assert is_essentially_hyperbolic_embedded(g)
    assert len(embed_calls) == 1
    assert embed_triangular(g) is image
    assert len(embed_calls) == 1
    assert image == _image(embed_unitriangular(g.u), g.exponents)


def test_equal_but_distinct_element_is_embedded_again(embed_calls):
    g = nontrivial_element(2)
    twin = TriangularElement(g.n, g.u, g.exponents)
    assert twin == g and twin is not g
    image = embed_triangular(g)
    twin_image = embed_triangular(twin)
    assert len(embed_calls) == 2
    assert twin_image == image and twin_image is not image


def test_memo_holds_one_element():
    g = nontrivial_element(3)
    embed_triangular(g)
    ref = weakref.ref(g)
    embed_triangular(nontrivial_element(4))
    del g
    gc.collect()
    assert ref() is None


def test_errors_are_raised_on_every_call(embed_calls):
    g = nontrivial_element(5)
    image = embed_triangular(g)
    bad = TriangularElement.diagonal((Fraction(1),))
    for _ in range(2):
        with pytest.raises(DimensionMismatch, match="2 <= n <= 8"):
            embed_triangular(bad)
    # a failed call leaves the last image in place
    assert embed_triangular(g) is image
    identity = TriangularElement.identity(3)
    embed_triangular(identity)
    for _ in range(2):
        with pytest.raises(IdentityInput):
            is_essentially_hyperbolic_embedded(identity)


# -- products and inverses through the trusted constructor ----------------------


@pytest.mark.parametrize("n", range(2, 7))
def test_products_and_inverses_match_validated_construction(n):
    for t in range(4):
        rng = trial_rng(n, "trusted", t)
        g1 = TriangularElement(n, rand_unitriangular(rng, n), rand_exponents(rng, n))
        g2 = TriangularElement(n, rand_unitriangular(rng, n), rand_exponents(rng, n))
        product = g1 * g2
        validated = TriangularElement(
            n,
            g1.u * conjugate_by_diagonal(g1.exponents, g2.u),
            tuple(a + b for a, b in zip(g1.exponents, g2.exponents)),
        )
        assert product == validated and repr(product) == repr(validated)
        inverse = g1.inverse()
        neg = tuple(-q for q in g1.exponents)
        validated = TriangularElement(n, conjugate_by_diagonal(neg, g1.u.inverse()), neg)
        assert inverse == validated and repr(inverse) == repr(validated)
        assert product.u.expsum and inverse.u.expsum
        assert all(type(q) is Fraction for q in product.exponents + inverse.exponents)


def test_public_constructor_still_validates():
    with pytest.raises(NotUnitriangular):
        TriangularElement(2, TriMat([[2, 0], [0, 1]]), (0, 0))
    with pytest.raises(DimensionMismatch):
        TriangularElement(3, TriMat.identity(2), (0, 0, 0))
    with pytest.raises(DimensionMismatch):
        TriangularElement(2, TriMat.identity(2), (0,))


# -- witnesses of failed identity checks ----------------------------------------


def _drawn_inputs(seed, n, t):
    """exps, x and u as drawn at the start of trial t of the identity checks."""
    rng = trial_rng(seed, "conj-identities", n, t)
    exps = rand_exponents(rng, n)
    x = rand_strict_upper(rng, n).to_expsum()
    u = rand_unitriangular(rng, n).to_expsum()
    return exps, x, u


@pytest.mark.parametrize(
    "tag, target, key",
    [
        ("exp_conj", "nilpotent_exp", "exponents"),
        ("log_conj", "unipotent_log", "u"),
        ("left_mult_conj", "left_mult_matrix_closed", "x"),
    ],
)
def test_forced_failure_reports_first_failing_trial(monkeypatch, tag, target, key):
    # each target runs twice per trial; from trial 1 on, each call adds a
    # different multiple of the identity, so the two sides of the tag's
    # identity differ on every trial but the first
    original = getattr(triangular, target)
    calls = []

    def skewed(mat):
        calls.append(mat)
        out = original(mat)
        if len(calls) <= 2:
            return out
        return out + TriMat.identity(out.n, ExpSum.constant(len(calls)))

    monkeypatch.setattr(triangular, target, skewed)
    seed, n, samples = 4, 3, 3
    report = verify_conjugation_identities(n, samples, seed)
    assert report[tag]["failures"] == samples - 1
    assert [t for t, v in report.items() if v["failures"]] == [tag]
    exps, x, u = _drawn_inputs(seed, n, 1)
    drawn = {"exponents": exps, "x": x, "u": u}
    assert report[tag]["witness"] == {"trial": 1, key: repr(drawn[key])}
