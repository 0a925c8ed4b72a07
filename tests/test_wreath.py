import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinetrees.actions import MatrixAffineAut, from_affine_matrix
from affinetrees.errors import EmptyLevels, StructureMismatch, TooManyLevels
from affinetrees.harness import make_unitriangular_image_bundle
from affinetrees.ordered import LexFamily, LexVec, Scalars, lex_distance
from affinetrees.sampling import trial_rng
from affinetrees.scalars import ExpSum
from affinetrees.trimat import TriMat
from affinetrees.wreath import (
    MAX_WREATH_LEVELS,
    TranslationBundle,
    WreathElem,
    WreathGroup,
    iterated_wreath,
)

ZZ = WreathGroup(TranslationBundle(Scalars("Z")), Scalars("Z"))


def test_identity_is_neutral():
    rng = trial_rng(0, "neutral")
    e = ZZ.identity()
    for _ in range(20):
        g = ZZ.sample_element(rng)
        assert ZZ.mul(g, e) == g
        assert ZZ.mul(e, g) == g


def test_product_formula_by_hand():
    # a = (1, {0 -> 2}), b = (0, {0 -> 3}) over integer translations:
    # same-support indices multiply pointwise after shifting by b's shift
    a = ZZ.element(1, {0: 2})
    b = ZZ.element(0, {0: 3})
    assert ZZ.mul(a, b) == ZZ.element(1, {0: 5})
    # the other order shifts a's support by one
    assert ZZ.mul(b, a) == ZZ.element(1, {0: 2, 1: 3})


def test_inverse_formula():
    rng = trial_rng(1, "inverse")
    for _ in range(40):
        g = ZZ.sample_element(rng)
        assert ZZ.is_identity(ZZ.mul(g, ZZ.inv(g)))
        assert ZZ.is_identity(ZZ.mul(ZZ.inv(g), g))
    g = ZZ.element(2, {0: 5, 3: -1})
    inv = ZZ.inv(g)
    assert inv.shift == -2
    assert inv.mapping() == {-2: -5, 1: 1}


def test_associativity_over_matrix_base():
    base = make_unitriangular_image_bundle(3)
    group = WreathGroup(base, Scalars("Z"))
    for t in range(50):
        rng = trial_rng(2, "assoc", t)
        a, b, c = (group.sample_element(rng) for _ in range(3))
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))


def test_identity_fixes_points():
    rng = trial_rng(3, "fix")
    for _ in range(20):
        p = ZZ.sample_point(rng)
        assert ZZ.act_vec(ZZ.identity(), p) == p


def test_pure_shift_action():
    g = ZZ.element(1, {})
    p = LexVec(ZZ.point_space, (4, ((0, 7), (2, -3))))
    moved = ZZ.act_vec(g, p)
    # first coordinate translated, support re-indexed by the shift
    assert moved.value[0] == 5
    assert moved.value[1] == ((-1, 7), (1, -3))


def test_action_axiom():
    base = make_unitriangular_image_bundle(3)
    group = WreathGroup(base, Scalars("Z"))
    for t in range(50):
        rng = trial_rng(4, "axiom", t)
        g, h = group.sample_element(rng), group.sample_element(rng)
        p = group.sample_point(rng)
        assert group.act_vec(g, group.act_vec(h, p)) == group.act_vec(group.mul(g, h), p)


def test_dilation_fixes_first_coordinate():
    rng = trial_rng(5, "first")
    for _ in range(30):
        g = ZZ.sample_element(rng)
        d = ZZ.sample_point(rng)
        assert ZZ.dilate_vec(g, d).value[0] == d.value[0]


def test_dilation_identity_element():
    rng = trial_rng(6, "dilate-id")
    d = ZZ.sample_point(rng)
    assert ZZ.dilate_vec(ZZ.identity(), d) == d


def test_affine_law_over_matrix_base():
    base = make_unitriangular_image_bundle(3)
    group = WreathGroup(base, Scalars("Z"))
    for t in range(50):
        rng = trial_rng(7, "law", t)
        g = group.sample_element(rng)
        p, q = group.sample_point(rng), group.sample_point(rng)
        lhs = lex_distance(group.act_vec(g, p), group.act_vec(g, q))
        assert lhs == group.dilate_vec(g, lex_distance(p, q))


def test_dilation_homomorphism():
    base = make_unitriangular_image_bundle(3)
    group = WreathGroup(base, Scalars("Z"))
    for t in range(30):
        rng = trial_rng(8, "alpha", t)
        g, h = group.sample_element(rng), group.sample_element(rng)
        d = group.sample_point(rng)
        lhs = group.dilate_vec(group.mul(g, h), d)
        assert lhs == group.dilate_vec(g, group.dilate_vec(h, d))


def test_freeness_and_rigidity_transfer():
    base = make_unitriangular_image_bundle(3)
    group = WreathGroup(base, Scalars("Z"))
    for t in range(30):
        rng = trial_rng(9, "free", t)
        g = group.sample_nontrivial(rng)
        signs = set()
        for _ in range(20):
            p = group.sample_point(rng)
            delta = group.act_vec(g, p) - p
            s = delta.sign()
            assert s != 0
            signs.add(s)
        assert len(signs) == 1


def test_single_level_translation():
    bundle = iterated_wreath(["Z"])
    assert isinstance(bundle, TranslationBundle)
    assert bundle.act(3, 4) == 7
    assert bundle.dilate(3, 4) == 4
    assert bundle.is_identity(bundle.identity())


def test_iterated_two_levels():
    group = iterated_wreath(["Z", "Z"])
    for t in range(40):
        rng = trial_rng(10, "lvl2", t)
        g = group.sample_nontrivial(rng)
        p, q = group.sample_point(rng), group.sample_point(rng)
        assert lex_distance(group.act_vec(g, p), group.act_vec(g, q)) == group.dilate_vec(
            g, lex_distance(p, q)
        )
        delta = group.act_vec(g, p) - p
        assert delta.sign() != 0


def test_iterated_three_levels():
    group = iterated_wreath(["Z", "Z", "Z"])
    for t in range(40):
        rng = trial_rng(11, "lvl3", t)
        g, h = group.sample_element(rng), group.sample_element(rng)
        p = group.sample_point(rng)
        assert group.act_vec(g, group.act_vec(h, p)) == group.act_vec(group.mul(g, h), p)
        q = group.sample_point(rng)
        lhs = lex_distance(group.act_vec(g, p), group.act_vec(g, q))
        assert lhs == group.dilate_vec(g, lex_distance(p, q))


def test_iterated_rational_levels():
    group = iterated_wreath(["Q", "Z"])
    rng = trial_rng(12, "rational")
    g = group.sample_nontrivial(rng)
    p = group.sample_point(rng)
    delta = group.act_vec(g, p) - p
    assert delta.sign() != 0


def test_empty_levels_rejected():
    with pytest.raises(EmptyLevels):
        iterated_wreath([])


def test_levels_beyond_the_bound_rejected():
    bundle = iterated_wreath(["Q"] * MAX_WREATH_LEVELS)
    depth = 0
    while isinstance(bundle, WreathGroup):
        bundle, depth = bundle.base, depth + 1
    assert depth == MAX_WREATH_LEVELS - 1
    for count in (MAX_WREATH_LEVELS + 1, 2_000):
        with pytest.raises(TooManyLevels):
            iterated_wreath(iter(["Z"] * count))


def test_structure_mismatch():
    with pytest.raises(StructureMismatch):
        ZZ.mul(ZZ.identity(), "nonsense")
    with pytest.raises(StructureMismatch):
        WreathGroup(TranslationBundle(Scalars("Z")), Scalars("R"))


def test_element_normalization():
    g = ZZ.element(0, {0: 0, 1: 5})
    assert g.mapping() == {1: 5}
    # fiber elements of a translation base are normalised like points
    assert repr(ZZ.element(0, {0: Fraction(4, 2)})) == repr(ZZ.element(0, {0: 2}))
    with pytest.raises(StructureMismatch):
        ZZ.element(0, [(0, 1), (0, 2)])


def test_element_rejects_foreign_automorphism():
    group = WreathGroup(make_unitriangular_image_bundle(3), Scalars("Z"))
    with pytest.raises(StructureMismatch):
        group.element(1, {0: from_affine_matrix(TriMat.identity(3))})


def assert_normal_vec(vec):
    assert repr(vec.value) == repr(vec.space.coerce(vec.value))


def assert_normal_elem(group, e):
    assert repr(e) == repr(group.element(e.shift, e.support))
    if isinstance(group.base, WreathGroup):
        for _, h in e.support:
            assert_normal_elem(group.base, h)


@pytest.mark.parametrize("levels", [("Z", "Z", "Z"), ("U3", "Z"), ("U3", "Q")])
def test_results_are_normal_forms(levels):
    """Results built without coercion equal their coerced forms exactly:
    same types, same index order and no zero fibres."""
    if levels[0] == "U3":
        group = WreathGroup(make_unitriangular_image_bundle(3), Scalars(levels[1]))
    else:
        group = iterated_wreath(levels)
    for t in range(15):
        rng = trial_rng(13, levels, t)
        g, h = group.sample_element(rng), group.sample_element(rng)
        p, q = group.sample_point(rng), group.sample_point(rng)
        for vec in (
            group.act_vec(g, p),
            group.act_vec(group.mul(g, group.inv(g)), p),
            group.dilate_vec(g, p - q),
            p + q,
            p - q,
            -p,
            lex_distance(p, q),
        ):
            assert_normal_vec(vec)
        for e in (group.mul(g, h), group.inv(g), group.mul(g, group.inv(g))):
            assert_normal_elem(group, e)


def test_expsum_aut_results_are_normal_forms():
    # mixed Fraction/ExpSum entries: every point coordinate is an ExpSum
    e = ExpSum.exponential
    aut = from_affine_matrix(
        TriMat(
            [
                [e(1, 2), Fraction(1, 2), e(Fraction(1, 3), -1), 0],
                [0, 1, 3, e(-1)],
                [0, 0, e(2), 2],
                [0, 0, 0, 1],
            ]
        )
    )
    inverse, square = aut.invert(), aut.compose(aut)
    for t in range(15):
        rng = trial_rng(14, "expsum-aut", t)
        p, q = (LexVec(aut.space, aut.space.sample(rng)) for _ in range(2))
        for vec in (
            aut.act(p),
            aut.dilate(p - q),
            inverse.act(aut.act(p)),
            square.act(p),
            aut.act(LexVec.zero(aut.space)),
            p + q,
            -p,
        ):
            assert_normal_vec(vec)
        assert inverse.act(aut.act(p)) == p


# -- the merge against the dict-and-sort bodies it replaced ------------------


class DictWreath(WreathGroup):
    """The oracle: supports and families copied into dicts keyed by index,
    then re-sorted."""

    def mul(self, a, b):
        out = {i + b.shift: k for i, k in a.support}
        for i, h in b.support:
            k = out.pop(i, None)
            v = h if k is None else self.base.mul(k, h)
            if k is None or not self.base.is_identity(v):
                out[i] = v
        return WreathElem(a.shift + b.shift, tuple(sorted(out.items())))

    def act(self, g, value):
        c, fam = value
        fiber = self.fiber_space
        moved = dict(fam)
        for src, h in g.support:
            v = self.base.act(h, moved.get(src, fiber.zero()))
            if fiber.is_zero(v):
                moved.pop(src, None)
            else:
                moved[src] = v
        return (c + g.shift, tuple(sorted((i - g.shift, v) for i, v in moved.items())))

    def dilate(self, g, value):
        c, fam = value
        hmap = g.mapping()
        out = []
        for src, v in fam:
            if src in hmap:
                v = self.base.dilate(hmap[src], v)
            if not self.fiber_space.is_zero(v):
                out.append((src - g.shift, v))
        return (c, tuple(out))


def oracle_group(group):
    if isinstance(group, WreathGroup):
        return DictWreath(oracle_group(group.base), group.index_space)
    return group


def index_pool(index):
    if index.kind == "Z":
        return list(range(-2, 3))
    # denominators with a common factor, so shifting one index by another
    # often leaves the parts unreduced and the gcd branch runs
    return sorted({Fraction(p, q) for p in range(-2, 3) for q in (1, 2, 3, 6)})


def killer(bundle, value):
    """A base element that acts on ``value`` to give zero."""
    if isinstance(bundle, TranslationBundle):
        return bundle.inv(value)
    if isinstance(bundle, WreathGroup):
        c, fam = value
        return bundle.element(-c, {i: killer(bundle.base, v) for i, v in fam})
    h = bundle.sample_element(trial_rng(0, "killer", repr(value)))
    moved = h._mat_apply(value, True)
    n = len(moved)
    rows = [[int(i == j) for j in range(n)] + [-x] for i, x in enumerate(reversed(moved))]
    shift = MatrixAffineAut(TriMat(rows + [[0] * n + [1]]), bundle.point_space)
    return shift.compose(h)


@st.composite
def wreath_cases(draw, group):
    """Elements a, b and points p, q with colliding indices: b's support
    holds inverses of some of a's fibers (so a*b loses them), and a's
    support holds fibers that act on p's fibers to give zero."""
    rng = trial_rng(draw(st.integers(0, 2**32 - 1)), "wreath-oracle")
    pool = index_pool(group.index_space)
    index = st.sampled_from(pool)

    def element(shift, extra):
        mapping = {i: group.base.sample_element(rng) for i in draw(st.lists(index, max_size=3))}
        return group.element(shift, {**mapping, **extra})

    def point():
        fam = {i: group.fiber_space.sample(rng) for i in draw(st.lists(index, max_size=3))}
        return group.point_space.coerce((draw(index), fam))

    p, q = point(), point()
    kills = {i: killer(group.base, v) for i, v in p[1] if draw(st.booleans())}
    a = element(draw(index), kills)
    tb = draw(index)
    undo = {i + tb: group.base.inv(k) for i, k in a.support if draw(st.booleans())}
    return a, element(tb, undo), p, q


def assert_same(got, want):
    assert got == want
    assert repr(got) == repr(want)


ORACLE_GROUPS = {
    "ZZZ": iterated_wreath(["Z", "Z", "Z"]),
    "QQ": iterated_wreath(["Q", "Q"]),
    "ZQQ": iterated_wreath(["Z", "Q", "Q"]),
    "U3-Z": WreathGroup(make_unitriangular_image_bundle(3), Scalars("Z")),
    "U3-Q": WreathGroup(make_unitriangular_image_bundle(3), Scalars("Q")),
}


@pytest.mark.parametrize("kind", ORACLE_GROUPS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_merge_matches_dict_oracle(kind, data):
    group = ORACLE_GROUPS[kind]
    oracle = oracle_group(group)
    a, b, p, q = data.draw(wreath_cases(group))
    for x, y in ((a, b), (b, a), (a, group.inv(a)), (group.inv(b), b), (a, a)):
        assert_same(group.mul(x, y), oracle.mul(x, y))
    assert group.is_identity(group.mul(a, group.inv(a)))
    ab = group.mul(a, b)
    for g in (a, b, ab, group.inv(a), group.identity()):
        for point in (p, q):
            assert_same(group.act(g, point), oracle.act(g, point))
            assert_same(group.dilate(g, point), oracle.dilate(g, point))
    # fibers that a acts to zero leave no entry behind
    fam, moved = dict(p[1]), dict(group.act(a, p)[1])
    for i, h in a.support:
        if i in fam and group.fiber_space.is_zero(group.base.act(h, fam[i])):
            assert i - a.shift not in moved


@pytest.mark.parametrize("kind", ORACLE_GROUPS)
def test_image_of_the_zero_point_matches_the_action(kind):
    # ZZZ's base is a wreath group, QQ's a translation bundle and U3's a
    # matrix bundle
    group = ORACLE_GROUPS[kind]
    for bundle in (group.base, group):
        zero = bundle.point_space.zero()
        for t in range(20):
            h = bundle.sample_element(trial_rng(32, "act-zero", kind, t))
            assert_same(bundle.act_zero(h), bundle.act(h, zero))


# -- pinned results on rational indices --------------------------------------

#: Groups whose results are pinned by digest: every level rational, a
#: rational level between two integer ones, and a rational wreath over the
#: affine maps of embedded U_3 images.
DIGEST_GROUPS = {
    "QQQ": lambda: iterated_wreath(["Q", "Q", "Q"]),
    "ZQZ": lambda: iterated_wreath(["Z", "Q", "Z"]),
    "U3-Q": lambda: WreathGroup(make_unitriangular_image_bundle(3), Scalars("Q")),
}

#: SHA-256 of :func:`wreath_transcript` for each group, recorded before
#: the rational index search, shift and sum moved to the int slots.
WREATH_DIGESTS = {
    "QQQ": "34aff302beeffed7d799f6d492c9a503ce8d782b8aee045bfba8b0f48145a65d",
    "ZQZ": "8614b2d9086f41bca306bce95fc5f110632008f0dd3cea6e0d9a1611682d67c5",
    "U3-Q": "0f5b50c6343932ab01f4c9e1f7e38f7cee580225091057f308325ff23023c595",
}


def wreath_inputs(group, trials=10):
    """Per trial an element g, points p and q, and their distance, drawn
    and compared with ``Fraction``'s own order, so before any test
    patches it."""
    out = []
    for t in range(trials):
        rng = trial_rng(33, "wreath-digest", t)
        g = group.sample_nontrivial(rng)
        p, q = group.sample_point(rng), group.sample_point(rng)
        out.append((g, p, q, lex_distance(p, q)))
    return out


def wreath_transcript(group, inputs, k=8) -> str:
    """The ``repr`` of orbits (k ``act_vec`` steps), powers g**1..g**k by
    ``mul``, ``inv`` and ``dilate_vec`` results, one per line."""
    lines = []
    for g, p, q, dist in inputs:
        orbit, powers = [p], [g]
        for _ in range(k):
            orbit.append(group.act_vec(g, orbit[-1]))
            powers.append(group.mul(powers[-1], g))
        inv = group.inv(g)
        lines += map(repr, orbit + powers)
        lines += map(repr, (inv, group.inv(powers[-1]), group.act_vec(inv, orbit[-1])))
        lines += map(repr, (group.dilate_vec(g, p - q), group.dilate_vec(inv, dist)))
    return "\n".join(lines)


def transcript_digest(group, inputs) -> str:
    return hashlib.sha256(wreath_transcript(group, inputs).encode()).hexdigest()


@pytest.mark.parametrize("kind", DIGEST_GROUPS)
def test_rational_index_results_match_pinned_digests(kind):
    group = DIGEST_GROUPS[kind]()
    assert transcript_digest(group, wreath_inputs(group)) == WREATH_DIGESTS[kind]


def dict_merge(a, b, sign):
    """a + sign * b for two Q -> Q families, through a dict and a sort."""
    out = dict(a)
    for i, v in b:
        out[i] = out.get(i, 0) + sign * v
    return tuple(sorted((i, v) for i, v in out.items() if v))


def test_rational_indices_take_no_fraction_comparison(monkeypatch):
    """With ``Fraction``'s ordering made to raise, the wreath operations
    and family sums on rational indices still give the pinned results:
    they search, shift and add on the int slots only."""
    groups = {kind: make() for kind, make in DIGEST_GROUPS.items()}
    inputs = {kind: wreath_inputs(group) for kind, group in groups.items()}
    fam = LexFamily(Scalars("Q"), Scalars("Q"))
    rng = trial_rng(34, "no-dispatch")
    pool = index_pool(Scalars("Q"))
    families = []
    for _ in range(30):
        a = fam.coerce({rng.choice(pool): Fraction(rng.randint(-3, 3), 2) for _ in range(4)})
        # b cancels some of a's values, adds to others and has its own indices
        b = fam.coerce(
            {**{i: -v for i, v in a if rng.random() < 0.5},
             **{rng.choice(pool): Fraction(rng.randint(-3, 3), 3) for _ in range(3)}}
        )
        families.append((a, b, dict_merge(a, b, 1), dict_merge(a, b, -1)))

    def no_order(self, other, op):
        raise AssertionError("a Fraction index was compared through Fraction")

    monkeypatch.setattr(Fraction, "_richcmp", no_order)
    for kind, group in groups.items():
        assert transcript_digest(group, inputs[kind]) == WREATH_DIGESTS[kind]
    for a, b, total, difference in families:
        assert_same(fam.add(a, b), total)
        assert_same(fam.sub(a, b), difference)
