import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinetrees.actions import from_affine_matrix
from affinetrees.cli import main
from affinetrees.errors import DimensionMismatch, ResultTooLarge
from affinetrees.jsonio import (
    affine_rep_from_json,
    affine_rep_to_json,
    dumps,
    image_and_conjugate_to_json,
    lexvec_from_json,
    lexvec_to_json,
    mat_from_json,
    mat_to_json,
    scalar_from_json,
    scalar_to_json,
    space_from_json,
    space_to_json,
    triangular_from_json,
    triangular_to_json,
    wreath_elem_from_json,
    wreath_elem_to_json,
)
from affinetrees.embedding import AffineRep, _clearing_scales, _embed_with_clearing_scales
from affinetrees.harness import make_unitriangular_image_bundle
from affinetrees.ordered import LexFamily, LexVec, Product, Scalars
from affinetrees.sampling import rand_unitriangular, trial_rng
from affinetrees.scalars import ExpSum
from affinetrees.triangular import TriangularElement
from affinetrees.trimat import MAX_COMMON_DENOMINATOR_BITS, TriMat
from affinetrees.wreath import TranslationBundle, WreathGroup


def test_scalar_encoding():
    assert scalar_to_json(Fraction(-3, 4)) == "-3/4"
    assert scalar_from_json("-3/4") == Fraction(-3, 4)
    assert scalar_from_json(7) == Fraction(7)
    value = ExpSum.exponential(Fraction(1, 2), 3) + ExpSum.constant(-2)
    encoded = scalar_to_json(value)
    # terms sorted by exponent ascending
    assert encoded == [
        {"coeff": "-2", "exp": "0"},
        {"coeff": "3", "exp": "1/2"},
    ]
    assert scalar_from_json(encoded) == value


def test_matrix_roundtrip():
    rng = trial_rng(0, "mat")
    mat = rand_unitriangular(rng, 4)
    assert mat_from_json(mat_to_json(mat)) == mat
    with pytest.raises(DimensionMismatch):
        mat_from_json({"n": 3, "entries": [["1"]]})
    with pytest.raises(ValueError):
        mat_from_json([1, 2, 3])


def test_matrix_json_is_serializable():
    mat = TriMat([[ExpSum.exponential(1), ExpSum.zero()], [ExpSum.zero(), ExpSum.one()]])
    text = json.dumps(mat_to_json(mat), sort_keys=True)
    assert mat_from_json(json.loads(text)) == mat


def test_affine_rep_roundtrip():
    rng = trial_rng(1, "rep")
    rep = AffineRep.of(rand_unitriangular(rng, 3))
    assert affine_rep_from_json(affine_rep_to_json(rep)) == rep


def test_triangular_roundtrip():
    rng = trial_rng(2, "tri")
    elem = TriangularElement(
        3, rand_unitriangular(rng, 3), (Fraction(1, 2), Fraction(0), Fraction(-2))
    )
    payload = triangular_to_json(elem)
    assert payload["diag_exponents"] == ["1/2", "0", "-2"]
    assert triangular_from_json(payload) == elem


def test_space_descriptors():
    space = Product(Scalars("Z"), LexFamily(Scalars("Q"), Scalars("R")))
    desc = space_to_json(space)
    assert space_from_json(desc) == space


def test_lexvec_roundtrip():
    space = Product(Scalars("Z"), LexFamily(Scalars("Z"), Scalars("Q")))
    vec = LexVec(space, (3, {1: Fraction(1, 2), -2: Fraction(4)}))
    payload = lexvec_to_json(vec)
    # support indices sorted ascending
    assert [item["index"] for item in payload["support"][1]] == ["-2", "1"]
    assert lexvec_from_json(payload) == vec


@pytest.mark.parametrize(
    "support, value", [(12, 12), ("12", 12), ("-3", -3), ("+4", 4), (" 7 ", 7), ("007", 7)]
)
def test_integer_values_accept_json_ints_and_ascii_digits(support, value):
    vec = lexvec_from_json({"index_space": "Z", "support": support})
    assert vec.value == value and type(vec.value) is int


@pytest.mark.parametrize(
    "support", ["1_000", "١٢", "１２", "1/1", "1e3", "12.0", "", "+", True, 1.0, None]
)
def test_integer_values_reject_other_spellings(support):
    with pytest.raises(ValueError):
        lexvec_from_json({"index_space": "Z", "support": support})


def test_wreath_elem_roundtrip_translation_base():
    group = WreathGroup(TranslationBundle(Scalars("Z")), Scalars("Z"))
    elem = group.element(2, {0: 5, 3: -1})
    payload = wreath_elem_to_json(group, elem, str)
    assert payload["shift"] == "2"
    assert payload["support"][0]["h"] == "5"
    assert wreath_elem_from_json(group, payload, int) == elem


def test_wreath_elem_roundtrip_matrix_base():
    base = make_unitriangular_image_bundle(3)
    group = WreathGroup(base, Scalars("Z"))
    rng = trial_rng(3, "welem")
    elem = group.sample_nontrivial(rng)
    payload = wreath_elem_to_json(group, elem, lambda h: mat_to_json(h.matrix))
    decoded = wreath_elem_from_json(
        group, payload, lambda obj: from_affine_matrix(mat_from_json(obj))
    )
    assert decoded == elem


# -- fuzzed documents: documented errors only, a clean CLI exit code -------------

fuzz_strings = st.one_of(
    st.sampled_from(["1/0", "-4/0", "0/0", "1/2", "-3", "0", "1", " 2 ", "x", ""]),
    st.from_regex(r"-?[0-9]{1,2}/[0-9]{1,2}", fullmatch=True),
    # exponent, decimal and digit-separator spellings are not rationals here
    st.sampled_from(["1e30000", "1E5", "-2e-3", "1.5", ".5", "3/4.0", "1_000", "1/1_0"]),
    st.from_regex(r"[+-]?[0-9]{1,2}(e[+-]?[0-9]{1,5}|\.[0-9]{0,2}|_[0-9]{1,2})", fullmatch=True),
    # non-ASCII digits are neither rationals nor integers here
    st.sampled_from(["١٢", "１２", "-٣", "٣/٤"]),
    st.text(max_size=4),
)
fuzz_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2, 2), fuzz_strings
)
fuzz_terms = st.lists(
    st.dictionaries(st.sampled_from(["exp", "coeff"]), fuzz_scalars, max_size=2),
    max_size=2,
)
fuzz_json = st.recursive(
    st.one_of(fuzz_scalars, fuzz_terms),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.sampled_from(["n", "entries", "exp", "coeff"]), children, max_size=3),
    ),
    max_leaves=20,
)
fuzz_matrices = st.integers(1, 4).flatmap(
    lambda n: st.fixed_dictionaries(
        {"entries": st.lists(
            st.lists(st.one_of(fuzz_strings, fuzz_terms), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )},
        optional={"n": st.one_of(st.integers(0, 5), fuzz_scalars)},
    )
)


@given(st.one_of(fuzz_json, fuzz_matrices))
@settings(max_examples=60, deadline=None)
def test_decoders_raise_only_documented_errors(doc):
    for decode in (mat_from_json, scalar_from_json):
        try:
            decode(doc)
        except (KeyError, TypeError, ValueError):
            pass


@given(st.one_of(fuzz_json, fuzz_matrices))
@settings(max_examples=60, deadline=None)
def test_hyperbolic_on_fuzzed_json_exits_cleanly(tmp_path_factory, doc):
    where = tmp_path_factory.mktemp("fuzz")
    src, out = where / "in.json", where / "out.json"
    src.write_text(json.dumps(doc))
    code = main(["hyperbolic", "--input", str(src), "--output", str(out)])
    assert code in (0, 2, 3)


# -- fuzzed act points and extend-tstar elements through the CLI ----------------
# Each case is (document, allowed exit codes).  A well-formed document exits
# 0; one with an array spelled as a string of its one-character items exits 2
# (decoding such a string character by character would succeed and exit 0);
# arbitrary documents exit 0, 2 or 3.

CLEAN_EXITS = (0, 2, 3)


def digit_lists(k):
    return st.lists(st.sampled_from("0123456789"), min_size=k, max_size=k)


fuzz_spaces = st.recursive(
    st.sampled_from(["Q", "R", "Z", "X", ""]) | st.text(max_size=3),
    lambda children: st.one_of(
        st.fixed_dictionaries(
            {"product": st.lists(children, max_size=3) | st.text(max_size=3)}
        ),
        st.fixed_dictionaries(
            {"family": st.fixed_dictionaries({"index": children, "fiber": children})}
        ),
    ),
    max_leaves=5,
)
fuzz_supports = st.recursive(
    st.one_of(fuzz_scalars, fuzz_terms),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(["index", "value"]), children, max_size=2),
    ),
    max_leaves=8,
)


@st.composite
def act_point_cases(draw):
    coords = draw(digit_lists(2))
    kinds = ["array", "object", "bare-string", "product", "support", "extra", "z-index"]
    kind = draw(st.sampled_from(kinds))
    if kind == "array":
        return coords, (0,)
    if kind == "bare-string":
        return "".join(coords), (2,)
    space = {"product": ["Q", "Q"]}
    if kind == "object":
        return {"index_space": space, "support": coords}, (0,)
    if kind == "product":
        return {"index_space": {"product": "QQ"}, "support": coords}, (2,)
    if kind == "extra":
        return {"index_space": space, "support": coords + coords[:1]}, (2,)
    if kind == "z-index":
        index = draw(st.sampled_from(["1_000", "١٢", "１２", "1/1", "12.0"]))
        family = {"family": {"index": "Z", "fiber": "Q"}}
        return {"index_space": family, "support": [{"index": index, "value": "1"}]}, (2,)
    return {"index_space": space, "support": "".join(coords)}, (2,)


fuzz_act_points = st.one_of(
    act_point_cases(),
    st.tuples(
        st.lists(st.one_of(fuzz_scalars, fuzz_terms), max_size=3), st.just(CLEAN_EXITS)
    ),
    st.tuples(
        st.fixed_dictionaries({"index_space": fuzz_spaces, "support": fuzz_supports}),
        st.just(CLEAN_EXITS),
    ),
    st.tuples(fuzz_json, st.just(CLEAN_EXITS)),
)


@st.composite
def tstar_cases(draw):
    n = draw(st.integers(2, 3))
    above = iter(draw(digit_lists(n * (n - 1) // 2)))
    rows = [
        ["1" if i == j else "0" if j < i else next(above) for j in range(n)]
        for i in range(n)
    ]
    exps = draw(digit_lists(n))
    kind = draw(st.sampled_from(["arrays", "rows", "diag_exponents"]))
    entries = ["".join(row) for row in rows] if kind == "rows" else rows
    if kind == "diag_exponents":
        exps = "".join(exps)
    doc = {"n": n, "u": {"n": n, "entries": entries}, "diag_exponents": exps}
    return doc, (0,) if kind == "arrays" else (2,)


fuzz_tstar_elements = st.one_of(
    tstar_cases(),
    st.tuples(
        st.fixed_dictionaries(
            {
                "n": st.one_of(st.integers(0, 4), fuzz_scalars),
                "u": st.one_of(fuzz_json, fuzz_matrices),
                "diag_exponents": st.one_of(fuzz_json, fuzz_strings),
            }
        ),
        st.just(CLEAN_EXITS),
    ),
    st.tuples(fuzz_json, st.just(CLEAN_EXITS)),
)


def run_fuzzed(where, argv, docs):
    """Run ``affinetrees`` in process with each ``--flag: document`` of
    ``docs`` written to a file; return the exit code and stderr."""
    for flag, doc in docs.items():
        path = where / f"{flag[2:]}.json"
        path.write_text(json.dumps(doc))
        argv = argv + [flag, str(path)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--output", str(where / "out.json")])
    return code, err.getvalue()


@given(fuzz_act_points)
@settings(max_examples=80, deadline=None)
def test_act_on_fuzzed_points_exits_cleanly(tmp_path_factory, case):
    point, allowed = case
    rep = {"entries": [["1", "1/2", "1"], ["0", "1", "2"], ["0", "0", "1"]]}
    code, err = run_fuzzed(
        tmp_path_factory.mktemp("act"), ["act"], {"--rep": rep, "--point": point}
    )
    assert code in allowed and "Traceback" not in err


@given(fuzz_tstar_elements)
@settings(max_examples=80, deadline=None)
def test_extend_tstar_on_fuzzed_elements_exits_cleanly(tmp_path_factory, case):
    elem, allowed = case
    code, err = run_fuzzed(
        tmp_path_factory.mktemp("tstar"), ["extend-tstar"], {"--input": elem}
    )
    assert code in allowed and "Traceback" not in err


# -- the writer against json.dumps(..., sort_keys=True, indent=2) --------------

tricky_strings = st.one_of(
    st.text(max_size=6),
    st.sampled_from(
        ['"', "\\", '\\"', "\n\t\r\b\f", "\x00\x1f\x7f", ""]
        + ["é", "日本", "𝔽", "\u2028", "\ud800"]
    ),
)
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**100, -(10**100), -1, 0]),
    tricky_strings,
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(tricky_strings, min_size=1, max_size=4),
        # check witnesses hold tuples, which json.dumps writes as arrays
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(tricky_strings, children, max_size=4),
    ),
    max_leaves=25,
)


@given(json_values)
@settings(max_examples=300, deadline=None)
def test_dumps_matches_indented_sorted_json_dumps(value):
    assert dumps(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("odd", ['"', "\\", "\n", "é", "\u2028", "\ud800"])
@pytest.mark.parametrize("at", [0, 3, 6])
def test_dumps_escapes_the_one_string_of_a_digit_row_that_needs_it(odd, at):
    # a row is escaped once as a whole, so one escapable item among plain
    # digit strings must send the row back to the per-item path
    row = ["0", "1", "-3/4", "12", "0", "7", "0"]
    row[at] = row[at] + odd
    value = {"entries": [row, ["0", "1", "5"], ["2/3"] * 3], "n": 3}
    assert dumps(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [Fraction(1, 2), ["a", Fraction(1)], {"a": {1, 2}}])
def test_dumps_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        dumps(value)


@pytest.mark.parametrize("value", [{1: "a"}, 1.5, ["a", float("nan")]])
def test_dumps_takes_no_floats_or_other_keys(value):
    with pytest.raises(TypeError):
        dumps(value)


# -- the memoised matrix decoder against per-entry decoding ---------------------

rational_cells = st.one_of(
    st.sampled_from(["0", "1", "-1", "1/2", " 2 ", "+3", "2/4", "007", "-0"]),
    st.from_regex(r"-?[0-9]{1,2}(/[1-9][0-9]?)?", fullmatch=True),
    st.integers(-9, 9),
)
rational_strings = st.from_regex(r"-?[0-9](/[1-9])?", fullmatch=True)
expsum_cells = st.lists(
    st.fixed_dictionaries({"exp": rational_strings, "coeff": rational_strings}),
    max_size=3,
)
CELLS = {
    "Q": rational_cells,
    "R": expsum_cells,
    "mixed": st.one_of(rational_cells, expsum_cells),
}


@st.composite
def matrix_docs(draw):
    n = draw(st.integers(1, 6))
    cells = CELLS[draw(st.sampled_from(sorted(CELLS)))]
    row = st.lists(cells, min_size=n, max_size=n)
    return {"n": n, "entries": draw(st.lists(row, min_size=n, max_size=n))}


def per_entry_decoding(doc):
    return TriMat([[scalar_from_json(v) for v in row] for row in doc["entries"]])


@given(matrix_docs())
@settings(max_examples=150, deadline=None)
def test_mat_from_json_matches_per_entry_decoding(doc):
    new, ref = mat_from_json(doc), per_entry_decoding(doc)
    assert new == ref
    assert repr(new) == repr(ref)
    assert [type(v) for row in new.rows for v in row] == [
        type(v) for row in ref.rows for v in row
    ]


@pytest.mark.parametrize(
    "entries, message",
    [
        ([["x"] * 5 for _ in range(5)], "not a rational: 'x'"),
        (
            [["1", "2", "3"], ["0", "1", "2 "], ["2 ", "2 ", "2.0"]],
            "not a rational: '2.0'",
        ),
        ([["1", True], ["0", "1"]], "not a rational: True"),
        ([["1", "1/0"], ["1/0", "1/0"]], "zero denominator: '1/0'"),
        ([["1", "2"], "01"], "matrix row must be a JSON array, got str"),
        # entries are read in order: a bad one before a bad row is reported
        ([["1", "x"], "01"], "not a rational: 'x'"),
        ([["1", [{"exp": "1", "coeff": "z"}]], ["0", "y"]], "not a rational: 'z'"),
    ],
)
def test_malformed_matrices_keep_their_message(tmp_path, entries, message):
    doc = {"entries": entries}
    with pytest.raises(ValueError) as caught:
        mat_from_json(doc)
    assert str(caught.value) == message
    code, err = run_fuzzed(tmp_path, ["hyperbolic"], {"--input": doc})
    assert code == 2
    assert err == f"error: malformed matrix JSON: {message}\n"


# -- the rational encoder against per-entry encoding ----------------------------

PAST = 2**MAX_COMMON_DENOMINATOR_BITS + 1
ENTRIES = {
    "Q": st.fractions(min_value=-9, max_value=9, max_denominator=9),
    "Q-past-cutoff": st.builds(
        lambda p, q: Fraction(p, q * PAST), st.integers(-9, 9), st.integers(1, 9)
    ),
    "R": expsum_cells.map(scalar_from_json),
}


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 6))
    ring = draw(st.sampled_from(sorted(ENTRIES)))
    zero = st.just(Fraction(0)) if ring != "R" else st.just(ExpSum())
    cells = st.one_of(zero, ENTRIES[ring])
    row = st.lists(cells, min_size=n, max_size=n)
    return TriMat(draw(st.lists(row, min_size=n, max_size=n)))


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_mat_to_json_matches_per_entry_encoding(mat):
    assert mat_to_json(mat) == {
        "n": mat.n,
        "entries": [[scalar_to_json(v) for v in row] for row in mat.rows],
    }


def test_mat_to_json_of_a_rational_matrix_too_large_to_print():
    # two 3,002-digit denominators: the image and the conjugator of
    # ``embed --integerize`` both have entries with more digits than
    # Python writes as text
    a, b = 10**3001 + 7, 10**3001 + 9
    mat = TriMat([[1, Fraction(1, a), 0], [0, 1, Fraction(1, b)], [0, 0, 1]])
    image = AffineRep.of(mat).matrix
    scale = _clearing_scales([image, image.inverse()])
    for big in (image, TriMat.diagonal(scale)):
        assert not big.expsum
        with pytest.raises(ResultTooLarge):
            mat_to_json(big)
    # the image written from its integer rows, and its conjugate
    rows, scale = _embed_with_clearing_scales(mat)
    with pytest.raises(ResultTooLarge):
        image_and_conjugate_to_json(rows, scale)
