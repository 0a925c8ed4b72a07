import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial, lcm

import pytest
import affinetrees
from affinetrees import cli, jsonio, scalars, trimat
from affinetrees.cli import MAX_POINT_TERMS, MAX_POWER, main
from affinetrees.embedding import AffineRep
from affinetrees.harness import MAX_SAMPLES, example4_image
from affinetrees.jsonio import mat_from_json, mat_to_json
from affinetrees.sampling import rand_unitriangular, trial_rng
from affinetrees.triangular import TriangularElement
from affinetrees.trimat import TriMat
from affinetrees.wreath import MAX_WREATH_LEVELS


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def identity_json(n):
    return mat_to_json(TriMat.identity(n))


def test_embed_identity(tmp_path, capsys):
    src = write_json(tmp_path / "in.json", identity_json(3))
    code, out, _ = run_cli(capsys, "embed", "--input", src)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3 and payload["m"] == 3
    assert mat_from_json(payload["matrix"]) == TriMat.identity(4)


def test_embed_example_binding_all_ones(tmp_path, capsys):
    mat = TriMat([[1, 1, 1, 1], [0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1]])
    src = write_json(tmp_path / "in.json", mat_to_json(mat))
    code, out, _ = run_cli(capsys, "embed", "--input", src, "--n", "4")
    assert code == 0
    payload = json.loads(out)
    expected = example4_image(*(Fraction(1),) * 6)
    assert mat_from_json(payload["matrix"]) == expected


def test_embed_with_integerize(tmp_path, capsys):
    mat = TriMat([[1, Fraction(1, 2)], [0, 1]])
    src = write_json(tmp_path / "in.json", mat_to_json(mat))
    code, out, _ = run_cli(capsys, "embed", "--input", src, "--integerize")
    assert code == 0
    payload = json.loads(out)
    assert mat_from_json(payload["integerized"]["P"]) == TriMat.diagonal([2, 1])
    assert mat_from_json(payload["integerized"]["conjugated"]) == TriMat(
        [[1, 1], [0, 1]]
    )


def test_embed_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "embed", "--input", str(bad))
    assert code == 2
    assert "JSON" in err


def test_embed_dimension_flag_mismatch(tmp_path, capsys):
    src = write_json(tmp_path / "in.json", identity_json(3))
    code, _, err = run_cli(capsys, "embed", "--input", src, "--n", "4")
    assert code == 2


def test_embed_precondition_violation(tmp_path, capsys):
    src = write_json(
        tmp_path / "in.json", mat_to_json(TriMat([[2, 0], [0, 1]]))
    )
    code, _, err = run_cli(capsys, "embed", "--input", src)
    assert code == 3
    assert "NotUnitriangular" in err


def test_embed_rejects_dimension_one(tmp_path, capsys):
    src = write_json(tmp_path / "in.json", identity_json(1))
    code, _, err = run_cli(capsys, "embed", "--input", src)
    assert code == 3
    assert "2 <= n <= 8" in err


def test_embed_rejects_dimension_nine(tmp_path, capsys):
    src = write_json(tmp_path / "in.json", identity_json(9))
    code, out, err = run_cli(capsys, "embed", "--input", src)
    assert code == 3 and out == ""
    assert "2 <= n <= 8" in err


def test_hyperbolic_subcommand(tmp_path, capsys):
    translation = TriMat([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    src = write_json(tmp_path / "t.json", mat_to_json(translation))
    code, out, _ = run_cli(capsys, "hyperbolic", "--input", src)
    assert code == 0
    assert json.loads(out) == {"essentially_hyperbolic": True}
    src = write_json(tmp_path / "id.json", identity_json(3))
    code, _, err = run_cli(capsys, "hyperbolic", "--input", src)
    assert code == 3
    assert "IdentityInput" in err


def test_integerize_subcommand(tmp_path, capsys):
    a = TriMat([[1, Fraction(1, 2)], [0, 1]])
    b = TriMat([[1, Fraction(-1, 2)], [0, 1]])
    src = write_json(tmp_path / "gens.json", [mat_to_json(a), mat_to_json(b)])
    code, out, _ = run_cli(capsys, "integerize", "--input", src)
    assert code == 0
    payload = json.loads(out)
    assert mat_from_json(payload["P"]) == TriMat.diagonal([2, 1])
    assert len(payload["conjugated"]) == 2
    # inverse closure enforced
    src = write_json(tmp_path / "open.json", [mat_to_json(a)])
    code, _, err = run_cli(capsys, "integerize", "--input", src)
    assert code == 3
    assert "NotInverseClosed" in err


def test_extend_tstar_subcommand(tmp_path, capsys):
    elem = {
        "n": 2,
        "u": {"n": 2, "entries": [["1", "1/2"], ["0", "1"]]},
        "diag_exponents": ["1", "0"],
    }
    src = write_json(tmp_path / "g.json", elem)
    code, out, _ = run_cli(capsys, "extend-tstar", "--input", src)
    assert code == 0
    payload = json.loads(out)
    assert payload["essentially_free"] is True
    mat = mat_from_json(payload["matrix"])
    assert mat.n == 4  # m + n + 1 with n=2, m=1


def test_extend_tstar_rejects_dimension_one(tmp_path, capsys):
    elem = {"n": 1, "u": identity_json(1), "diag_exponents": ["1"]}
    src = write_json(tmp_path / "g.json", elem)
    code, _, err = run_cli(capsys, "extend-tstar", "--input", src)
    assert code == 3
    assert "2 <= n <= 8" in err


def test_extend_tstar_rejects_dimension_nine(tmp_path, capsys):
    elem = {"n": 9, "u": identity_json(9), "diag_exponents": ["1"] * 9}
    src = write_json(tmp_path / "g.json", elem)
    code, out, err = run_cli(capsys, "extend-tstar", "--input", src)
    assert code == 3 and out == ""
    assert "2 <= n <= 8" in err


@pytest.mark.parametrize(
    "entries, exponents, code, message",
    [
        # a u that is not unitriangular is a precondition, exit 3 as in embed
        ([["2", "1"], ["0", "1"]], ["1", "0"], 3, "error: NotUnitriangular: "),
        ([["1", "1"], ["1/3", "1"]], ["1", "0"], 3, "error: NotUnitriangular: "),
        # a u or exponent list of the wrong length is malformed, exit 2
        ([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], ["1", "0"], 2,
         "error: malformed element JSON: unipotent part has wrong dimension"),
        ([["1", "1"], ["0", "1"]], ["1"], 2,
         "error: malformed element JSON: one diagonal exponent per row required"),
    ],
    ids=["diagonal-2", "below-diagonal", "u-wrong-size", "exponents-wrong-size"],
)
def test_extend_tstar_exit_code_tells_precondition_from_shape(
    tmp_path, capsys, entries, exponents, code, message
):
    elem = {"n": 2, "u": {"entries": entries}, "diag_exponents": exponents}
    src = write_json(tmp_path / "g.json", elem)
    got, out, err = run_cli(capsys, "extend-tstar", "--input", src)
    assert (got, out) == (code, "")
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize(
    "elem",
    [
        {"n": 2.0, "u": identity_json(2), "diag_exponents": ["1", "0"]},
        {"n": "2", "u": identity_json(2), "diag_exponents": ["1", "0"]},
        {"n": True, "u": identity_json(2), "diag_exponents": ["1", "0"]},
        {"u": identity_json(2), "diag_exponents": ["1", "0"]},
        [],
        "n",
    ],
)
def test_extend_tstar_rejects_malformed_element(tmp_path, capsys, elem):
    src = write_json(tmp_path / "g.json", elem)
    code, out, err = run_cli(capsys, "extend-tstar", "--input", src)
    assert code == 2 and out == ""
    assert err.startswith("error: malformed element JSON: ") and err.count("\n") == 1
    assert "'n'" in err


@pytest.mark.parametrize("n", [2.0, True, "2"])
def test_embed_rejects_a_matrix_n_that_is_not_an_integer(tmp_path, capsys, n):
    src = write_json(tmp_path / "m.json", {**identity_json(2), "n": n})
    code, out, err = run_cli(capsys, "embed", "--input", src)
    assert code == 2 and out == ""
    assert err.startswith("error: malformed matrix JSON: ") and err.count("\n") == 1
    assert "'n' must be a JSON integer" in err


@pytest.mark.parametrize("n", [2.0, True, "2"])
def test_extend_tstar_rejects_a_u_n_that_is_not_an_integer(tmp_path, capsys, n):
    elem = {"n": 2, "u": {**identity_json(2), "n": n}, "diag_exponents": ["1", "0"]}
    src = write_json(tmp_path / "g.json", elem)
    code, out, err = run_cli(capsys, "extend-tstar", "--input", src)
    assert code == 2 and out == ""
    assert err.startswith("error: malformed element JSON: ") and err.count("\n") == 1
    assert "'n' must be a JSON integer" in err


def test_act_identity(tmp_path, capsys):
    rep = write_json(tmp_path / "rep.json", identity_json(4))
    point = write_json(tmp_path / "p.json", ["1", "2/3", "-5"])
    code, out, _ = run_cli(capsys, "act", "--rep", rep, "--point", point)
    assert code == 0
    assert json.loads(out) == ["1", "2/3", "-5"]


def test_act_translation_power(tmp_path, capsys):
    mat = TriMat([[1, 0, 2], [0, 1, 3], [0, 0, 1]])
    rep = write_json(tmp_path / "rep.json", mat_to_json(mat))
    point = write_json(tmp_path / "p.json", ["1", "1"])
    code, out, _ = run_cli(
        capsys, "act", "--rep", rep, "--point", point, "--power", "3"
    )
    assert code == 0
    assert json.loads(out) == ["7", "10"]


def test_act_on_origin_returns_translation_column(tmp_path, capsys):
    mat = TriMat([[1, 1, 1, 1], [0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1]])
    from affinetrees.embedding import embed_unitriangular

    image = embed_unitriangular(mat)
    rep = write_json(tmp_path / "rep.json", mat_to_json(image))
    point = write_json(tmp_path / "p.json", ["0"] * 6)
    code, out, _ = run_cli(capsys, "act", "--rep", rep, "--point", point)
    assert code == 0
    expected = [str(image.rows[i][6]) for i in range(6)]
    assert json.loads(out) == expected


def test_act_negative_power_inverts(tmp_path, capsys):
    mat = TriMat([[1, 0, 2], [0, 1, 3], [0, 0, 1]])
    rep = write_json(tmp_path / "rep.json", mat_to_json(mat))
    point = write_json(tmp_path / "p.json", ["2", "3"])
    code, out, _ = run_cli(
        capsys, "act", "--rep", rep, "--point", point, "--power", "-1"
    )
    assert code == 0
    assert json.loads(out) == ["0", "0"]


@pytest.mark.parametrize("power", [MAX_POWER, -MAX_POWER])
def test_act_power_at_bound(tmp_path, capsys, power):
    rep = write_json(tmp_path / "rep.json", mat_to_json(TriMat([[1, 1], [0, 1]])))
    point = write_json(tmp_path / "p.json", ["0"])
    code, out, _ = run_cli(
        capsys, "act", "--rep", rep, "--point", point, "--power", str(power)
    )
    assert code == 0
    assert json.loads(out) == [str(power)]


@pytest.mark.parametrize("power", [MAX_POWER, -MAX_POWER])
def test_act_power_on_exact_real_image_stops_at_term_bound(tmp_path, capsys, power):
    # each step moves the exponents and adds about 43 terms, and the steps
    # grow dearer: all 10,000 would take hours; the term bound stops it
    n = 3
    u = TriMat(
        [[Fraction(int(i == j)) if j <= i else Fraction(1, 2 + i + j) for j in range(n)] for i in range(n)]
    )
    g = TriangularElement(n, u, (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5)))
    src = write_json(tmp_path / "g.json", jsonio.triangular_to_json(g))
    code, out, _ = run_cli(capsys, "extend-tstar", "--input", src)
    assert code == 0
    rep = write_json(tmp_path / "rep.json", json.loads(out))
    point = write_json(tmp_path / "p.json", ["1/3"] * 6)
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "act", "--rep", rep, "--point", point, "--power", str(power)
    )
    assert time.perf_counter() - start < 60
    assert code == 3 and out == ""
    assert err.startswith("error: ResultTooLarge: ") and err.count("\n") == 1
    assert f"more than {MAX_POINT_TERMS} exponential-sum terms" in err


@pytest.mark.parametrize("power", [MAX_POWER + 1, -MAX_POWER - 1])
def test_act_rejects_power_beyond_bound(tmp_path, capsys, power):
    # the files do not exist: the bound is checked before any JSON is read
    missing = str(tmp_path / "missing.json")
    code, _, err = run_cli(
        capsys, "act", "--rep", missing, "--point", missing, "--power", str(power)
    )
    assert code == 2
    assert "--power" in err


@pytest.mark.parametrize("bad", [["abc"], [[{"coeff": "1"}]], [1.5]])
def test_act_rejects_malformed_bare_point(tmp_path, capsys, bad):
    rep = write_json(tmp_path / "rep.json", identity_json(2))
    point = write_json(tmp_path / "p.json", bad)
    code, _, err = run_cli(capsys, "act", "--rep", rep, "--point", point)
    assert code == 2
    assert "malformed point JSON" in err


ZERO_DENOMINATOR = {"n": 2, "entries": [["1", "1/0"], ["0", "1"]]}


def entry_matrix3(text):
    """3 x 3 unitriangular matrix JSON with ``text`` in the corner entry."""
    return {"n": 3, "entries": [["1", "0", text], ["0", "1", "0"], ["0", "0", "1"]]}


@pytest.mark.parametrize(
    "command, inputs",
    [
        ("embed", {"--input": ZERO_DENOMINATOR}),
        ("hyperbolic", {"--input": ZERO_DENOMINATOR}),
        ("integerize", {"--input": [ZERO_DENOMINATOR]}),
        (
            "extend-tstar",
            {"--input": {"n": 2, "u": identity_json(2), "diag_exponents": ["1/0", "0"]}},
        ),
        ("act", {"--rep": identity_json(2), "--point": ["3/0"]}),
        # only 'p' and 'p/q' are rationals: no exponents, decimals or separators
        ("embed --integerize", {"--input": entry_matrix3("1e30000")}),
        ("embed --integerize", {"--input": entry_matrix3("1.5")}),
        ("embed --integerize", {"--input": entry_matrix3("1_000")}),
        # a JSON string is not an array, even when its characters would parse
        ("embed", {"--input": {"entries": ["10", "01"]}}),
        (
            "extend-tstar",
            {"--input": {"n": 2, "u": identity_json(2), "diag_exponents": "01"}},
        ),
        (
            "act",
            {
                "--rep": identity_json(3),
                "--point": {"index_space": {"product": "QQ"}, "support": ["1", "2"]},
            },
        ),
    ],
)
def test_zero_denominator_is_malformed_input(tmp_path, capsys, command, inputs):
    argv = command.split()
    for flag, payload in inputs.items():
        argv += [flag, write_json(tmp_path / f"{flag[2:]}.json", payload)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("flags", [[], ["--integerize"]])
def test_result_too_large_to_print_is_a_precondition(tmp_path, capsys, flags):
    # two 3,002-digit denominators: the image's entries have more digits
    # than Python writes as text
    a, b = "1" + "0" * 3000 + "7", "1" + "0" * 3000 + "9"
    entries = [["1", f"1/{a}", "0"], ["0", "1", f"1/{b}"], ["0", "0", "1"]]
    src = write_json(tmp_path / "in.json", {"n": 3, "entries": entries})
    code, out, err = run_cli(capsys, "embed", *flags, "--input", src)
    assert code == 3 and out == ""
    assert err.startswith("error: ResultTooLarge: ") and err.count("\n") == 1
    assert "Traceback" not in err


EXPSUM_MATRIX = {
    "n": 2,
    "entries": [["1", [{"coeff": "1", "exp": "1"}]], ["0", "1"]],
}


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["embed", "--integerize"], EXPSUM_MATRIX),
        (["integerize"], [EXPSUM_MATRIX]),
        (["integerize"], []),
    ],
)
def test_clearing_denominators_rejects_non_rational_input(tmp_path, capsys, argv, payload):
    src = write_json(tmp_path / "in.json", payload)
    code, out, err = run_cli(capsys, *argv, "--input", src)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_act_mixed_ring_zero_coordinate(tmp_path, capsys):
    e = [{"coeff": "1", "exp": "1"}]
    rep = write_json(
        tmp_path / "rep.json",
        {"entries": [["1", "0", "0"], ["0", "1", e], ["0", "0", "1"]]},
    )
    point = write_json(tmp_path / "p.json", ["0", "2"])
    code, out, _ = run_cli(capsys, "act", "--rep", rep, "--point", point)
    assert code == 0
    # the zero coordinate is the empty exponential sum, not the rational "0"
    assert json.loads(out) == [[], [{"coeff": "2", "exp": "0"}, {"coeff": "1", "exp": "1"}]]


def test_verify_subcommand_passes(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--suite",
        "lsa",
        "--n",
        "4",
        "--samples",
        "5",
        "--seed",
        "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True


def test_verify_rejects_zero_samples(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--suite", "lsa", "--n", "4", "--samples", "0", "--seed", "1"
    )
    assert code == 2


def test_verify_range_syntax(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--suite",
        "integerize",
        "--n",
        "2..3",
        "--samples",
        "2",
        "--seed",
        "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["n_low"] == 2 and payload["config"]["n_high"] == 3


def test_verify_deterministic_output(capsys):
    args = ["verify", "--suite", "lsa", "--n", "3", "--samples", "4", "--seed", "9"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_wreath_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "wreath", "--levels", "Z,Z", "--samples", "5", "--seed", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["levels"] == ["Z", "Z"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "lsa", "--n", "4"],
        ["verify", "--suite", "all", "--n", "2..8"],
        ["wreath", "--levels", "Z,Z"],
    ],
)
def test_rejects_samples_beyond_bound(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--samples", str(MAX_SAMPLES + 1))
    assert code == 2 and out == ""
    assert "samples" in err


def test_wreath_rejects_bad_levels(capsys):
    code, _, err = run_cli(capsys, "wreath", "--levels", "Z,X", "--samples", "3")
    assert code == 2


def test_wreath_accepts_the_level_bound(capsys):
    levels = ",".join(["Z"] * MAX_WREATH_LEVELS)
    code, out, _ = run_cli(capsys, "wreath", "--levels", levels, "--samples", "1")
    assert code == 0
    assert len(json.loads(out)["levels"]) == MAX_WREATH_LEVELS


@pytest.mark.parametrize("count", [MAX_WREATH_LEVELS + 1, 2_000])
def test_wreath_rejects_levels_beyond_the_bound(capsys, count):
    levels = ",".join(["Z"] * count)
    code, out, err = run_cli(capsys, "wreath", "--levels", levels, "--samples", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: --levels: ") and err.count("\n") == 1
    assert f"{count} levels" in err and "Traceback" not in err


def test_output_file(tmp_path, capsys):
    src = write_json(tmp_path / "in.json", identity_json(2))
    dst = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "embed", "--input", src, "--output", str(dst)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(dst.read_text())
    assert payload["m"] == 1


def test_env_refinement_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AFFINE_MAX_REFINEMENTS", "not-a-number")
    src = write_json(tmp_path / "in.json", identity_json(2))
    code, _, err = run_cli(capsys, "embed", "--input", src)
    assert code == 2
    monkeypatch.setenv("AFFINE_MAX_REFINEMENTS", "32")
    code, _, _ = run_cli(capsys, "embed", "--input", src)
    assert code == 0
    # the override applies to that call only
    from affinetrees import scalars

    assert scalars.get_default_max_refinements() == 64


def test_refinement_budget_from_the_environment(tmp_path, capsys, monkeypatch):
    # e - c, with c the 53-digit decimal expansion of e cut after 52
    # places, is about 7.5e-53: one refinement cannot separate its sign
    # from 0, the default budget can
    c = Fraction(27182818284590452353602874713526624977572470936999595, 10**52)
    diagonal = [{"coeff": "1", "exp": "1"}, {"coeff": str(-c), "exp": "0"}]
    rep = write_json(
        tmp_path / "rep.json", {"entries": [[diagonal, "1/2"], ["0", "1"]]}
    )
    point = write_json(tmp_path / "p.json", ["3"])
    monkeypatch.setenv("AFFINE_MAX_REFINEMENTS", "1")
    code, out, err = run_cli(capsys, "act", "--rep", rep, "--point", point)
    assert code == 3 and out == ""
    assert err.startswith("error: PrecisionExhausted: ") and err.count("\n") == 1
    assert scalars.get_default_max_refinements() == 64
    monkeypatch.delenv("AFFINE_MAX_REFINEMENTS")
    code, out, err = run_cli(capsys, "act", "--rep", rep, "--point", point)
    assert code == 0 and err == ""
    # (e - c) * 3 + 1/2
    assert json.loads(out) == [
        [{"coeff": str(Fraction(1, 2) - 3 * c), "exp": "0"}, {"coeff": "3", "exp": "1"}]
    ]


def test_deeply_nested_json_is_malformed_input(tmp_path, capsys):
    src = tmp_path / "deep.json"
    src.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "hyperbolic", "--input", str(src))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


# -- structural guards on the request path ----------------------------------------


def test_embed_integerize_runs_no_series_on_the_image_and_one_inverse_of_the_input(
    tmp_path, capsys, monkeypatch
):
    # the image and its inverse's denominators are assembled from g and
    # g**-1: one inversion, of the 8 x 8 input, is the only series, and
    # nothing runs over the 29 x 29 algebra matrix
    g = rand_unitriangular(trial_rng(40, "invert-once"), 8)
    src = write_json(tmp_path / "in.json", mat_to_json(g))
    inverses, lengths = [], []
    inverse, series = TriMat.inverse, trimat._series

    def counting_inverse(self):
        inverses.append(self.n)
        return inverse(self)

    def counting_series(mat, *args):
        lengths.append(mat.n)
        return series(mat, *args)

    monkeypatch.setattr(TriMat, "inverse", counting_inverse)
    monkeypatch.setattr(trimat, "_series", counting_series)
    code, _, _ = run_cli(capsys, "embed", "--input", src, "--integerize")
    assert code == 0
    assert inverses == [8]
    assert lengths == [8]


def run_alone(*argv):
    """``python *argv`` in a fresh interpreter: (exit code, stdout)."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(affinetrees.__file__)))
    done = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    return done.returncode, done.stdout


def test_shared_parser_keeps_no_state_between_requests(tmp_path, capsys):
    g = rand_unitriangular(trial_rng(41, "shared-parser"), 5)
    src = write_json(tmp_path / "in.json", mat_to_json(g))
    _, embedded, _ = run_cli(capsys, "embed", "--input", src, "--integerize")
    image = write_json(tmp_path / "image.json", json.loads(embedded)["matrix"])
    requests = [
        (["embed", "--input", src, "--integerize"], embedded),
        (["hyperbolic", "--input", image], run_cli(capsys, "hyperbolic", "--input", image)[1]),
        (["embed", "--input", src], run_cli(capsys, "embed", "--input", src)[1]),
    ]
    assert cli.build_parser() is cli.build_parser()
    for argv, in_process in requests:
        assert run_alone("-m", "affinetrees.cli", *argv) == (0, in_process)


def test_parser_is_not_built_at_import():
    code = "import affinetrees.cli as c; print(c.build_parser.cache_info().currsize)"
    assert run_alone("-c", code) == (0, "0\n")


def test_act_rejects_product_values_of_the_wrong_length(tmp_path, capsys):
    rep = write_json(
        tmp_path / "rep.json",
        {"entries": [["1", "1/2", "1"], ["0", "1", "2"], ["0", "0", "1"]]},
    )
    space = {"product": ["Q", "Q"]}
    for support in (["1", "2", "3"], ["1"]):
        point = write_json(
            tmp_path / "p.json", {"index_space": space, "support": support}
        )
        code, out, err = run_cli(capsys, "act", "--rep", rep, "--point", point)
        assert code == 2 and out == ""
        assert "malformed point JSON" in err and "Traceback" not in err


@pytest.mark.parametrize("index", ["1_000", "١٢", "１２", "1/1", "12.0", "", True])
def test_act_rejects_loose_integer_spellings(tmp_path, capsys, index):
    rep = write_json(tmp_path / "rep.json", identity_json(3))
    point = write_json(
        tmp_path / "p.json",
        {
            "index_space": {"family": {"index": "Z", "fiber": "Q"}},
            "support": [{"index": index, "value": "1"}],
        },
    )
    code, _, err = run_cli(capsys, "act", "--rep", rep, "--point", point)
    assert code == 2
    assert "malformed point JSON" in err and "not an integer" in err


@pytest.mark.parametrize("exponent", ["100000", "1000000000"])
def test_act_signs_a_diagonal_with_a_huge_exponent(
    tmp_path, capsys, monkeypatch, exponent
):
    # e**q - 1 on the diagonal is tested for positivity; the sign test
    # brackets e**0 and e**-q, never e**q, whose bracket has ~1.44 q bits
    brackets = []
    real = scalars._exp_interval

    def nonpositive_only(key, depth):
        brackets.append(key)
        assert key[0] <= 0, f"bracketed e**({key[0]}/{key[1]})"
        return real(key, depth)

    monkeypatch.setattr(scalars, "_exp_interval", nonpositive_only)
    diagonal = [{"coeff": "1", "exp": exponent}, {"coeff": "-1", "exp": "0"}]
    rep = write_json(
        tmp_path / "rep.json", {"entries": [[diagonal, "1/2"], ["0", "1"]]}
    )
    point = write_json(tmp_path / "p.json", ["3"])
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "act", "--rep", rep, "--point", point)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and brackets
    # (e**q - 1) * 3 + 1/2
    assert json.loads(out) == [
        [{"coeff": "-5/2", "exp": "0"}, {"coeff": "3", "exp": exponent}]
    ]


@pytest.mark.parametrize(
    "point", [["1", "2"], {"index_space": {"product": ["R", "R"]}, "support": ["1", "2"]}]
)
def test_act_inverse_of_a_non_monomial_diagonal_exits_3(tmp_path, capsys, point):
    # 2e + 1 is positive but has no inverse among exponential sums
    diagonal = [{"coeff": "2", "exp": "1"}, {"coeff": "1", "exp": "0"}]
    rep = write_json(
        tmp_path / "rep.json",
        {"entries": [[diagonal, "1/2", "1"], ["0", "1", "2"], ["0", "0", "1"]]},
    )
    point = write_json(tmp_path / "p.json", point)
    code, out, err = run_cli(capsys, "act", "--rep", rep, "--point", point, "--power", "-2")
    assert code == 3 and out == ""
    assert err.startswith("error: NotInvertible: ") and "Traceback" not in err


#: (rep entries, point, stderr line) of each rejected affine rep or point.
ACT_REJECTIONS = {
    "one-by-one": ([["1"]], ["1"], "NotAffineForm: affine form needs dimension at least 2"),
    "below-diagonal": (
        [["1", "0", "0"], ["2", "1", "0"], ["0", "0", "1"]],
        ["1", "2"],
        "NotAffineForm: dilation must be upper triangular",
    ),
    "last-row": (
        [["1", "0", "0"], ["0", "1", "0"], ["0", "3", "1"]],
        ["1", "2"],
        "NotAffineForm: matrix must be upper triangular",
    ),
    "corner": (
        [["1", "0", "1"], ["0", "1", "0"], ["0", "0", "2"]],
        ["1", "2"],
        "NotAffineForm: corner entry must be 1",
    ),
    "zero-diagonal": (
        [["1", "0", "1"], ["0", "0", "0"], ["0", "0", "1"]],
        ["1", "2"],
        "NotAffineForm: diagonal must be positive for an order-preserving map",
    ),
    "negative-diagonal": (
        [["-1", "0", "1"], ["0", "1", "0"], ["0", "0", "1"]],
        ["1", "2"],
        "NotAffineForm: diagonal must be positive for an order-preserving map",
    ),
    "exact-real-point-on-a-rational-rep": (
        [["1", "1/2", "1"], ["0", "1", "2"], ["0", "0", "1"]],
        [[{"coeff": "1", "exp": "1"}], "2"],
        "IndexSpaceMismatch: not a rational: ExpSum(1*e^(1))",
    ),
}


@pytest.mark.parametrize("case", sorted(ACT_REJECTIONS))
def test_act_rejection_exit_code_and_stderr_line(tmp_path, capsys, case):
    entries, point, line = ACT_REJECTIONS[case]
    rep = write_json(tmp_path / "rep.json", {"entries": entries})
    point = write_json(tmp_path / "p.json", point)
    assert run_cli(capsys, "act", "--rep", rep, "--point", point) == (3, "", f"error: {line}\n")


def coprime_60_digit_matrix(full):
    """n = 8 unitriangular matrix whose entries above the diagonal (or, if
    not full, in the last column) have pairwise coprime 60-digit
    denominators k * 47! + 1, k = 1..28: a prime dividing two of them
    divides their difference, a multiple of 47! by less than 47, so it
    divides 47! and cannot divide k * 47! + 1."""
    dens = iter(k * factorial(47) + 1 for k in range(1, 29))
    return TriMat(
        [
            [
                1 if i == j else 0 if j < i
                else Fraction(j - i, next(dens)) if full or j == 7 else Fraction(j - i)
                for j in range(8)
            ]
            for i in range(8)
        ]
    )


@pytest.mark.parametrize("full, argv", [(False, ["--integerize"]), (True, [])])
def test_embed_past_the_cutoff_matches_the_integer_route(
    tmp_path, capsys, monkeypatch, full, argv
):
    mat = coprime_60_digit_matrix(full)
    dens = [v.denominator for row in mat.rows for v in row]
    assert lcm(*dens).bit_length() > trimat.MAX_COMMON_DENOMINATOR_BITS
    src = write_json(tmp_path / "in.json", mat_to_json(mat))
    by_fractions = run_cli(capsys, "embed", "--input", src, *argv)
    monkeypatch.setattr(trimat, "MAX_COMMON_DENOMINATOR_BITS", 10**6)
    in_integers = run_cli(capsys, "embed", "--input", src, *argv)
    assert by_fractions[0] == 0
    assert by_fractions == in_integers


# -- every subcommand's output is json.dumps(payload, sort_keys=True, indent=2) --

G = rand_unitriangular(trial_rng(10, "writer"), 5)
G_IMAGE = mat_to_json(AffineRep.of(G).matrix)
REP_3 = {"entries": [["1", "1/2", "1"], ["0", "1", "2"], ["0", "0", "1"]]}
TSTAR = {
    "n": 3,
    "u": {"entries": [["1", "2", "1/3"], ["0", "1", "-4"], ["0", "0", "1"]]},
    "diag_exponents": ["1", "-1/2", "0"],
}
WRITER_CASES = {
    "embed": (["embed"], {"--input": mat_to_json(G)}),
    "embed-integerize": (["embed", "--integerize"], {"--input": mat_to_json(G)}),
    "hyperbolic": (["hyperbolic"], {"--input": G_IMAGE}),
    "integerize": (
        ["integerize"], {"--input": [mat_to_json(G), mat_to_json(G.inverse())]}
    ),
    "extend-tstar": (["extend-tstar"], {"--input": TSTAR}),
    "act-array": (["act", "--power", "3"], {"--rep": REP_3, "--point": ["1/2", "-2"]}),
    "act-index-space": (
        ["act", "--power", "-2"],
        {
            "--rep": REP_3,
            "--point": {"index_space": {"product": ["Q", "Q"]}, "support": ["1", "2"]},
        },
    ),
    "wreath": (["wreath", "--levels", "Z,Q,Z", "--samples", "5", "--seed", "3"], {}),
    "verify": (
        ["verify", "--suite", "all", "--n", "2..3", "--samples", "1", "--seed", "1"], {}
    ),
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_output_is_indented_sorted_json(tmp_path, capsys, monkeypatch, case):
    argv, docs = WRITER_CASES[case]
    for flag, doc in docs.items():
        argv = argv + [flag, write_json(tmp_path / f"{flag[2:]}.json", doc)]
    payloads, dumps = [], jsonio.dumps

    def spy(payload):
        payloads.append(payload)
        return dumps(payload)

    monkeypatch.setattr(jsonio, "dumps", spy)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == "" and len(payloads) == 1
    assert out == json.dumps(payloads[0], sort_keys=True, indent=2) + "\n"


# -- pinned output bytes ------------------------------------------------------------


def golden_rational_8():
    """Fixed rational unitriangular 8 x 8 matrix: entry (i, j), i < j, is
    ((3i + 5j) mod 13 - 6) / ((ij mod 7) + 1)."""
    return TriMat(
        [
            [
                Fraction((3 * i + 5 * j) % 13 - 6, (i * j) % 7 + 1)
                if j > i
                else int(i == j)
                for j in range(8)
            ]
            for i in range(8)
        ]
    )


#: SHA-256 of the stdout of each command, recorded before the
#: left-symmetric product was rewritten as one pass over the entries
#: (the two wreath commands: before wreath fibers were composed and
#: inverted on their integer encoding; the four act commands: before
#: affine maps stored their affine matrix; ``verify-n2-8``, which names
#: every per-dimension check at n = 5..8 too: before the checks were
#: declared in one table).  Refactors keep these bytes;
#: a digest changes only with the output.
GOLDEN_DIGESTS = {
    "verify": "23946b7848ab287a8fa421ed05f3ea07603a3bbd767cb8f416586807b80ea877",
    "verify-n2-8": "6c2799161a79ef987adf3818bdb277b3a4940e794d5930eeb551bc1a9ecdcf3f",
    "embed-integerize": "d1029ab9c5f3d27b18001184fe6ef60ac6849abb5a9a7f906fe4fd35d23e6295",
    "embed-integerize-past-cutoff": "2d4c808461e1052d9b22206c6695dff0feaa734f336925098bea96ea8488c13f",
    "wreath-ZQZ": "d05735835b5a1008915050c9456a9f7b1f7536d30937a9bd23a7230aca4df5cf",
    "wreath-QQQ": "3dc2494f326c63be0eb26ee5a6c21a268efafaf8d401cba79685f4a3e729fbf9",
    "act-unit-diagonal": "93d337c9b635301009c3d054e2e3f26a9f0bbaec5f4a4ace1bea22b9972a5d8d",
    "act-non-unit-diagonal": "a22b064228a3639090556b83dc6c6c784ef15096c6cffd56b3c6fdccc300e93a",
    "act-exact-real": "8d4b61abe512451c6e9abd46273a9118f41354ba1bd00958aacc2aa43c66f923",
    "act-past-cutoff": "7820278852b85fb65f3089543aa6dcab9286b94730103c97153ead3f182b03ed",
}

GOLDEN_ARGV = {
    "verify": ["verify", "--suite", "all", "--n", "2..4", "--samples", "2", "--seed", "0"],
    "verify-n2-8": ["verify", "--suite", "all", "--n", "2..8", "--samples", "1", "--seed", "0"],
    "wreath-ZQZ": ["wreath", "--levels", "Z,Q,Z", "--samples", "20", "--seed", "3"],
    "wreath-QQQ": ["wreath", "--levels", "Q,Q,Q", "--samples", "50", "--seed", "0"],
}


#: The input of each ``embed --integerize`` digest: within the cutoff, and
#: with seven coprime 60-digit denominators, past it.
GOLDEN_EMBED_INPUTS = {
    "embed-integerize": golden_rational_8,
    "embed-integerize-past-cutoff": lambda: coprime_60_digit_matrix(False),
}

#: CI's exact-real ``act`` rep and point, whose output digest it checks.
REAL_REP = {
    "entries": [
        [
            [{"coeff": "1", "exp": "1/2"}],
            [{"coeff": "2", "exp": "1/3"}],
            [{"coeff": "1", "exp": "0"}, {"coeff": "-1", "exp": "1/5"}],
        ],
        ["0", "1", [{"coeff": "3/7", "exp": "-1/2"}]],
        ["0", "0", "1"],
    ]
}
REAL_POINT = [[{"coeff": "1", "exp": "1/4"}], [{"coeff": "-2", "exp": "0"}, {"coeff": "1", "exp": "2/7"}]]

#: (rep, point, power) of each ``act`` digest, one for each way a map is
#: inverted: a unit diagonal within the cutoff (the integer series), a
#: diagonal other than 1, an exact-real rep, and a rep whose common
#: denominator is past the cutoff (ring mode).
GOLDEN_ACT_INPUTS = {
    "act-unit-diagonal": (
        lambda: mat_to_json(golden_rational_8()), ["1/2", "-3", "2/5", "7", "0", "-1/3", "4"], -4
    ),
    "act-non-unit-diagonal": (
        lambda: {
            "entries": [
                ["2", "1/3", "-1", "5"],
                ["0", "3/7", "2", "-1/2"],
                ["0", "0", "5/4", "3"],
                ["0", "0", "0", "1"],
            ]
        },
        ["1/2", "7", "-2/3"],
        -5,
    ),
    "act-exact-real": (lambda: REAL_REP, REAL_POINT, -3),
    "act-past-cutoff": (
        lambda: mat_to_json(coprime_60_digit_matrix(False)), ["1", "-1/2", "0", "3", "2/3", "-5", "1/7"], -2
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN_DIGESTS))
def test_output_bytes_match_pinned_digests(tmp_path, capsys, command):
    argv = GOLDEN_ARGV.get(command)
    if command in GOLDEN_ACT_INPUTS:
        rep, point, power = GOLDEN_ACT_INPUTS[command]
        argv = [
            "act",
            "--rep", write_json(tmp_path / "rep.json", rep()),
            "--point", write_json(tmp_path / "point.json", point),
            "--power", str(power),
        ]
    elif argv is None:
        src = write_json(tmp_path / "in.json", mat_to_json(GOLDEN_EMBED_INPUTS[command]()))
        argv = ["embed", "--input", src, "--integerize"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DIGESTS[command]


DATA = os.path.join(os.path.dirname(__file__), "data")


def test_embed_integerize_matches_the_recorded_bytes(capsys):
    # mixed denominators in a 4 x 4 input; CI compares the installed
    # console script's output with the same file
    src = os.path.join(DATA, "embed-integerize-4.in.json")
    code, out, _ = run_cli(capsys, "embed", "--input", src, "--integerize")
    assert code == 0
    with open(os.path.join(DATA, "embed-integerize-4.out.json"), encoding="utf-8") as handle:
        assert out == handle.read()


def test_embed_integerize_8_input_is_the_pinned_matrix(capsys):
    # CI checks the installed console script's embed --integerize on this
    # file against the "embed-integerize" digest
    src = os.path.join(DATA, "embed-integerize-8.in.json")
    with open(src, encoding="utf-8") as handle:
        assert json.load(handle) == mat_to_json(golden_rational_8())
    code, out, _ = run_cli(capsys, "embed", "--input", src, "--integerize")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DIGESTS["embed-integerize"]


def count_calls(monkeypatch, module, *names):
    """Wrap each named function of module to count its calls; returns the
    {name: count} dict the wrappers update."""
    counts = dict.fromkeys(names, 0)
    for name in names:

        def counted(*args, _name=name, _f=getattr(module, name)):
            counts[_name] += 1
            return _f(*args)

        monkeypatch.setattr(module, name, counted)
    return counts


def assert_too_large_before_any_output(capsys, monkeypatch, *argv):
    """The request exits 3 with ResultTooLarge's one stderr line, without
    building a conjugate or encoding or writing any matrix."""
    conjugates = count_calls(monkeypatch, cli, "_scaled_conjugate")
    encoded = count_calls(
        monkeypatch, jsonio, "mat_to_json", "diagonal_to_json", "image_and_conjugate_to_json"
    )
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err == (
        f"error: ResultTooLarge: an exact value has more than {sys.get_int_max_str_digits()}"
        " digits, too many to write as text\n"
    )
    assert conjugates == {"_scaled_conjugate": 0}
    assert encoded == {"mat_to_json": 0, "diagonal_to_json": 0, "image_and_conjugate_to_json": 0}


def test_embed_integerize_past_the_cutoff_too_large_to_print(tmp_path, capsys, monkeypatch):
    # 28 coprime 60-digit denominators: the scales have more digits than
    # Python writes as text, which is known before anything is written
    src = write_json(tmp_path / "in.json", mat_to_json(coprime_60_digit_matrix(True)))
    assert_too_large_before_any_output(capsys, monkeypatch, "embed", "--input", src, "--integerize")


def test_integerize_too_large_to_print_stops_before_the_conjugates(tmp_path, capsys, monkeypatch):
    g = coprime_60_digit_matrix(True)
    src = write_json(tmp_path / "in.json", [mat_to_json(g), mat_to_json(g.inverse())])
    assert_too_large_before_any_output(capsys, monkeypatch, "integerize", "--input", src)


def golden_tstar_4():
    """g * h in T*(4) for constant unipotent parts and opposite diagonal
    exponents (1/2, 0, -1/3, 1): unipotent, with entries that are sums of
    exponentials whose exponents have denominators 2, 3 and 6."""
    third, half = Fraction(1, 3), Fraction(1, 2)
    exps = (half, Fraction(0), -third, Fraction(1))
    g = TriangularElement(
        4,
        TriMat(
            [[1, half, -2, third], [0, 1, Fraction(3, 4), -1], [0, 0, 1, Fraction(2, 5)], [0, 0, 0, 1]]
        ),
        exps,
    )
    h = TriangularElement(
        4,
        TriMat([[1, -1, third, 2], [0, 1, half, Fraction(-3, 2)], [0, 0, 1, 1], [0, 0, 0, 1]]),
        tuple(-q for q in exps),
    )
    return g * h


#: A point of the 10-dimensional space the image of golden_tstar_4 acts
#: on, in matrix coordinate order, with exponential-sum coordinates.
GOLDEN_TSTAR_POINT = [
    "1",
    [{"coeff": "2", "exp": "1/2"}, {"coeff": "-1", "exp": "0"}],
    "-3/2",
    [{"coeff": "1/3", "exp": "-1/3"}],
    "0",
    [{"coeff": "-5", "exp": "1"}, {"coeff": "7/2", "exp": "1/6"}],
    "2",
    "1/7",
    [{"coeff": "1", "exp": "-1/2"}],
    "-4",
]

#: SHA-256 of the stdout of extend-tstar on golden_tstar_4 and of act with
#: its image on GOLDEN_TSTAR_POINT, recorded before ExpSum series ran in
#: integer arithmetic.
GOLDEN_TSTAR_DIGESTS = {
    "extend-tstar": "8651c475161ca078bc9d125bb3e6280f08b5d60c1e90de7fefa05cd5f0441afd",
    "act": "a5feb5a61915180959019beab600ae516b6c8b805a26e2b2ba6f3effa4f2dc91",
    "act-inverse": "4ce1753bab3d05ddc4e5945640616bb286248eb6349ce96853452d80c69cae70",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_TSTAR_DIGESTS))
def test_tstar_output_bytes_match_pinned_digests(tmp_path, capsys, command):
    gh = golden_tstar_4()
    assert not any(gh.exponents)
    assert any(
        len(v.terms()) > 1 and any(q.denominator == 3 for q, _ in v.terms())
        for row in gh.u.rows for v in row
    )
    # CI checks the installed console script's extend-tstar on this file
    # against the same digest
    src = os.path.join(DATA, "extend-tstar-4.in.json")
    with open(src, encoding="utf-8") as handle:
        assert jsonio.triangular_from_json(json.load(handle)) == gh
    code, out, _ = run_cli(capsys, "extend-tstar", "--input", src)
    assert code == 0
    if command != "extend-tstar":
        rep = write_json(tmp_path / "rep.json", json.loads(out))
        point = write_json(tmp_path / "p.json", GOLDEN_TSTAR_POINT)
        power = "-1" if command == "act-inverse" else "2"
        code, out, _ = run_cli(capsys, "act", "--rep", rep, "--point", point, "--power", power)
        assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_TSTAR_DIGESTS[command]


#: Each tests/data input of plain ``embed``, the matrix it holds and the
#: SHA-256 of the command's stdout, recorded while an exponential-sum
#: input was still assembled in its own ring: golden_rational_8, its lift
#: to the exponential-sum ring (constant entries), and the unipotent part
#: of golden_tstar_4 (entries with exponents).  CI checks the installed
#: console script's output on the lifted input against its digest.
GOLDEN_PLAIN_EMBED = {
    "embed-integerize-8.in.json": (
        golden_rational_8, "2bcb865afdba4ef0f30984e0ea4d4eec00de1a4f8c996f1fab8ddfb7e0c66b9c"
    ),
    "embed-expsum-8.in.json": (
        lambda: golden_rational_8().to_expsum(),
        "66669ccf5c10483dc9d5ca49ff15f36eea9b19987cff9369665d485e8097ec2f",
    ),
    "embed-tstar-4.in.json": (
        lambda: golden_tstar_4().u,
        "16d70d90ae748ff552f87624cb1bc66f23f99046fd60862dfbee501687d58625",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PLAIN_EMBED))
def test_plain_embed_output_bytes_match_pinned_digests(capsys, name):
    source, digest = GOLDEN_PLAIN_EMBED[name]
    src = os.path.join(DATA, name)
    with open(src, encoding="utf-8") as handle:
        assert json.load(handle) == mat_to_json(source())
    code, out, _ = run_cli(capsys, "embed", "--input", src)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


#: An exact-real rep whose exponents have lcm L = 30 and a point whose
#: exponents have lcm 28, which does not divide 30: each act rescales
#: the map's stored columns to a larger L.
GROWING_L_REP = {
    "entries": [
        [
            [{"coeff": "1", "exp": "1/2"}],
            [{"coeff": "2", "exp": "1/3"}],
            [{"coeff": "1", "exp": "0"}, {"coeff": "-1", "exp": "1/5"}],
        ],
        ["0", "1", [{"coeff": "3/7", "exp": "-1/2"}]],
        ["0", "0", "1"],
    ]
}
GROWING_L_POINT = [
    [{"coeff": "1", "exp": "1/4"}],
    [{"coeff": "-2", "exp": "0"}, {"coeff": "1", "exp": "2/7"}],
]

#: Length and SHA-256 of the stdout of act --power on GROWING_L_REP and
#: GROWING_L_POINT, recorded while a second copy of the columns at the
#: last L was kept beside the map's encoding.
GROWING_L_DIGESTS = {
    "3": (921, "66ac7cc254958904b72d019234895ffc10487c4828772f2a99032454911c5f5d"),
    "-3": (938, "8d4b61abe512451c6e9abd46273a9118f41354ba1bd00958aacc2aa43c66f923"),
}


@pytest.mark.parametrize("power", sorted(GROWING_L_DIGESTS))
def test_act_bytes_when_the_point_grows_the_exponent_lcm(tmp_path, capsys, power):
    rep = write_json(tmp_path / "rep.json", GROWING_L_REP)
    point = write_json(tmp_path / "p.json", GROWING_L_POINT)
    code, out, _ = run_cli(capsys, "act", "--rep", rep, "--point", point, "--power", power)
    assert code == 0
    size, digest = GROWING_L_DIGESTS[power]
    assert len(out.encode()) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest
