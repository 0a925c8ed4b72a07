import ast
from pathlib import Path

import pytest

from affinetrees import harness, jsonio
from affinetrees.errors import ConfigInvalid
from affinetrees.harness import (
    MAX_SAMPLES,
    CheckResult,
    SuiteConfig,
    Verdict,
    _run,
    run_suite,
)
from affinetrees.sampling import rand_strict_upper, trial_rng
from affinetrees.triangular import IDENTITY_TAGS
from affinetrees.trimat import TriMat


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        run_suite(SuiteConfig(suite="nope"))
    with pytest.raises(ConfigInvalid):
        run_suite(SuiteConfig(samples=0))
    with pytest.raises(ConfigInvalid):
        run_suite(SuiteConfig(n_low=1))
    with pytest.raises(ConfigInvalid):
        run_suite(SuiteConfig(n_low=5, n_high=3))
    with pytest.raises(ConfigInvalid):
        run_suite(SuiteConfig(n_high=9))
    with pytest.raises(ConfigInvalid):
        run_suite(SuiteConfig(max_refinements=0))


def test_samples_bound():
    SuiteConfig(samples=MAX_SAMPLES).validate()
    with pytest.raises(ConfigInvalid, match="samples"):
        SuiteConfig(samples=MAX_SAMPLES + 1).validate()


def test_lsa_suite_single_sample_includes_golden():
    verdict = run_suite(SuiteConfig(suite="lsa", n_low=4, n_high=4, samples=1, seed=0))
    assert verdict.passed
    names = {c.name for c in verdict.checks}
    assert "lsa.example4_product" in names


def test_embedding_suite_has_golden_checks():
    verdict = run_suite(
        SuiteConfig(suite="embedding", n_low=4, n_high=4, samples=2, seed=1)
    )
    assert verdict.passed
    names = {c.name for c in verdict.checks}
    assert {"embedding.example4_left_mult", "embedding.example4_log", "embedding.example4_image"} <= names


@pytest.mark.parametrize(
    "suite", ["lsa", "embedding", "hyperbolicity", "integerize", "tstar", "wreath"]
)
def test_each_suite_passes_small(suite):
    verdict = run_suite(SuiteConfig(suite=suite, n_low=2, n_high=3, samples=3, seed=5))
    assert verdict.passed, [c.name for c in verdict.checks if not c.passed]


def test_verdict_json_deterministic():
    cfg = lambda: SuiteConfig(suite="lsa", n_low=2, n_high=3, samples=4, seed=123)
    first = jsonio.dumps(run_suite(cfg()).to_json())
    second = jsonio.dumps(run_suite(cfg()).to_json())
    assert first == second


def test_check_result_witness_recorded():
    cfg = SuiteConfig(samples=4, seed=3)
    # each trial's first draw tells which trial the body is running
    draws = [trial_rng(3, "demo", t).random() for t in range(4)]

    def body(rng):
        t = draws.index(rng.random())
        if t % 2 == 1:
            return {"value": t}

    result = _run(cfg, "demo", "always_even", body)
    assert result.trials == 4
    assert result.failures == 2
    assert result.witness == {"value": 1, "trial": 1}
    assert not result.passed


def test_witness_replays_identically():
    cfg = SuiteConfig(samples=5, seed=0)

    def body(rng):
        value = rng.random()
        if value > 0.5:
            return {"value": value}

    first = _run(cfg, "demo", "law", body)
    second = _run(cfg, "demo", "law", body)
    assert first.failures == second.failures > 0
    assert first.witness == second.witness
    replay = trial_rng(cfg.seed, "demo", first.witness["trial"])
    assert replay.random() == first.witness["value"]


def test_failing_check_replays_from_verdict_alone(monkeypatch):
    # the graded oracle agrees only on the first call, so the check
    # fails from trial 1 on
    calls = []

    def wrong_graded(x, y):
        calls.append(None)
        return harness.left_symmetric_product(x, y) if len(calls) == 1 else x

    monkeypatch.setattr(harness, "_product_graded", wrong_graded)
    verdict = run_suite(SuiteConfig(suite="lsa", n_low=3, n_high=3, samples=3, seed=8))
    payload = verdict.to_json()
    (check,) = [c for c in payload["checks"] if c["failures"]]
    assert check["name"] == "lsa.entrywise_formula.n3"
    assert check["failures"] == 2
    witness = check["witness"]
    assert witness["trial"] == 1

    rng = trial_rng(payload["config"]["seed"], check["name"], witness["trial"])
    x, y = rand_strict_upper(rng, 3), rand_strict_upper(rng, 3)
    assert {"x": repr(x), "y": repr(y), "trial": 1} == witness


def test_failing_size4_check_keeps_its_witness(monkeypatch):
    # the template agrees only on its first call, so the size-4 image
    # check fails from trial 1 on; the witness was recorded before the
    # checks were declared in one table
    calls, template = [], harness.example4_image

    def wrong_template(*vals):
        calls.append(None)
        return template(*vals) if len(calls) == 1 else TriMat.identity(7)

    monkeypatch.setattr(harness, "example4_image", wrong_template)
    verdict = run_suite(SuiteConfig(suite="embedding", n_low=4, n_high=4, samples=3, seed=11))
    (check,) = [c for c in verdict.to_json()["checks"] if c["failures"]]
    assert check["name"] == "embedding.example4_image"
    assert check["failures"] == 2
    assert check["witness"] == {
        "binding": "[Fraction(1, 2), Fraction(0, 1), Fraction(4, 9), "
        "Fraction(7, 5), Fraction(-3, 7), Fraction(9, 8)]",
        "trial": 1,
    }


def test_failing_wreath_law_keeps_its_witness(monkeypatch):
    # a distance that ignores its first point breaks the affine law on
    # every trial; the witness was recorded before the wreath laws were
    # declared as module-level functions
    monkeypatch.setattr(harness, "lex_distance", lambda p, q: q)
    verdict = run_suite(SuiteConfig(suite="wreath", samples=3, seed=12))
    checks = {c["name"]: c for c in verdict.to_json()["checks"]}
    check = checks["wreath.matrix_base.affine_law"]
    assert check["failures"] == 3
    assert check["witness"] == {
        "g": "WreathElem(shift=-6, support=((-5, MatrixAffineAut(matrix=TriMat[1 -1 0 1; "
        "0 1 0 0; 0 0 1 2; 0 0 0 1], space=Product(Scalars('Q'), Scalars('Q'), "
        "Scalars('Q')))), (-4, MatrixAffineAut(matrix=TriMat[1 1 1 2; 0 1 0 2; 0 0 1 -2; "
        "0 0 0 1], space=Product(Scalars('Q'), Scalars('Q'), Scalars('Q'))))))",
        "p": "LexVec((6, ((-4, (Fraction(-1, 2), Fraction(-1, 2), Fraction(4, 3))),)))",
        "q": "LexVec((-5, ((6, (Fraction(8, 3), Fraction(-6, 1), Fraction(-1, 1))), "
        "(8, (Fraction(-1, 1), Fraction(-4, 3), Fraction(1, 1))))))",
        "trial": 0,
    }


def test_every_draw_is_seeded_by_its_check_name(monkeypatch):
    labels = []

    def recording_rng(seed, *rest):
        labels.append(rest)
        return trial_rng(seed, *rest)

    monkeypatch.setattr(harness, "trial_rng", recording_rng)
    cfg = SuiteConfig(suite="all", n_low=2, n_high=3, samples=2)
    verdict = run_suite(cfg)
    # the identity checks share the draw made inside the tstar report
    identity = {f"tstar.{tag}.n{n}" for tag in IDENTITY_TAGS for n in cfg.dims}
    drawn = {c.name for c in verdict.checks} - identity
    assert sorted(labels) == sorted((name, t) for name in drawn for t in range(cfg.samples))


def test_harness_has_one_seeding_call():
    tree = ast.parse(Path(harness.__file__).read_text())
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "trial_rng"
    ]
    assert len(calls) == 1


def test_verdict_structure():
    verdict = run_suite(SuiteConfig(suite="integerize", n_low=2, n_high=2, samples=2, seed=9))
    payload = verdict.to_json()
    assert payload["suite"] == "integerize"
    assert payload["passed"] is True
    for check in payload["checks"]:
        assert set(check) == {"name", "law", "trials", "failures", "witness"}
        assert check["failures"] == 0


def test_all_runs_every_suite():
    verdict = run_suite(SuiteConfig(suite="all", n_low=2, n_high=2, samples=1, seed=2))
    assert verdict.passed
    prefixes = {c.name.split(".")[0] for c in verdict.checks}
    assert prefixes == {"lsa", "embedding", "hyperbolicity", "integerize", "tstar", "wreath"}


def test_embedding_suite_full_config():
    # the documented reference run: dimensions 2..5 at 200 samples
    verdict = run_suite(
        SuiteConfig(suite="embedding", n_low=2, n_high=5, samples=200, seed=7)
    )
    assert verdict.passed
    assert all(c.failures == 0 for c in verdict.checks)
