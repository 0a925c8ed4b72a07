import pytest

from affinetrees.errors import ConfigInvalid
from affinetrees.harness import (
    MAX_SAMPLES,
    CheckResult,
    SuiteConfig,
    Verdict,
    _run,
    run_suite,
)


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
    first = run_suite(cfg()).json_str()
    second = run_suite(cfg()).json_str()
    assert first == second


def test_check_result_witness_recorded():
    def body(t):
        if t % 2 == 1:
            return {"value": t}

    result = _run("demo", "always_even", 4, body)
    assert result.trials == 4
    assert result.failures == 2
    assert result.witness == {"value": 1, "trial": 1}
    assert not result.passed


def test_witness_replays_identically():
    def body(t):
        if t == 2:
            return {"value": "boom"}

    first = _run("demo", "law", 5, body)
    second = _run("demo", "law", 5, body)
    assert first.witness == second.witness


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
