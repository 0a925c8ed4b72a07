"""Acceptance suite: one test per criterion, exact checks only.

Each test prints a single PASS line with its runtime; tolerances are
exact equality everywhere, and the stated runtime budgets are asserted.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from affinetrees import jsonio
from affinetrees.actions import from_affine_matrix
from affinetrees.embedding import (
    affine_algebra_rep,
    certify_admissible,
    embed_unitriangular,
    integerize,
    is_essentially_hyperbolic,
    left_mult_matrix,
    left_mult_matrix_closed,
    left_symmetric_product,
)
from affinetrees.errors import PrecisionExhausted
from affinetrees.harness import (
    SuiteConfig,
    example4_image,
    example4_left_mult,
    example4_matrix,
    make_unitriangular_image_bundle,
    run_suite,
)
from affinetrees.ordered import LexVec, Scalars, lex_distance
from affinetrees.sampling import (
    rand_exponents,
    rand_fraction,
    rand_nontrivial_unitriangular,
    rand_strict_upper,
    rand_unitriangular,
    trial_rng,
)
from affinetrees.triangular import (
    TriangularElement,
    is_essentially_hyperbolic_embedded,
    verify_conjugation_identities,
)
from affinetrees.trimat import TriMat
from affinetrees.wreath import WreathGroup, iterated_wreath


@contextmanager
def budget(number: int, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s < {seconds:.0f}s)")
    assert elapsed < seconds, f"criterion {number} exceeded {seconds}s: {elapsed:.2f}s"


def test_criterion_1_golden_size4_reproduction():
    with budget(1, 5):
        for t in range(100):
            rng = trial_rng(101, "golden-lm", t)
            x = rand_strict_upper(rng, 4)
            assert left_mult_matrix(x) == example4_left_mult(x)
        for t in range(100):
            rng = trial_rng(101, "golden-img", t)
            vals = [rand_fraction(rng) for _ in range(6)]
            image = embed_unitriangular(example4_matrix(*vals))
            assert image == example4_image(*vals)


def test_criterion_2_closed_form_agreement():
    with budget(2, 30):
        for n in range(2, 7):
            for t in range(100):
                rng = trial_rng(102, "closed", n, t)
                x = rand_strict_upper(rng, n)
                assert left_mult_matrix(x) == left_mult_matrix_closed(x)


def test_criterion_3_left_symmetric_axioms():
    with budget(3, 30):
        p = left_symmetric_product
        for n in range(2, 7):
            for t in range(200):
                rng = trial_rng(103, "axioms", n, t)
                x, y, z = (rand_strict_upper(rng, n) for _ in range(3))
                assert p(p(x, y), z) - p(x, p(y, z)) == p(p(y, x), z) - p(y, p(x, z))
                assert p(x, y) - p(y, x) == x * y - y * x


def test_criterion_4_homomorphism():
    with budget(4, 60):
        for t in range(200):
            rng = trial_rng(104, "hom", t)
            n = rng.randint(2, 5)
            g, h = rand_unitriangular(rng, n), rand_unitriangular(rng, n)
            assert embed_unitriangular(g * h) == embed_unitriangular(g) * embed_unitriangular(h)
        for t in range(200):
            rng = trial_rng(104, "bracket", t)
            n = rng.randint(2, 5)
            x, y = rand_strict_upper(rng, n), rand_strict_upper(rng, n)
            rx, ry = affine_algebra_rep(x), affine_algebra_rep(y)
            assert affine_algebra_rep(x * y - y * x) == rx * ry - ry * rx


def test_criterion_5_images_hyperbolic_and_certified():
    with budget(5, 30):
        for t in range(200):
            rng = trial_rng(105, "hyp", t)
            n = rng.randint(2, 6)
            g = rand_nontrivial_unitriangular(rng, n)
            assert is_essentially_hyperbolic(embed_unitriangular(g))
        for t in range(200):
            rng = trial_rng(105, "cert", t)
            n = rng.randint(2, 6)
            x = rand_strict_upper(rng, n)
            if all(not v for row in x.rows for v in row):
                continue
            report = certify_admissible(x)
            assert report.blocks_clean and report.hyperbolic


def test_criterion_6_integerization():
    with budget(6, 30):
        eye = {}
        for t in range(50):
            rng = trial_rng(106, "int", t)
            n = rng.randint(2, 5)
            gens = []
            for _ in range(rng.randint(1, 3)):
                g = rand_unitriangular(rng, n)
                gens.append(g)
                inv = g.inverse()
                if inv not in gens:
                    gens.append(inv)
            _, conjugated = integerize(gens)
            if n not in eye:
                eye[n] = TriMat.identity(n)
            for before, after in zip(gens, conjugated):
                assert after.is_unitriangular()
                assert all(v.denominator == 1 for row in after.rows for v in row)
                if before != eye[n]:
                    assert is_essentially_hyperbolic(before) == is_essentially_hyperbolic(after)


def test_criterion_7_conjugation_identities():
    with budget(7, 60):
        report = verify_conjugation_identities(4, 100, seed=107)
        assert all(v["failures"] == 0 for v in report.values())
        assert all(v["trials"] == 100 for v in report.values())


def test_criterion_8_extension_essentially_free():
    with budget(8, 60):
        count = 0
        t = 0
        while count < 100:
            rng = trial_rng(108, "free", t)
            t += 1
            style = count % 3
            if style == 0:
                g = TriangularElement.diagonal(rand_exponents(rng, 4))
            elif style == 1:
                g = TriangularElement.unipotent(rand_unitriangular(rng, 4))
            else:
                g = TriangularElement(
                    4, rand_unitriangular(rng, 4), rand_exponents(rng, 4)
                )
            if g.is_identity():
                continue
            count += 1
            try:
                assert is_essentially_hyperbolic_embedded(g)
            except PrecisionExhausted as exc:  # pragma: no cover - must not happen
                raise AssertionError(f"sign refinement exhausted: {exc}")


def test_criterion_9_wreath_of_matrix_images():
    with budget(9, 60):
        group = WreathGroup(make_unitriangular_image_bundle(3), Scalars("Z"))
        for t in range(200):
            rng = trial_rng(109, "grp", t)
            a, b, c = (group.sample_element(rng) for _ in range(3))
            assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
            assert group.is_identity(group.mul(a, group.inv(a)))
        for t in range(200):
            rng = trial_rng(109, "act", t)
            g, h = group.sample_element(rng), group.sample_element(rng)
            p = group.sample_point(rng)
            assert group.act_vec(g, group.act_vec(h, p)) == group.act_vec(
                group.mul(g, h), p
            )
        for t in range(200):
            rng = trial_rng(109, "law", t)
            g = group.sample_element(rng)
            p, q = group.sample_point(rng), group.sample_point(rng)
            lhs = lex_distance(group.act_vec(g, p), group.act_vec(g, q))
            assert lhs == group.dilate_vec(g, lex_distance(p, q))
        for t in range(100):
            rng = trial_rng(109, "free", t)
            g = group.sample_nontrivial(rng)
            signs = set()
            for _ in range(20):
                p = group.sample_point(rng)
                s = (group.act_vec(g, p) - p).sign()
                assert s != 0
                signs.add(s)
            assert len(signs) == 1


def test_criterion_10_iterated_wreath_bundles():
    with budget(10, 60):
        for label, levels in (("two", ["Z", "Z"]), ("three", ["Z", "Z", "Z"])):
            group = iterated_wreath(levels)
            for t in range(100):
                rng = trial_rng(110, label, t)
                g, h = group.sample_element(rng), group.sample_element(rng)
                p, q = group.sample_point(rng), group.sample_point(rng)
                assert group.act_vec(g, group.act_vec(h, p)) == group.act_vec(
                    group.mul(g, h), p
                )
                lhs = lex_distance(group.act_vec(g, p), group.act_vec(g, q))
                assert lhs == group.dilate_vec(g, lex_distance(p, q))
                if not group.is_identity(g):
                    delta = group.act_vec(g, p) - p
                    assert delta.sign() != 0
                    delta_q = group.act_vec(g, q) - q
                    assert delta_q.sign() == delta.sign()


def test_criterion_11_determinism():
    with budget(11, 60):
        cfg = lambda: SuiteConfig(
            suite="all", n_low=2, n_high=3, samples=2, seed=11
        )
        written = lambda c: jsonio.dumps(run_suite(c).to_json())
        assert written(cfg()) == written(cfg())
        lsa = lambda: SuiteConfig(suite="lsa", n_low=4, n_high=4, samples=3, seed=5)
        assert written(lsa()) == written(lsa())
