"""Orchestrated verification suites with deterministic seeding.

Each suite turns the exact laws of one area into sampled checks: the
left-symmetric product axioms, the two independent routes to the
left-multiplication matrix, hyperbolicity of embedded images,
denominator clearing, the diagonal-conjugation identities of the
positive-diagonal extension, and the wreath-product action laws.

A check is one module-level function ``body(rng, n)``, declared with
:func:`_check` beside its body under its suite, check name and law.  It
returns None on a pass or a witness dict on a failure.  One loop,
:func:`_suite`, runs a suite's per-dimension checks in declaration order
at each n as ``<suite>.<check>.n<n>``, then, when 4 is among the
dimensions, its size-4 checks once as ``<suite>.<check>``.  The wreath
laws take a group in place of n and are run on each group of the
``wreath`` suite and of the ``wreath`` command.

Every check reports (trials, failures) plus a replayable witness for the
first failure.  Each trial draws from one generator seeded by (seed,
check name, trial index), where the check name carries the dimension,
so verdicts are byte-stable across runs and independent of execution
order.  The diagonal-conjugation identities share one draw per
(dimension, trial), made by :func:`verify_conjugation_identities`.

The golden fixtures hard-code, as symbolic templates, the fully worked
size-4 example data: the product of two generic strictly-upper matrices
under the left-symmetric structure, the 6 x 6 left-multiplication
matrix, the logarithm of a generic unitriangular matrix, and the full
7 x 7 embedded image.  Suites evaluate the templates at random rational
bindings and demand exact equality.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from . import scalars
from .actions import (
    ProductAut,
    check_free_and_rigid,
    from_affine_matrix,
)
from .embedding import (
    MAX_DIMENSION,
    affine_algebra_rep,
    block_nonzero,
    certify_admissible,
    coord_block,
    coord_count,
    coord_vector,
    embed_unitriangular,
    integerize,
    is_essentially_hyperbolic,
    left_mult_matrix,
    left_mult_matrix_closed,
    left_symmetric_product,
    lowest_superdiag,
    matrix_from_coords,
)
from .errors import ConfigInvalid, PrecisionExhausted
from .ordered import LexVec, Scalars, lex_distance
from .sampling import (
    rand_exponents,
    rand_fraction,
    rand_nontrivial_unitriangular,
    rand_strict_upper,
    rand_unitriangular,
    rand_unitriangular_int,
    trial_rng,
)
from .scalars import ExpSum
from .triangular import (
    IDENTITY_TAGS,
    TriangularElement,
    conjugate_by_diagonal,
    embed_unipotent_part,
    is_essentially_hyperbolic_embedded,
    verify_conjugation_identities,
)
from .trimat import TriMat, nilpotent_exp, unipotent_log
from .wreath import MatrixBundle, WreathGroup, iterated_wreath

#: Largest ``samples`` a suite accepts (``verify`` and ``wreath``).
MAX_SAMPLES = 1_000


@dataclass
class SuiteConfig:
    suite: str = "all"
    n_low: int = 2
    n_high: int = 5
    samples: int = 50
    seed: int = 0
    max_refinements: int | None = None

    def validate(self) -> None:
        if self.suite not in SUITES:
            raise ConfigInvalid(f"unknown suite {self.suite!r}")
        if not 1 <= self.samples <= MAX_SAMPLES:
            raise ConfigInvalid(f"samples must satisfy 1 <= samples <= {MAX_SAMPLES}")
        if not (2 <= self.n_low <= self.n_high <= MAX_DIMENSION):
            raise ConfigInvalid(f"dimension range must satisfy 2 <= low <= high <= {MAX_DIMENSION}")
        if self.max_refinements is not None and self.max_refinements < 1:
            raise ConfigInvalid("max_refinements must be at least 1")

    @property
    def dims(self) -> range:
        return range(self.n_low, self.n_high + 1)


@dataclass
class CheckResult:
    name: str
    law: str
    trials: int
    failures: int
    witness: dict | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class Verdict:
    suite: str
    config: dict
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def _run(cfg: SuiteConfig, name: str, law: str, body, *args) -> CheckResult:
    """Run ``body(rng, *args)`` for each of ``cfg.samples`` trials; body
    returns None on pass or a witness dict on failure.

    Trial t draws only from the generator that :func:`trial_rng` seeds
    with ``(cfg.seed, name, t)``, so a witness replays from the verdict
    alone: its config's seed, the check's name and the witness's trial."""
    failures = 0
    witness = None
    for t in range(cfg.samples):
        w = body(trial_rng(cfg.seed, name, t), *args)
        if w is not None:
            failures += 1
            if witness is None:
                witness = dict(w, trial=t)
    return CheckResult(name, law, cfg.samples, failures, witness)


# -- golden size-4 templates ----------------------------------------------------


def example4_matrix(a, b, c, d, e, f) -> TriMat:
    """Generic 4 x 4 unitriangular matrix with the standard slot layout."""
    return TriMat(
        [
            [1, c, e, f],
            [0, 1, b, d],
            [0, 0, 1, a],
            [0, 0, 0, 1],
        ]
    )


def example4_log(a, b, c, d, e, f) -> TriMat:
    """Logarithm of :func:`example4_matrix`, entry by entry."""
    h = Fraction(1, 2)
    return TriMat(
        [
            [0, c, e - h * b * c, f - h * c * d - h * a * e + Fraction(1, 3) * a * b * c],
            [0, 0, b, d - h * a * b],
            [0, 0, 0, a],
            [0, 0, 0, 0],
        ]
    )


def example4_product(x, y) -> TriMat:
    """Left-symmetric product of two generic 4 x 4 strictly-upper matrices."""
    h = Fraction(1, 2)
    x12, x13, x14 = x.rows[0][1], x.rows[0][2], x.rows[0][3]
    x23, x24, x34 = x.rows[1][2], x.rows[1][3], x.rows[2][3]
    y12, y13, y14 = y.rows[0][1], y.rows[0][2], y.rows[0][3]
    y23, y24, y34 = y.rows[1][2], y.rows[1][3], y.rows[2][3]
    return TriMat(
        [
            [
                0,
                0,
                h * (x12 * y23 - y12 * x23),
                Fraction(2, 3) * (x12 * y24 - y13 * x34)
                + Fraction(1, 3) * (x13 * y34 - y12 * x24),
            ],
            [0, 0, 0, h * (x23 * y34 - y23 * x34)],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
        ]
    )


def example4_left_mult(x) -> TriMat:
    """The 6 x 6 left-multiplication matrix of a generic strictly-upper x."""
    x12, x13, x14 = x.rows[0][1], x.rows[0][2], x.rows[0][3]
    x23, x24, x34 = x.rows[1][2], x.rows[1][3], x.rows[2][3]
    t23, t13 = Fraction(2, 3), Fraction(1, 3)
    h = Fraction(1, 2)
    z = Fraction(0)
    return TriMat(
        [
            [z, -t23 * x34, t23 * x12, -t13 * x24, z, t13 * x13],
            [z, z, z, -h * x23, h * x12, z],
            [z, z, z, z, -h * x34, h * x23],
            [z, z, z, z, z, z],
            [z, z, z, z, z, z],
            [z, z, z, z, z, z],
        ]
    )


def example4_image(a, b, c, d, e, f) -> TriMat:
    """The 7 x 7 embedded image of :func:`example4_matrix`."""
    t23, t13 = Fraction(2, 3), Fraction(1, 3)
    h = Fraction(1, 2)
    z = Fraction(0)
    return TriMat(
        [
            [
                1,
                -t23 * a,
                t23 * c,
                -t13 * d + t13 * a * b,
                -t13 * a * c,
                t13 * e,
                f - t13 * c * d - t23 * a * e + t13 * a * b * c,
            ],
            [z, 1, z, -h * b, h * c, z, e - h * b * c],
            [z, z, 1, z, -h * a, h * b, d - h * a * b],
            [z, z, z, 1, z, z, c],
            [z, z, z, z, 1, z, b],
            [z, z, z, z, z, 1, a],
            [z, z, z, z, z, z, 1],
        ]
    )


def superdiag_part(mat: TriMat, i: int) -> TriMat:
    """Matrix keeping only the i-th superdiagonal of ``mat``."""
    zero = mat.ring_zero()
    rows = [[zero] * mat.n for _ in range(mat.n)]
    for k in range(mat.n - i):
        rows[k][k + i] = mat.rows[k][k + i]
    return TriMat(rows)


def _product_graded(x: TriMat, y: TriMat) -> TriMat:
    """Graded definition of the product: j/(i+j) [S_i, T_j] summed densely."""
    n = x.n
    out = TriMat.zeros(n, x.ring_zero() + y.ring_zero())
    for i in range(1, n):
        xi = superdiag_part(x, i)
        for j in range(1, n - i):
            yj = superdiag_part(y, j)
            out = out + (xi * yj - yj * xi).scale(Fraction(j, i + j))
    return out


def _prose_hyperbolic(mat: TriMat) -> bool:
    """Independent formulation of essential hyperbolicity: the lowest
    nonzero entry of (matrix - identity) sits in the final column and is
    strictly lower than every other nonzero entry."""
    N = mat.n
    diff = mat - TriMat.identity(N, mat.ring_one())
    positions = [
        (i, j) for i in range(N) for j in range(N) if diff.rows[i][j]
    ]
    lowest = max(i for i, _ in positions)
    row_entries = [(i, j) for i, j in positions if i == lowest]
    return row_entries == [(lowest, N - 1)]


# -- declared checks -----------------------------------------------------------

#: Each suite's declared checks, (name, law, body, size4), in declaration
#: order.  The wreath entries are the wreath-product laws, whose bodies
#: take a group where the others take a dimension.
_DECLARED = {
    suite: [] for suite in ("lsa", "embedding", "hyperbolicity", "integerize", "tstar", "wreath")
}


def _check(suite: str, name: str, law: str, size4: bool = False):
    """Declare ``body(rng, n)`` as the check ``name`` of ``suite``, run by
    :func:`_suite` at each dimension n, or with ``size4`` once at n = 4."""

    def declare(body):
        _DECLARED[suite].append((name, law, body, size4))
        return body

    return declare


@_check("lsa", "left_symmetry", "left_symmetry")
def _left_symmetry(rng, n):
    x, y, z = (rand_strict_upper(rng, n) for _ in range(3))
    p = left_symmetric_product
    lhs = p(p(x, y), z) - p(x, p(y, z))
    rhs = p(p(y, x), z) - p(y, p(x, z))
    if lhs != rhs:
        return {"x": repr(x), "y": repr(y), "z": repr(z)}


@_check("lsa", "commutator_compat", "product_antisymmetrizes_to_commutator")
def _commutator(rng, n):
    x, y = rand_strict_upper(rng, n), rand_strict_upper(rng, n)
    lhs = left_symmetric_product(x, y) - left_symmetric_product(y, x)
    rhs = x * y - y * x
    if lhs != rhs:
        return {"x": repr(x), "y": repr(y)}


@_check("lsa", "grading", "graded_product")
def _grading(rng, n):
    x, y = rand_strict_upper(rng, n), rand_strict_upper(rng, n)
    for i in range(1, n):
        for j in range(1, n):
            prod = left_symmetric_product(superdiag_part(x, i), superdiag_part(y, j))
            for d in range(1, n):
                if d == i + j:
                    continue
                if any(prod.rows[k][k + d] for k in range(n - d)):
                    return {"i": i, "j": j, "bad_diag": d}


@_check("lsa", "entrywise_formula", "bilinear_vs_entrywise_product")
def _entrywise(rng, n):
    x, y = rand_strict_upper(rng, n), rand_strict_upper(rng, n)
    if left_symmetric_product(x, y) != _product_graded(x, y):
        return {"x": repr(x), "y": repr(y)}


@_check("lsa", "example4_product", "golden_size4_product_template", size4=True)
def _example_product(rng, n):
    x, y = rand_strict_upper(rng, n), rand_strict_upper(rng, n)
    if left_symmetric_product(x, y) != example4_product(x, y):
        return {"x": repr(x), "y": repr(y)}


@_check("embedding", "left_mult_two_routes", "bilinear_vs_closed_form")
def _two_routes(rng, n):
    x = rand_strict_upper(rng, n)
    if left_mult_matrix(x) != left_mult_matrix_closed(x):
        return {"x": repr(x)}


@_check("embedding", "coord_roundtrip", "coordinate_isomorphism")
def _coord_roundtrip(rng, n):
    x = rand_strict_upper(rng, n)
    if matrix_from_coords(n, coord_vector(x)) != x:
        return {"x": repr(x)}


@_check("embedding", "block_strict", "strict_block_upper")
def _block_strict(rng, n):
    x = rand_strict_upper(rng, n)
    lam = left_mult_matrix_closed(x)
    for a in range(1, n):
        for b in range(1, a + 1):
            if block_nonzero(lam, a, b):
                return {"x": repr(x), "block": (a, b)}


@_check("embedding", "algebra_bracket", "bracket_preserved")
def _bracket(rng, n):
    x, y = rand_strict_upper(rng, n), rand_strict_upper(rng, n)
    lhs = affine_algebra_rep(x * y - y * x)
    rx, ry = affine_algebra_rep(x), affine_algebra_rep(y)
    if lhs != rx * ry - ry * rx:
        return {"x": repr(x), "y": repr(y)}


@_check("embedding", "homomorphism", "group_homomorphism")
def _homomorphism(rng, n):
    g, h = rand_unitriangular(rng, n), rand_unitriangular(rng, n)
    if embed_unitriangular(g * h) != embed_unitriangular(g) * embed_unitriangular(h):
        return {"g": repr(g), "h": repr(h)}


@_check("embedding", "injectivity", "nontrivial_maps_nontrivially")
def _injective(rng, n):
    g = rand_nontrivial_unitriangular(rng, n)
    if embed_unitriangular(g).is_identity():
        return {"g": repr(g)}


@_check("embedding", "exp_log_roundtrip", "mutually_inverse")
def _exp_log(rng, n):
    g = rand_unitriangular(rng, n)
    x = rand_strict_upper(rng, n)
    if nilpotent_exp(unipotent_log(g)) != g:
        return {"g": repr(g)}
    if unipotent_log(nilpotent_exp(x)) != x:
        return {"x": repr(x)}


@_check("embedding", "example4_left_mult", "golden_size4_left_mult_template", size4=True)
def _example_left_mult(rng, n):
    x = rand_strict_upper(rng, n)
    if left_mult_matrix(x) != example4_left_mult(x):
        return {"x": repr(x)}


@_check("embedding", "example4_log", "golden_size4_log_template", size4=True)
def _example_log(rng, n):
    vals = [rand_fraction(rng) for _ in range(6)]
    if unipotent_log(example4_matrix(*vals)) != example4_log(*vals):
        return {"binding": repr(vals)}


@_check("embedding", "example4_image", "golden_size4_image_template", size4=True)
def _example_image(rng, n):
    vals = [rand_fraction(rng) for _ in range(6)]
    if embed_unitriangular(example4_matrix(*vals)) != example4_image(*vals):
        return {"binding": repr(vals)}


@_check("hyperbolicity", "image", "embedded_images_essentially_hyperbolic")
def _image_hyperbolic(rng, n):
    g = rand_nontrivial_unitriangular(rng, n)
    if not is_essentially_hyperbolic(embed_unitriangular(g)):
        return {"g": repr(g)}


@_check("hyperbolicity", "admissible", "lowest_superdiag_blocks_vanish")
def _admissible(rng, n):
    x = rand_strict_upper(rng, n)
    if all(not v for row in x.rows for v in row):
        return None
    report = certify_admissible(x)
    if not report.ok:
        return {"x": repr(x), "report": report.to_json()}


@_check("hyperbolicity", "power_dominance", "power_blocks_vanish_below_k_i0")
def _power_dominance(rng, n):
    x = rand_strict_upper(rng, n)
    if all(not v for row in x.rows for v in row):
        return None
    i0 = lowest_superdiag(x)
    lam = left_mult_matrix_closed(x)
    power = lam
    for k in range(1, n):
        for a in range(1, n):
            for b in range(1, n):
                if b - a < k * i0 and block_nonzero(power, a, b):
                    return {"x": repr(x), "k": k, "block": (a, b)}
        power = power * lam


@_check("hyperbolicity", "prose_equivalence", "implication_matches_lowest_entry_form")
def _prose(rng, n):
    if rng.random() < 0.5:
        mat = embed_unitriangular(rand_nontrivial_unitriangular(rng, n))
    else:
        mat = rand_nontrivial_unitriangular(rng, n + 1)
    if is_essentially_hyperbolic(mat) != _prose_hyperbolic(mat):
        return {"mat": repr(mat)}


@_check("hyperbolicity", "displacement", "certificate_implies_sampled_freeness")
def _displacement(rng, n):
    g = rand_nontrivial_unitriangular(rng, n)
    aut = from_affine_matrix(embed_unitriangular(g))
    report = check_free_and_rigid(aut, 10, rng.randint(0, 10**9))
    if not report["certified"] or not report.get("consistent", False):
        return {"g": repr(g), "report": {k: v for k, v in report.items() if k != "witness"}}


def _generators(rng, n):
    """One to three random unitriangular matrices, each followed by its
    inverse unless that is already listed."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        g = rand_unitriangular(rng, n)
        gens.append(g)
        inv = g.inverse()
        if inv not in gens:
            gens.append(inv)
    return gens


@_check("integerize", "integral", "conjugates_are_integral_unitriangular")
def _integral(rng, n):
    gens = _generators(rng, n)
    conj, conjugated = integerize(gens)
    for g in conjugated:
        if not g.is_unitriangular():
            return {"gens": repr(gens)}
        if any(v.denominator != 1 for row in g.rows for v in row):
            return {"gens": repr(gens), "bad": repr(g)}


@_check("integerize", "hyperbolicity_preserved", "zero_pattern_preserved")
def _preserved(rng, n):
    gens = _generators(rng, n)
    conj, conjugated = integerize(gens)
    for before, after in zip(gens, conjugated):
        if before.is_identity():
            continue
        if is_essentially_hyperbolic(before) != is_essentially_hyperbolic(after):
            return {"before": repr(before), "after": repr(after)}


@_check("integerize", "deterministic", "lcm_construction_deterministic")
def _deterministic(rng, n):
    gens = _generators(rng, n)
    first, _ = integerize(gens)
    second, _ = integerize(list(gens))
    if first != second:
        return {"gens": repr(gens)}


def _multiplier(exponents, rho, sigma):
    """Expected coordinate-conjugation multiplier for one entry of the
    left-multiplication matrix."""
    n = len(exponents)
    k_r, r_r = coord_block(rho)
    k_s, r_s = coord_block(sigma)
    if k_r < k_s and r_s > r_r and k_s - k_r == r_s - r_r:
        return ExpSum.exponential(
            exponents[r_r - 1] - exponents[r_r + (k_s - k_r) - 1]
        )
    if k_r < k_s and r_s == r_r:
        return ExpSum.exponential(
            exponents[n - k_s + r_r - 1] - exponents[n - k_r + r_r - 1]
        )
    return ExpSum.one()


@_check("tstar", "multiplier_table", "entrywise_conjugation_multipliers")
def _multiplier_table(rng, n):
    exps = rand_exponents(rng, n)
    x = rand_strict_upper(rng, n).to_expsum()
    lam = left_mult_matrix_closed(x)
    lam_conj = left_mult_matrix_closed(conjugate_by_diagonal(exps, x))
    m = coord_count(n)
    for rho in range(1, m + 1):
        for sigma in range(1, m + 1):
            expected = lam.rows[rho - 1][sigma - 1] * _multiplier(exps, rho, sigma)
            if lam_conj.rows[rho - 1][sigma - 1] != expected:
                return {"exps": repr(exps), "entry": (rho, sigma)}


@_check("tstar", "group_law", "canonical_factorization_group")
def _group_law(rng, n):
    gs = [
        TriangularElement(n, rand_unitriangular(rng, n), rand_exponents(rng, n))
        for _ in range(3)
    ]
    g1, g2, g3 = gs
    if (g1 * g2) * g3 != g1 * (g2 * g3):
        return {"g1": repr(g1), "g2": repr(g2), "g3": repr(g3)}
    if (g1 * g2).matrix() != g1.matrix() * g2.matrix():
        return {"g1": repr(g1), "g2": repr(g2)}
    prod = g1 * g1.inverse()
    if not prod.is_identity():
        return {"g1": repr(g1), "prod": repr(prod)}


@_check("tstar", "essentially_free", "nontrivial_elements_essentially_hyperbolic")
def _essentially_free(rng, n):
    style = rng.randrange(3)
    if style == 0:
        g = TriangularElement.diagonal(rand_exponents(rng, n))
    elif style == 1:
        g = TriangularElement.unipotent(rand_unitriangular(rng, n))
    else:
        g = TriangularElement(n, rand_unitriangular(rng, n), rand_exponents(rng, n))
    if g.is_identity():
        return None
    try:
        if not is_essentially_hyperbolic_embedded(g):
            return {"g": repr(g)}
    except PrecisionExhausted as exc:
        return {"g": repr(g), "error": str(exc)}


@_check("tstar", "unipotent_agreement", "extension_restricts_to_embedding")
def _unipotent_agreement(rng, n):
    u = rand_unitriangular(rng, n).to_expsum()
    m = coord_count(n)
    big = embed_unipotent_part(u)
    rep = embed_unitriangular(u)
    for i in range(m):
        for j in range(m):
            if big.rows[i][j] != rep.rows[i][j]:
                return {"u": repr(u), "entry": (i, j)}
        if big.rows[i][m + n] != rep.rows[i][m]:
            return {"u": repr(u), "row": i}


@_check("wreath", "group_axioms", "wreath_group_axioms")
def _group_axioms(rng, group):
    a, b, c = (group.sample_element(rng) for _ in range(3))
    if group.mul(group.mul(a, b), c) != group.mul(a, group.mul(b, c)):
        return {"a": repr(a), "b": repr(b), "c": repr(c)}
    e = group.identity()
    if group.mul(a, e) != a or group.mul(e, a) != a:
        return {"a": repr(a)}
    if not group.is_identity(group.mul(a, group.inv(a))):
        return {"a": repr(a)}
    if not group.is_identity(group.mul(group.inv(a), a)):
        return {"a": repr(a)}


@_check("wreath", "action_axiom", "compatible_with_multiplication")
def _action_axiom(rng, group):
    g, h = group.sample_element(rng), group.sample_element(rng)
    p = group.sample_point(rng)
    lhs = group.act_vec(g, group.act_vec(h, p))
    rhs = group.act_vec(group.mul(g, h), p)
    if lhs != rhs:
        return {"g": repr(g), "h": repr(h), "p": repr(p)}


@_check("wreath", "affine_law", "metric_dilation")
def _affine_law(rng, group):
    g = group.sample_element(rng)
    p, q = group.sample_point(rng), group.sample_point(rng)
    lhs = lex_distance(group.act_vec(g, p), group.act_vec(g, q))
    rhs = group.dilate_vec(g, lex_distance(p, q))
    if lhs != rhs:
        return {"g": repr(g), "p": repr(p), "q": repr(q)}


@_check("wreath", "dilation_homomorphism", "dilations_compose")
def _alpha_hom(rng, group):
    g, h = group.sample_element(rng), group.sample_element(rng)
    delta = group.sample_point(rng)
    lhs = group.dilate_vec(group.mul(g, h), delta)
    rhs = group.dilate_vec(g, group.dilate_vec(h, delta))
    if lhs != rhs:
        return {"g": repr(g), "h": repr(h), "delta": repr(delta)}


@_check("wreath", "first_coord_fixed", "dilation_fixes_lead_coordinate")
def _first_coord(rng, group):
    g = group.sample_element(rng)
    delta = group.sample_point(rng)
    if group.dilate_vec(g, delta).value[0] != delta.value[0]:
        return {"g": repr(g), "delta": repr(delta)}


@_check("wreath", "free_and_rigid", "freeness_and_sign_constancy")
def _freeness(rng, group):
    g = group.sample_nontrivial(rng)
    signs = set()
    for i in range(20):
        p = group.sample_point(rng)
        delta = group.act_vec(g, p) - p
        s = delta.sign()
        if s == 0:
            return {"g": repr(g), "p": repr(p)}
        signs.add(s)
    if len(signs) > 1:
        return {"g": repr(g), "signs": sorted(signs)}


def _wreath_law_checks(cfg: SuiteConfig, label: str, group: WreathGroup) -> list:
    """The wreath-product laws on ``group``, named ``<label>.<check>``;
    the ``wreath`` suite runs them on three groups, the ``wreath`` command
    on the one its levels give."""
    return [
        _run(cfg, f"{label}.{name}", law, body, group)
        for name, law, body, _ in _DECLARED["wreath"]
    ]


def make_unitriangular_image_bundle(n: int = 3, bound: int = 3) -> MatrixBundle:
    """Bundle whose elements are embedded images of random integral
    unitriangular matrices of size n, acting on rational points."""
    probe = from_affine_matrix(embed_unitriangular(TriMat.identity(n)))

    def sampler(rng):
        g = rand_unitriangular_int(rng, n, bound)
        return from_affine_matrix(embed_unitriangular(g))

    return MatrixBundle(probe.space, sampler)


def _product_transfer(rng):
    g1 = from_affine_matrix(embed_unitriangular(rand_nontrivial_unitriangular(rng, 3)))
    g2 = from_affine_matrix(embed_unitriangular(rand_nontrivial_unitriangular(rng, 3)))
    aut = ProductAut([g1, g2])
    p = LexVec(aut.space, aut.space.sample(rng))
    q = LexVec(aut.space, aut.space.sample(rng))
    if lex_distance(aut.act(p), aut.act(q)) != aut.dilate(lex_distance(p, q)):
        return {"p": repr(p), "q": repr(q)}
    delta = aut.act(p) - p
    if delta.sign() == 0:
        return {"p": repr(p), "fixed": True}


def _wreath_suite(cfg: SuiteConfig) -> list:
    """The wreath laws on the embedded U_3 images over Z and on the
    iterated wreaths of Z, then the transfer of the laws to a product."""
    groups = {
        "matrix_base": WreathGroup(make_unitriangular_image_bundle(3), Scalars("Z")),
        "iterated2": iterated_wreath(["Z", "Z"]),
        "iterated3": iterated_wreath(["Z", "Z", "Z"]),
    }
    checks = []
    for label, group in groups.items():
        checks.extend(_wreath_law_checks(cfg, f"wreath.{label}", group))
    law = "componentwise_action_inherits_laws"
    checks.append(_run(cfg, "wreath.product_action_transfer", law, _product_transfer))
    return checks


def _suite(suite: str, cfg: SuiteConfig) -> list:
    """The declared checks of a dimension-indexed suite: at each n of
    ``cfg.dims`` (after tstar's identity checks, which share one draw per
    trial) the per-dimension checks as ``<suite>.<check>.n<n>``, then, if
    4 is among the dimensions, the size-4 checks once as ``<suite>.<check>``."""
    checks = []
    for n in cfg.dims:
        if suite == "tstar":
            report = verify_conjugation_identities(n, cfg.samples, cfg.seed)
            for tag in IDENTITY_TAGS:
                law = f"diagonal_conjugation_{tag}"
                checks.append(CheckResult(f"tstar.{tag}.n{n}", law, **report[tag]))
        for name, law, body, size4 in _DECLARED[suite]:
            if not size4:
                checks.append(_run(cfg, f"{suite}.{name}.n{n}", law, body, n))
    if 4 in cfg.dims:
        for name, law, body, size4 in _DECLARED[suite]:
            if size4:
                checks.append(_run(cfg, f"{suite}.{name}", law, body, 4))
    return checks


#: suite -> body(cfg); looked up at call time, so one suite's entry can
#: be replaced (a traced benchmark run wraps each to time it)
_SUITE_BODIES = {
    **{suite: functools.partial(_suite, suite) for suite in _DECLARED if suite != "wreath"},
    "wreath": _wreath_suite,
}

SUITES = (*_SUITE_BODIES, "all")


def run_suite(cfg: SuiteConfig) -> Verdict:
    cfg.validate()
    with scalars.refinement_budget(cfg.max_refinements):
        names = list(_SUITE_BODIES) if cfg.suite == "all" else [cfg.suite]
        checks = []
        for name in names:
            checks.extend(_SUITE_BODIES[name](cfg))
    return Verdict(cfg.suite, asdict(cfg), checks)
