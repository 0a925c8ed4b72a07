"""The four workloads.  Each one is a closed loop with one client.

A workload turns ``(seed, round)`` into groups of operation inputs,
runs one operation at a time (the timed part), and checks each group's
outputs afterwards against properties the construction must have or
against :mod:`reference`.  Every check comes with a corruption that
changes one entry of a correct output; the benchmark feeds each check its
corrupted output once per run and requires the check to flag it.

Inputs are drawn from ``random.Random("<seed>:<workload>:<round>:<group>")``
(string seeds hash with sha512, so draws do not depend on the Python hash
seed).  The shape of every round is fixed -- the same dimensions, suites
and orbit lengths in the same order -- and only the entries vary with the
seed, so every run measures the same mix.
"""

from __future__ import annotations

import copy
import json
import os
import random
from fractions import Fraction

import affinetrees
from affinetrees import cli, harness, ordered, wreath
from affinetrees.actions import from_affine_matrix
from affinetrees.ordered import LexVec, Scalars, lex_distance
from affinetrees.scalars import ExpSum
from affinetrees.trimat import TriMat

import reference as ref
from tracing import SUITES


class OpFailed(Exception):
    """The program returned an error exit code."""


def _rng(seed, name, r, i) -> random.Random:
    return random.Random(f"{seed}:{name}:{r}:{i}")


def _rational(rng, num, den) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _unitriangular(rng, n, num, den) -> list:
    rows = ref.identity(n)
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = _rational(rng, num, den)
    if ref.is_identity(rows):
        rows[0][n - 1] = Fraction(1)
    return rows


def _bump_corner(key, op):
    """Corruption: add 1 to the top-right entry of matrix ``key`` of
    operation ``op`` (a rational or an exponential-sum dict)."""

    def corrupt(view):
        row = view["ops"][op][key][0]
        row[-1] = ref.es_add(row[-1], {Fraction(0): Fraction(1)}) if isinstance(row[-1], dict) else row[-1] + 1

    return corrupt


def _set(key, value, op=0):
    """Corruption: replace output ``key`` of operation ``op``."""
    return lambda view: view["ops"][op].__setitem__(key, value)


class Workload:
    name = ""
    #: (check name, check(view) -> message or None, corrupt(view) -> None)
    checks = ()

    def __init__(self, seed: int, tmpdir: str):
        self.seed = seed
        self.tmpdir = tmpdir
        self.figures = {}

    def groups(self, r: int) -> list:
        """Lists of operation inputs for round ``r``; untimed."""
        raise NotImplementedError

    def run_op(self, inp):
        """One operation; the only timed code."""
        raise NotImplementedError

    def view(self, group, outputs):
        """Outputs of one group in the form the checks read; untimed."""
        raise NotImplementedError

    def check(self, view) -> list:
        return [f"{name}: {msg}" for name, fn, _ in self.checks if (msg := fn(view))]

    def self_check(self, view) -> list:
        """Names of checks that let a corrupted copy of ``view`` pass."""
        missed = []
        for name, fn, corrupt in self.checks:
            bad = copy.deepcopy(view)
            corrupt(bad)
            if fn(bad) is None:
                missed.append(name)
        return missed


# -- embed-rational ----------------------------------------------------------------


def _mat_json(rows) -> dict:
    return {"n": len(rows), "entries": [[str(v) for v in row] for row in rows]}


def _mat_parse(obj) -> list:
    return [[Fraction(v) for v in row] for row in obj["entries"]]


def _er_shape(view):
    for v in view["ops"]:
        size = v["n"] * (v["n"] - 1) // 2 + 1
        img = v["image"]
        if v["m"] != size - 1 or len(img) != size or any(len(row) != size for row in img):
            return f"image of n={v['n']} has size {len(img)}, expected {size}"
        if not ref.is_unitriangular(img) or ref.is_identity(img):
            return "image is not a nontrivial unitriangular matrix"
    return None


def _er_verdict(view):
    if not all(v["verdict"] is True for v in view["ops"]):
        return "hyperbolic verdict is not true"
    return None


def _er_lowest(view):
    for v in view["ops"]:
        if ref.lowest_entry_hyperbolic(v["image"]) != v["verdict"]:
            return "verdict disagrees with the lowest-entry form"
    return None


def _er_integerized(view):
    for v in view["ops"]:
        p, conj, img = v["P"], v["conj"], v["image"]
        size = len(img)
        diag = [p[i][i] for i in range(size)]
        if any(p[i][j] for i in range(size) for j in range(size) if i != j):
            return "conjugator is not diagonal"
        if any(d <= 0 or d.denominator != 1 for d in diag):
            return "conjugator diagonal is not positive integral"
        if any(x.denominator != 1 for row in conj for x in row):
            return "integerized matrix is not integral"
        p_inv = [[1 / diag[i] if i == j else Fraction(0) for j in range(size)] for i in range(size)]
        if ref.matmul(ref.matmul(p, img), p_inv) != conj:
            return "integerized matrix differs from P image P^-1"
    return None


def _er_multiplicative(view):
    g, h, gh, _ = (v["image"] for v in view["ops"])
    if ref.matmul(g, h) != gh:
        return "embed(g) embed(h) != embed(gh)"
    return None


def _er_inverse(view):
    g, _, _, g_inv = (v["image"] for v in view["ops"])
    if not ref.is_identity(ref.matmul(g, g_inv)):
        return "embed(g^-1) != embed(g)^-1"
    return None


def _er_size4(view):
    for v, g in zip(view["ops"], view["inputs"]):
        if v["n"] != 4:
            continue
        a, b, c, d, e, f = g[2][3], g[1][2], g[0][1], g[1][3], g[0][2], g[0][3]
        if v["image"] != ref.size4_image(a, b, c, d, e, f):
            return "n = 4 image differs from the worked closed form"
    return None


def _er_corrupt_diagonal(view):
    view["ops"][0]["image"][0][0] += 1


def _er_corrupt_lowest(view):
    img = view["ops"][0]["image"]
    last = len(img) - 1
    lowest = max(i for i in range(last) if img[i][last])
    img[lowest][lowest] += 1


class EmbedRational(Workload):
    """``affinetrees embed --integerize`` then ``affinetrees hyperbolic`` on
    the image, through ``affinetrees.cli.main`` with JSON files.

    A round is one group per dimension in ``DIMS``; a group is the four
    requests g, h, g h and g^-1, so that multiplicativity and inverses are
    checked on the outputs themselves.  Entries are p/q with |p| <= 9 and
    1 <= q <= 9.
    """

    name = "embed-rational"
    DIMS = (4, 5, 6, 7, 7, 7, 8, 8, 8)
    checks = (
        ("shape", _er_shape, _er_corrupt_diagonal),
        ("verdict", _er_verdict, _set("verdict", False)),
        ("lowest_entry_form", _er_lowest, _er_corrupt_lowest),
        ("integerized", _er_integerized, _bump_corner("conj", 0)),
        ("multiplicative", _er_multiplicative, _bump_corner("image", 2)),
        ("inverse", _er_inverse, _bump_corner("image", 3)),
        # the warm-up group is the n = 4 one, so this corruption is seen
        ("size4_closed_form", _er_size4, _bump_corner("image", 0)),
    )

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.figures["bytes_out"] = 0
        self.out_path = os.path.join(tmpdir, "embed.json")
        self.image_path = os.path.join(tmpdir, "image.json")
        self.verdict_path = os.path.join(tmpdir, "verdict.json")

    def groups(self, r):
        out = []
        for i, n in enumerate(self.DIMS):
            rng = _rng(self.seed, self.name, r, i)
            g = _unitriangular(rng, n, 9, 9)
            h = _unitriangular(rng, n, 9, 9)
            while ref.is_identity(ref.matmul(g, h)):
                h = _unitriangular(rng, n, 9, 9)
            mats = [g, h, ref.matmul(g, h), ref.unitriangular_inverse(g)]
            paths = []
            for j, mat in enumerate(mats):
                path = os.path.join(self.tmpdir, f"in-{r}-{i}-{j}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(_mat_json(mat), handle)
                paths.append(path)
            out.append({"mats": mats, "ops": paths})
        return out

    def _read(self, path):
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        self.figures["bytes_out"] += len(text)
        return json.loads(text)

    def run_op(self, path):
        argv = ["embed", "--input", path, "--integerize", "--output", self.out_path]
        if cli.main(argv) != 0:
            raise OpFailed(" ".join(argv))
        embedded = self._read(self.out_path)
        with open(self.image_path, "w", encoding="utf-8") as handle:
            json.dump(embedded["matrix"], handle)
        argv = ["hyperbolic", "--input", self.image_path, "--output", self.verdict_path]
        if cli.main(argv) != 0:
            raise OpFailed(" ".join(argv))
        return embedded, self._read(self.verdict_path)

    def view(self, group, outputs):
        ops = []
        for embedded, verdict in outputs:
            ops.append(
                {
                    "n": embedded["n"],
                    "m": embedded["m"],
                    "image": _mat_parse(embedded["matrix"]),
                    "P": _mat_parse(embedded["integerized"]["P"]),
                    "conj": _mat_parse(embedded["integerized"]["conjugated"]),
                    "verdict": verdict["essentially_hyperbolic"],
                }
            )
        return {"inputs": group["mats"], "ops": ops}


# -- tstar-expsum --------------------------------------------------------------------


def _es_of(value) -> dict:
    if isinstance(value, ExpSum):
        return dict(value.terms())
    return {Fraction(0): Fraction(value)} if value else {}


def _ts_multiplicative(view):
    g, h, gh = (v["image"] for v in view["ops"])
    if ref.es_matmul(g, h) != gh:
        return "embed(g) embed(h) != embed(gh)"
    return None


def _ts_verdict(view):
    if not all(v["verdict"] is True for v in view["ops"]):
        return "nontrivial element not essentially hyperbolic"
    return None


def _ts_signs(view):
    for v in view["ops"]:
        if 0 in v["signs"] or len(set(v["signs"])) != 1:
            return f"displacement signs {v['signs']} are not one nonzero sign"
    return None


def _ts_decimal(view):
    for v, points in zip(view["ops"], view["points"]):
        image = [[ref.es_decimal(x) for x in row] for row in v["image"]]
        for point, sign in zip(points, v["signs"]):
            if ref.displacement_sign(image, [ref.es_decimal(x) for x in point]) != sign:
                return "displacement sign disagrees with the decimal evaluation"
    return None


def _ts_order(view):
    for v in view["ops"]:
        for before, after in v["order"]:
            if before == 0 or after != before:
                return f"acted points compare {after}, the points themselves {before}"
    return None


def _ts_decimal_order(view):
    for v, points in zip(view["ops"], view["points"]):
        for (i, j), (before, _) in zip(TstarExpsum.PAIRS, v["order"]):
            diff = [ref.es_decimal(ref.es_sub(x, y)) for x, y in zip(points[i], points[j])]
            if ref.decimal_lex_sign(diff) != before:
                return "point comparison disagrees with the decimal evaluation"
    return None


def _ts_zero(view):
    view["ops"][0]["signs"][0] = 0


def _ts_flip(view):
    view["ops"][0]["signs"][0] *= -1


def _ts_flip_after(view):
    before, after = view["ops"][0]["order"][0]
    view["ops"][0]["order"][0] = (before, -after)


def _ts_flip_both(view):
    before, after = view["ops"][0]["order"][0]
    view["ops"][0]["order"][0] = (-before, -after)


class TstarExpsum(Workload):
    """``embed_triangular`` and ``is_essentially_hyperbolic_embedded`` on a
    positive-diagonal element, then ``from_affine_matrix`` on the image,
    the sign of the displacement of three R-valued points, and the
    comparison of every pair of those points before and after the action.

    A round is one group per dimension in ``DIMS``; a group is g, h and
    g h, where h has the opposite diagonal of g.  The product g h is then
    unipotent with exponential-sum entries: the displacement of any point
    under a nontrivial element is led by one entry of the image's final
    column, which for g and h is a rational diagonal exponent and for g h
    is a sum such as a + b e**q, whose sign needs interval refinement when
    a and b differ in sign.  The points are compared with one another
    before and after the action: the leading coordinate of a difference of
    two points is a sum such as a + b e**p + c e**q with mixed signs, so
    nearly every operation makes interval-refined sign tests.  Unipotent
    entries are p/q with |p| <= 6, 1 <= q <= 4; diagonal exponents are p/q
    with |p| <= 4, 1 <= q <= 3.
    Each point coordinate is c0 + c1 e**q1 with c0, c1 of opposite signs,
    |c| <= 6 over q <= 3, and q1 = p/q with 1 <= |p| <= 3, q <= 2.
    """

    name = "tstar-expsum"
    DIMS = (3, 4, 5, 6, 6, 6, 6, 6)
    POINTS = 3
    PAIRS = ((0, 1), (0, 2), (1, 2))
    checks = (
        ("multiplicative", _ts_multiplicative, _bump_corner("image", 2)),
        ("verdict", _ts_verdict, _set("verdict", False)),
        ("one_sign", _ts_signs, _ts_zero),
        ("decimal_signs", _ts_decimal, _ts_flip),
        ("order_preserved", _ts_order, _ts_flip_after),
        ("decimal_order", _ts_decimal_order, _ts_flip_both),
    )

    def _element(self, rng, n):
        u = [[{} for _ in range(n)] for _ in range(n)]
        for i in range(n):
            u[i][i] = {Fraction(0): Fraction(1)}
            for j in range(i + 1, n):
                x = _rational(rng, 6, 4)
                if x:
                    u[i][j] = {Fraction(0): x}
        exps = tuple(_rational(rng, 4, 3) for _ in range(n))
        if not any(exps):
            exps = (Fraction(1),) + exps[1:]
        return u, exps

    def _point(self, rng, dim):
        coords = []
        for _ in range(dim):
            c0 = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            c1 = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            if rng.random() < 0.5:
                c0 = -c0
            else:
                c1 = -c1
            q1 = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
            coords.append({Fraction(0): c0, q1: c1})
        return coords

    def groups(self, r):
        out = []
        for i, n in enumerate(self.DIMS):
            rng = _rng(self.seed, self.name, r, i)
            u1, q1 = self._element(rng, n)
            while True:
                u2, _ = self._element(rng, n)
                q2 = tuple(-q for q in q1)
                u12, q12 = ref.es_conj_product(u1, q1, u2, q2)
                if u12 != ref.identity(n, {Fraction(0): Fraction(1)}, {}):
                    break
            elems = [(u1, q1), (u2, q2), (u12, q12)]
            dim = n * (n - 1) // 2 + n
            ops, points = [], []
            for u, exps in elems:
                pts = [self._point(rng, dim) for _ in range(self.POINTS)]
                elem = affinetrees.TriangularElement(
                    n, TriMat([[ExpSum(x) for x in row] for row in u]), exps
                )
                ops.append((elem, [tuple(ExpSum(x) for x in p) for p in pts]))
                points.append(pts)
            out.append({"ops": ops, "points": points})
        return out

    def run_op(self, inp):
        elem, points = inp
        image = affinetrees.embed_triangular(elem)
        verdict = affinetrees.is_essentially_hyperbolic_embedded(elem)
        aut = from_affine_matrix(image)
        xs = [LexVec(aut.space, p) for p in points]
        acted = [aut.act(x) for x in xs]
        signs = [(gx - x).sign() for x, gx in zip(xs, acted)]
        order = [((xs[i] - xs[j]).sign(), (acted[i] - acted[j]).sign()) for i, j in self.PAIRS]
        return image, verdict, signs, order

    def view(self, group, outputs):
        ops = [
            {
                "image": [[_es_of(x) for x in row] for row in image.rows],
                "verdict": verdict,
                "signs": list(signs),
                "order": list(order),
            }
            for image, verdict, signs, order in outputs
        ]
        return {"ops": ops, "points": group["points"]}


# -- wreath-orbit ----------------------------------------------------------------------


def lex_sign(space, value) -> int:
    """Sign of a lexicographic value, read from its structure."""
    if isinstance(space, ordered.Scalars):
        return (value > 0) - (value < 0)
    if isinstance(space, ordered.Product):
        parts = zip(space.factors, value)
    else:
        parts = ((space.fiber, v) for _, v in sorted(value, key=lambda kv: kv[0]))
    for sub, v in parts:
        s = lex_sign(sub, v)
        if s:
            return s
    return 0


def _wo_power(view):
    g = view["group"]
    if g.act_vec(view["power"], view["p"]).value != view["orbit"][-1].value:
        return "k steps differ from the action of g**k"
    return None


def _wo_inverse(view):
    g = view["group"]
    if g.act_vec(view["inv"], view["orbit"][1]).value != view["p"].value:
        return "g^-1 g p != p"
    return None


def _wo_affine(view):
    g, elem, p, q = view["group"], view["g"], view["p"], view["q"]
    lhs = lex_distance(view["orbit"][1], g.act_vec(elem, q))
    rhs = g.dilate_vec(elem, lex_distance(p, q))
    if lhs.value != rhs.value:
        return "d(gp, gq) != dilate(d(p, q))"
    return None


def _wo_signs(view):
    orbit = view["orbit"]
    space = orbit[0].space
    signs = {lex_sign(space, (b - a).value) for a, b in zip(orbit, orbit[1:])}
    if 0 in signs or len(signs) != 1:
        return f"orbit displacement signs {sorted(signs)} are not one nonzero sign"
    return None


def _wo_corrupt_last(view):
    view["orbit"][-1] = view["orbit"][-2]


def _wo_corrupt_inverse(view):
    view["inv"] = wreath.WreathElem(view["inv"].shift + 1, view["inv"].support)


def _wo_corrupt_first(view):
    # far outside the input grids, so |x + 1000 e| = |x| cannot hold
    point = view["orbit"][1]
    lead, rest = point.value
    view["orbit"][1] = LexVec(point.space, (lead + 1000, rest))


def _wo_corrupt_stall(view):
    view["orbit"][1] = view["orbit"][0]


class WreathOrbit(Workload):
    """An orbit of ``k`` steps of a point under one wreath element, the
    power g**k built with ``mul``, and one ``inv``.

    A round is one operation per entry of ``KINDS``: the iterated
    Z wr Z wr Z, and wreath products with Z or Q index over the bundle of
    embedded U_3 (4 x 4 affine matrices) or U_4 (7 x 7) images of integral
    unitriangular matrices with entries in [-2, 2].  Elements have a
    nonzero shift and ``SUPPORT`` support indices (fewer when two draws
    coincide), and so have the points and, in Z wr Z wr Z, the fiber
    elements and points.  Z indices lie in [-3, 3], Q indices are p/q with
    |p| <= 6, q <= 3.
    """

    name = "wreath-orbit"
    #: (group, orbit length); the longer U4-Q orbits are the slowest fifth
    #: of the operations, so the 90th percentile sits inside that class
    SUPPORT = 2
    KINDS = (("ZZZ", 24), ("U3-Z", 24), ("U3-Q", 24), ("U4-Z", 16), ("U4-Q", 32))
    checks = (
        ("power", _wo_power, _wo_corrupt_last),
        ("inverse", _wo_inverse, _wo_corrupt_inverse),
        ("affine_law", _wo_affine, _wo_corrupt_first),
        ("one_sign", _wo_signs, _wo_corrupt_stall),
    )

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.groups_by_kind = {"ZZZ": affinetrees.iterated_wreath(["Z", "Z", "Z"])}
        for n in (3, 4):
            probe = from_affine_matrix(affinetrees.embed_unitriangular(TriMat.identity(n)))
            base = affinetrees.MatrixBundle(probe.space)
            for kind in ("Z", "Q"):
                self.groups_by_kind[f"U{n}-{kind}"] = affinetrees.WreathGroup(base, Scalars(kind))

    @staticmethod
    def _index(rng, space, nonzero=False):
        while True:
            v = rng.randint(-3, 3) if space.kind == "Z" else _rational(rng, 6, 3)
            if v or not nonzero:
                return v

    def _fiber_element(self, rng, kind, base):
        if kind == "ZZZ":
            inner = base
            mapping = {
                self._index(rng, inner.index_space): rng.choice((-3, -2, -1, 1, 2, 3))
                for _ in range(self.SUPPORT)
            }
            return inner.element(rng.randint(-2, 2), mapping)
        n = 3 if kind.startswith("U3") else 4
        g = TriMat(
            [[1 if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(n)] for i in range(n)]
        )
        if g == TriMat.identity(n):
            g = TriMat([[1 if i == j else (1 if (i, j) == (0, n - 1) else 0) for j in range(n)] for i in range(n)])
        return from_affine_matrix(affinetrees.embed_unitriangular(g))

    def _fiber_point(self, rng, kind, space):
        if kind == "ZZZ":
            inner_index = space.factors[0]
            return (
                rng.randint(-5, 5),
                {self._index(rng, inner_index): rng.randint(-5, 5) for _ in range(self.SUPPORT)},
            )
        return tuple(_rational(rng, 6, 3) for _ in space.factors)

    def _point(self, rng, kind, group):
        fam = {
            self._index(rng, group.index_space): self._fiber_point(rng, kind, group.fiber_space)
            for _ in range(self.SUPPORT)
        }
        return LexVec(group.point_space, (self._index(rng, group.index_space), fam))

    def groups(self, r):
        out = []
        for i, (kind, k) in enumerate(self.KINDS):
            rng = _rng(self.seed, self.name, r, i)
            group = self.groups_by_kind[kind]
            mapping = {
                self._index(rng, group.index_space): self._fiber_element(rng, kind, group.base)
                for _ in range(self.SUPPORT)
            }
            elem = group.element(self._index(rng, group.index_space, nonzero=True), mapping)
            p, q = self._point(rng, kind, group), self._point(rng, kind, group)
            out.append({"ops": [(group, elem, p, k)], "q": q})
        return out

    def run_op(self, inp):
        group, elem, p, k = inp
        orbit = [p]
        for _ in range(k):
            orbit.append(group.act_vec(elem, orbit[-1]))
        power = elem
        for _ in range(k - 1):
            power = group.mul(power, elem)
        return orbit, power, group.inv(elem)

    def view(self, group, outputs):
        (grp, elem, p, _), = group["ops"]
        ((orbit, power, inv),) = outputs
        return {"group": grp, "g": elem, "p": p, "q": group["q"], "orbit": list(orbit), "power": power, "inv": inv}


# -- verify-all --------------------------------------------------------------------------


def _va_passed(view):
    if not view["checks"] or any(failures for _, _, failures in view["checks"]) or not view["passed"]:
        return "verdict did not pass"
    return None


def _va_corrupt(trials_less, failures):
    def corrupt(view):
        name, trials, _ = view["checks"][0]
        view["checks"][0] = (name, trials - trials_less, failures)

    return corrupt


def _va_trials(view):
    short = [name for name, trials, _ in view["checks"] if trials != view["samples"]]
    if short:
        return f"checks ran a different number of trials: {short[:3]}"
    return None


class VerifyAll(Workload):
    """One ``harness.run_suite`` call for one suite at one dimension.

    A round runs every suite at every dimension in ``DIMS`` with
    ``SAMPLES`` samples each, under suite seed ``1000 * seed + round``.
    """

    name = "verify-all"
    DIMS = (2, 3, 4, 5, 6)
    SAMPLES = 2
    checks = (
        ("passed", _va_passed, _va_corrupt(0, 1)),
        ("trials", _va_trials, _va_corrupt(1, 0)),
    )

    def groups(self, r):
        seed = 1000 * self.seed + r
        return [{"ops": [(suite, n, seed)]} for n in self.DIMS for suite in SUITES]

    def run_op(self, inp):
        suite, n, seed = inp
        return harness.run_suite(
            harness.SuiteConfig(suite=suite, n_low=n, n_high=n, samples=self.SAMPLES, seed=seed)
        )

    def view(self, group, outputs):
        (verdict,) = outputs
        return {
            "passed": verdict.passed,
            "samples": self.SAMPLES,
            "checks": [(c.name, c.trials, c.failures) for c in verdict.checks],
        }


WORKLOADS = {cls.name: cls for cls in (EmbedRational, TstarExpsum, WreathOrbit, VerifyAll)}
