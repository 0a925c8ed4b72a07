"""Traced runs: spans around the calls into each ``affinetrees`` module.

The wrappers are installed from here, not inside the program.  A
function imported into another module (``embedding`` imports
``nilpotent_exp`` from ``trimat``) is replaced in every module namespace
that holds it, so it is wrapped where it is looked up; methods are
replaced on their class.  Each span records its name, start, end, the
span that caused it and the benchmark operation it belongs to.  Spans are
kept in memory (up to ``SPAN_CAP``) and written out when the run ends;
call counts and self times are kept for every call, capped or not.

Self time is a span's duration minus the time its child spans cover.
Wrappers record only while ``Tracer.active`` is set, which the benchmark
does around each timed operation, so result checks are not traced.
"""

from __future__ import annotations

import functools
import json
import sys
import time

SPAN_CAP = 100_000

#: metric prefix -> (module, "Class.attr" or "function") targets
SPANS = {
    "scalars.expsum_mul": [("scalars", "ExpSum.__mul__"), ("scalars", "ExpSum.__rmul__")],
    "scalars.expsum_add": [("scalars", "ExpSum.__add__"), ("scalars", "ExpSum.__radd__")],
    "scalars.sign": [("scalars", "ExpSum.sign")],
    "trimat.matmul": [("trimat", "TriMat.__mul__")],
    "trimat.exp": [("trimat", "nilpotent_exp")],
    "trimat.log": [("trimat", "unipotent_log")],
    "trimat.inverse": [("trimat", "TriMat.inverse")],
    "trimat.add_scale": [
        ("trimat", "TriMat.__add__"),
        ("trimat", "TriMat.__sub__"),
        ("trimat", "TriMat.scale"),
    ],
    "embedding.embed": [("embedding", "embed_unitriangular")],
    "embedding.left_mult_closed": [("embedding", "left_mult_matrix_closed")],
    "embedding.left_mult_bilinear": [("embedding", "left_mult_matrix")],
    "embedding.lsa_product": [("embedding", "left_symmetric_product")],
    "embedding.hyperbolic": [("embedding", "is_essentially_hyperbolic")],
    "embedding.integerize": [("embedding", "integerize")],
    "embedding.certify": [("embedding", "certify_admissible")],
    "triangular.embed": [("triangular", "embed_triangular")],
    "triangular.conjugate": [("triangular", "conjugate_by_diagonal")],
    "triangular.verify_identities": [("triangular", "verify_conjugation_identities")],
    "ordered.compare": [
        ("ordered", "Scalars.compare"),
        ("ordered", "Product.compare"),
        ("ordered", "LexFamily.compare"),
    ],
    "ordered.arith": [
        ("ordered", f"{cls}.{op}")
        for cls in ("Scalars", "Product", "LexFamily")
        for op in ("coerce", "add", "neg")
    ]
    + [("ordered", "Space.sub")],
    "actions.act": [
        ("actions", f"{cls}.{op}")
        for cls in ("MatrixAffineAut", "ProductAut")
        for op in ("act", "dilate")
    ],
    "actions.compose": [
        ("actions", f"{cls}.{op}")
        for cls in ("MatrixAffineAut", "ProductAut")
        for op in ("compose", "invert")
    ],
    "actions.free_rigid": [("actions", "check_free_and_rigid")],
    "wreath.act": [("wreath", "WreathGroup.act"), ("wreath", "WreathGroup.dilate")],
    "wreath.mul": [("wreath", "WreathGroup.mul"), ("wreath", "WreathGroup.inv")],
    "harness.run_suite": [("harness", "run_suite")],
    "sampling.draw": [
        ("sampling", name)
        for name in (
            "trial_rng",
            "rand_fraction",
            "rand_nonzero_fraction",
            "rand_strict_upper",
            "rand_unitriangular",
            "rand_unitriangular_int",
            "rand_nontrivial_unitriangular",
            "rand_exponents",
        )
    ],
    "jsonio.encode": [
        ("jsonio", name)
        for name in (
            "mat_to_json",
            "affine_rep_to_json",
            "triangular_to_json",
            "lexvec_to_json",
            "wreath_elem_to_json",
        )
    ],
    "jsonio.decode": [
        ("jsonio", name)
        for name in (
            "mat_from_json",
            "affine_rep_from_json",
            "triangular_from_json",
            "lexvec_from_json",
            "wreath_elem_from_json",
        )
    ],
    "cli.main": [("cli", "main")],
}

SUITES = ("lsa", "embedding", "hyperbolicity", "integerize", "tstar", "wreath")

#: (metric name, unit, better, (kind, key)); values are per operation
#: except means and rates.  kinds: calls, self, wall (span time including
#: children), count (a counter), mean (counter sum / counter count),
#: workload (a figure the workload measures itself), rate (traced ops/s).
PER_LAYER = [
    ("scalars.expsum_mul.calls", "count/op", "lower", ("calls", "scalars.expsum_mul")),
    ("scalars.expsum_mul.self_s", "s/op", "lower", ("self", "scalars.expsum_mul")),
    ("scalars.expsum_add.calls", "count/op", "lower", ("calls", "scalars.expsum_add")),
    ("scalars.expsum_add.self_s", "s/op", "lower", ("self", "scalars.expsum_add")),
    ("scalars.sign.calls", "count/op", "lower", ("calls", "scalars.sign")),
    ("scalars.sign.refined_calls", "count/op", "lower", ("count", "scalars.sign.refined")),
    ("scalars.sign.self_s", "s/op", "lower", ("self", "scalars.sign")),
    ("trimat.matmul.calls", "count/op", "lower", ("calls", "trimat.matmul")),
    ("trimat.matmul.self_s", "s/op", "lower", ("self", "trimat.matmul")),
    ("trimat.exp.calls", "count/op", "lower", ("calls", "trimat.exp")),
    ("trimat.exp.self_s", "s/op", "lower", ("self", "trimat.exp")),
    ("trimat.log.self_s", "s/op", "lower", ("self", "trimat.log")),
    ("trimat.inverse.self_s", "s/op", "lower", ("self", "trimat.inverse")),
    ("trimat.add_scale.self_s", "s/op", "lower", ("self", "trimat.add_scale")),
    ("trimat.matrices_built", "count/op", "lower", ("count", "trimat.matrices_built")),
    ("embedding.embed.calls", "count/op", "lower", ("calls", "embedding.embed")),
    ("embedding.embed.self_s", "s/op", "lower", ("self", "embedding.embed")),
    ("embedding.left_mult_closed.self_s", "s/op", "lower", ("self", "embedding.left_mult_closed")),
    ("embedding.left_mult_bilinear.self_s", "s/op", "lower", ("self", "embedding.left_mult_bilinear")),
    ("embedding.lsa_product.self_s", "s/op", "lower", ("self", "embedding.lsa_product")),
    ("embedding.hyperbolic.self_s", "s/op", "lower", ("self", "embedding.hyperbolic")),
    ("embedding.integerize.self_s", "s/op", "lower", ("self", "embedding.integerize")),
    ("embedding.certify.self_s", "s/op", "lower", ("self", "embedding.certify")),
    ("triangular.embed.calls", "count/op", "lower", ("calls", "triangular.embed")),
    ("triangular.embed.self_s", "s/op", "lower", ("self", "triangular.embed")),
    ("triangular.conjugate.self_s", "s/op", "lower", ("self", "triangular.conjugate")),
    ("triangular.verify_identities.self_s", "s/op", "lower", ("self", "triangular.verify_identities")),
    ("ordered.compare.calls", "count/op", "lower", ("calls", "ordered.compare")),
    ("ordered.compare.self_s", "s/op", "lower", ("self", "ordered.compare")),
    ("ordered.arith.self_s", "s/op", "lower", ("self", "ordered.arith")),
    ("actions.act.calls", "count/op", "lower", ("calls", "actions.act")),
    ("actions.act.self_s", "s/op", "lower", ("self", "actions.act")),
    ("actions.compose.self_s", "s/op", "lower", ("self", "actions.compose")),
    ("actions.free_rigid.self_s", "s/op", "lower", ("self", "actions.free_rigid")),
    ("wreath.act.calls", "count/op", "lower", ("calls", "wreath.act")),
    ("wreath.act.self_s", "s/op", "lower", ("self", "wreath.act")),
    ("wreath.mul.calls", "count/op", "lower", ("calls", "wreath.mul")),
    ("wreath.mul.self_s", "s/op", "lower", ("self", "wreath.mul")),
    ("wreath.support_len.mean", "count", "lower", ("mean", "wreath.support_len")),
]
PER_LAYER += [
    (f"harness.{suite}.wall_s", "s/op", "lower", ("wall", f"harness.{suite}"))
    for suite in SUITES
]
PER_LAYER += [
    ("harness.trials", "count/op", "higher", ("count", "harness.trials")),
    ("sampling.draw.calls", "count/op", "lower", ("calls", "sampling.draw")),
    ("sampling.draw.self_s", "s/op", "lower", ("self", "sampling.draw")),
    ("jsonio.encode.self_s", "s/op", "lower", ("self", "jsonio.encode")),
    ("jsonio.decode.self_s", "s/op", "lower", ("self", "jsonio.decode")),
    ("jsonio.bytes_out", "B/op", "lower", ("workload", "bytes_out")),
    ("cli.main.self_s", "s/op", "lower", ("self", "cli.main")),
    ("trace.ops_per_s", "ops/s", "higher", ("rate", None)),
]


class Tracer:
    """In-memory span recorder with per-name call counts and times."""

    def __init__(self):
        self.active = False
        self.op = 0
        self.stack = []
        self.stats = {}  # name -> [calls, span_ns, self_ns]
        self.counters = {}  # name -> [sum, count]
        self.spans = []
        self.dropped = 0
        self._next_id = 0

    def count(self, name, amount=1):
        entry = self.counters.setdefault(name, [0, 0])
        entry[0] += amount
        entry[1] += 1

    def _push(self):
        self._next_id += 1
        parent = self.stack[-1] if self.stack else None
        frame = [self._next_id, 0]
        self.stack.append(frame)
        return frame, parent

    def _pop(self, name, frame, parent, start, end):
        self.stack.pop()
        duration = end - start
        stat = self.stats.setdefault(name, [0, 0, 0])
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[1]
        if parent is not None:
            parent[1] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (frame[0], parent[0] if parent else 0, self.op, name, start, end)
            )
        else:
            self.dropped += 1

    def wrap(self, name, fn, pre=None, post=None):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(args)
            frame, parent = tracer._push()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(name, frame, parent, start, clock())
            if post is not None:
                post(result)
            return result

        return wrapper

    def counted(self, name, fn):
        """Wrapper that only counts calls (for constructors)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def begin_op(self, op_id):
        self.op = op_id
        self.active = True
        return self._push() + (time.perf_counter_ns(),)

    def end_op(self, token):
        frame, parent, start = token
        self._pop("bench.op", frame, parent, start, time.perf_counter_ns())
        self.active = False

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(dict(header, spans=len(self.spans), dropped=self.dropped)) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == "affinetrees" or name.startswith("affinetrees.")
    ]


def _replace_everywhere(original, wrapper):
    for mod in _modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every target in ``SPANS`` plus the counters and hooks."""
    from affinetrees import harness, trimat, wreath

    def refined(args):
        coeffs = [c for _, c in args[0].terms()]
        if any(c > 0 for c in coeffs) and any(c < 0 for c in coeffs):
            tracer.count("scalars.sign.refined")

    def support(args):
        for arg in args[1:]:
            if isinstance(arg, wreath.WreathElem):
                tracer.count("wreath.support_len", len(arg.support))

    def trials(verdict):
        tracer.count("harness.trials", sum(c.trials for c in verdict.checks))

    hooks = {
        "scalars.sign": (refined, None),
        "wreath.act": (support, None),
        "wreath.mul": (support, None),
        "harness.run_suite": (None, trials),
    }
    done = {}
    for metric, targets in SPANS.items():
        pre, post = hooks.get(metric, (None, None))
        for module_name, dotted in targets:
            mod = sys.modules[f"affinetrees.{module_name}"]
            owner_name, _, attr = dotted.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = vars(owner)[attr]
            if id(original) not in done:
                done[id(original)] = tracer.wrap(metric, original, pre, post)
            wrapper = done[id(original)]
            if owner_name:
                setattr(owner, attr, wrapper)
            else:
                _replace_everywhere(original, wrapper)
    trimat.TriMat.__init__ = tracer.counted("trimat.matrices_built", trimat.TriMat.__init__)
    for suite in SUITES:
        harness._SUITE_BODIES[suite] = tracer.wrap(f"harness.{suite}", harness._SUITE_BODIES[suite])


def layer_metrics(tracer: Tracer, ops: int, op_seconds: float, scale: float, workload_figures: dict) -> dict:
    """Per-layer metrics of a traced run, per operation where so marked.

    ``op_seconds`` is the scaled operation time; span times are multiplied
    by ``scale``, the run's median calibration scale (see run.py)."""
    out = {}
    for name, unit, _better, (kind, key) in PER_LAYER:
        if kind == "rate":
            value = ops / op_seconds
        elif kind == "mean":
            total, count = tracer.counters.get(key, [0, 0])
            value = total / count if count else 0.0
        elif kind == "count":
            value = tracer.counters.get(key, [0, 0])[0] / ops
        elif kind == "workload":
            value = workload_figures.get(key, 0) / ops
        else:
            calls, span_ns, self_ns = tracer.stats.get(key, [0, 0, 0])
            value = {"calls": calls, "wall": span_ns * scale / 1e9, "self": self_ns * scale / 1e9}[kind] / ops
        out[name] = {"value": value, "unit": unit}
    return out
