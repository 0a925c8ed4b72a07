"""Traced split of one ``embed_unitriangular`` call at n = 8.

    python3 perfbench/split.py

Draws ``SAMPLES`` rational unitriangular matrices of size ``N`` from
the embed-rational grid, traces ``embed_unitriangular`` on each with the
wrappers of ``tracing.py``, and prints, per wrapped function and calling
function, the calls and time per embedding and the share of the
embedding's time.  It also prints the first power of the affine algebra
representation that vanishes, next to the number of products
``nilpotent_exp`` forms.
"""

from __future__ import annotations

import random
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets up the import of affinetrees from src/)

N = 8
SAMPLES = 5
SEED = 0


def main():
    run.import_package()
    import tracing
    import workloads
    from affinetrees import embedding, trimat

    rng = random.Random(f"{SEED}:split:{N}")
    mats = [trimat.TriMat(workloads._unitriangular(rng, N, 9, 9)) for _ in range(SAMPLES)]

    rep = embedding.affine_algebra_rep(trimat.unipotent_log(mats[0]))
    power, first_zero = rep, 1
    while any(v for row in power.rows for v in row):
        power, first_zero = power * rep, first_zero + 1

    tracer = tracing.Tracer()
    tracing.install(tracer)
    for i, g in enumerate(mats):
        token = tracer.begin_op(i)
        embedding.embed_unitriangular(g)
        tracer.end_op(token)

    names = {span[0]: span[3] for span in tracer.spans}
    table = defaultdict(lambda: [0, 0, 0])  # (name, parent) -> calls, span ns, self ns
    child_ns = defaultdict(int)
    for sid, parent, _op, _name, start, end in tracer.spans:
        child_ns[parent] += end - start
    for sid, parent, _op, name, start, end in tracer.spans:
        row = table[(name, names.get(parent, "-"))]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_ns[sid]
    total = sum(row[1] for (name, _), row in table.items() if name == "bench.op")
    k = SAMPLES
    print(f"embed_unitriangular, n = {N}, image {rep.n} x {rep.n}, {k} samples, "
          f"{total / k / 1e6:.1f} ms per embedding (traced)")
    print(f"first vanishing power of the algebra representation: {first_zero}; "
          f"nilpotent_exp forms {rep.n - 1} products")
    print(f"matrices built per embedding: {tracer.counters['trimat.matrices_built'][0] / k:.0f}")
    print(f"{'span':28} {'called from':22} {'calls':>7} {'ms':>9} {'self ms':>9} {'share':>6}")
    for (name, parent), (calls, span_ns, self_ns) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        if name == "bench.op":
            continue
        print(f"{name:28} {parent:22} {calls / k:7.1f} {span_ns / k / 1e6:9.2f} "
              f"{self_ns / k / 1e6:9.2f} {span_ns / total:6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
