"""Deterministic random generation for the verification suites.

Every draw derives from an integer seed plus a tuple of string/int
labels, hashed with sha256, so a recorded (seed, labels) pair replays
the identical sample on any platform.  Values come from a bounded
rational grid (numerators up to 10 in absolute value, denominators up
to 10) to keep exact arithmetic small.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from math import gcd

from .scalars import _fraction
from .trimat import TriMat

_ZERO, _ONE = Fraction(0), Fraction(1)


def trial_rng(seed: int, *labels) -> random.Random:
    text = repr((int(seed),) + tuple(labels)).encode()
    digest = hashlib.sha256(text).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def rand_fraction(rng: random.Random, num: int = 10, den: int = 10) -> Fraction:
    p, q = rng.randint(-num, num), rng.randint(1, den)
    g = gcd(p, q)
    return _fraction(p // g, q // g)


def rand_nonzero_fraction(rng: random.Random, num: int = 10, den: int = 10) -> Fraction:
    while True:
        q = rand_fraction(rng, num, den)
        if q:
            return q


def rand_strict_upper(rng: random.Random, n: int, num: int = 10, den: int = 10) -> TriMat:
    rows = [[_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rand_fraction(rng, num, den)
    return TriMat(rows)


def rand_unitriangular(rng: random.Random, n: int, num: int = 10, den: int = 10) -> TriMat:
    rows = [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rand_fraction(rng, num, den)
    return TriMat(rows)


def rand_unitriangular_int(rng: random.Random, n: int, bound: int = 3) -> TriMat:
    rows = [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = Fraction(rng.randint(-bound, bound))
    return TriMat(rows)


def rand_nontrivial_unitriangular(rng: random.Random, n: int, **kw) -> TriMat:
    while True:
        g = rand_unitriangular(rng, n, **kw)
        if not g.is_strict_upper() and not g.is_identity():
            return g


def rand_exponents(rng: random.Random, n: int, num: int = 10, den: int = 10) -> tuple:
    """Diagonal exponents; each entry is 0 with some bias to exercise
    partially trivial diagonals."""
    out = []
    for _ in range(n):
        if rng.random() < 0.25:
            out.append(Fraction(0))
        else:
            out.append(rand_fraction(rng, num, den))
    return tuple(out)
