"""Computations made apart from the program, used to check its outputs.

Nothing here imports ``affinetrees``: matrices are lists of row lists,
rationals are :class:`fractions.Fraction`, and exponential sums are plain
dicts ``{exponent: coefficient}`` with zero coefficients dropped.  The
program's outputs are converted into these forms (from the CLI's JSON
text or through public accessors such as ``ExpSum.terms()``) before they
are compared.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

# -- rational matrices -----------------------------------------------------------


def identity(n: int, one=Fraction(1), zero=Fraction(0)) -> list:
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def matmul(a: list, b: list) -> list:
    """Schoolbook product of two square Fraction matrices, skipping zeros."""
    n = len(a)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        arow, orow = a[i], out[i]
        for k in range(n):
            x = arow[k]
            if not x:
                continue
            brow = b[k]
            for j in range(n):
                if brow[j]:
                    orow[j] += x * brow[j]
    return out


def unitriangular_inverse(g: list) -> list:
    """Inverse of a unitriangular Fraction matrix by back-substitution."""
    n = len(g)
    inv = identity(n)
    for j in range(n):
        for i in range(j - 1, -1, -1):
            inv[i][j] = -sum((g[i][k] * inv[k][j] for k in range(i + 1, j + 1)), Fraction(0))
    return inv


def is_unitriangular(a: list) -> bool:
    n = len(a)
    return all(a[i][i] == 1 for i in range(n)) and not any(
        a[i][j] for i in range(n) for j in range(i)
    )


def is_identity(a: list) -> bool:
    return a == identity(len(a))


def lowest_entry_hyperbolic(a: list) -> bool:
    """The paper's form of essential hyperbolicity for a unitriangular
    affine matrix: the lowest nonzero entry of ``a - I`` lies in the final
    column and is the only nonzero entry of its row."""
    n = len(a)
    rows = [
        [j for j in range(n) if a[i][j] != (1 if i == j else 0)] for i in range(n)
    ]
    lowest = max(i for i in range(n) if rows[i])
    return rows[lowest] == [n - 1]


def size4_image(a, b, c, d, e, f) -> list:
    """Embedded image of the size-4 element

        [[1, c, e, f], [0, 1, b, d], [0, 0, 1, a], [0, 0, 0, 1]]

    as worked out in the paper: a 7 x 7 unitriangular matrix whose final
    column is the flattened logarithm (coordinates of the 3rd, then 2nd,
    then 1st superdiagonal) and whose linear block is the exponentiated
    left-multiplication matrix."""
    third, half = Fraction(1, 3), Fraction(1, 2)
    last = [
        f - third * c * d - 2 * third * a * e + third * a * b * c,
        e - half * b * c,
        d - half * a * b,
        c,
        b,
        a,
    ]
    rows = identity(7)
    rows[0][1:6] = [-2 * third * a, 2 * third * c, third * (a * b - d), -third * a * c, third * e]
    rows[1][3], rows[1][4] = -half * b, half * c
    rows[2][4], rows[2][5] = -half * a, half * b
    for i, v in enumerate(last):
        rows[i][6] = v
    return rows


# -- exponential sums ------------------------------------------------------------


def es_add(x: dict, y: dict) -> dict:
    out = dict(x)
    for q, c in y.items():
        s = out.get(q, 0) + c
        if s:
            out[q] = s
        else:
            out.pop(q, None)
    return out


def es_sub(x: dict, y: dict) -> dict:
    return es_add(x, {q: -c for q, c in y.items()})


def es_mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for q1, c1 in x.items():
        for q2, c2 in y.items():
            q = q1 + q2
            s = out.get(q, 0) + c1 * c2
            if s:
                out[q] = s
            else:
                out.pop(q, None)
    return out


def es_matmul(a: list, b: list) -> list:
    """Product of square matrices of exponential-sum dicts."""
    n = len(a)
    out = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            x = a[i][k]
            if not x:
                continue
            for j in range(n):
                y = b[k][j]
                if y:
                    out[i][j] = es_add(out[i][j], es_mul(x, y))
    return out


def es_conj_product(u1: list, q1: tuple, u2: list, q2: tuple):
    """(u1 d1)(u2 d2) = u1 (d1 u2 d1^-1) d1 d2 for unitriangular u1, u2 with
    exponential-sum entries and diagonals d_i = diag(e**q)."""
    n = len(u1)
    conj = [
        [es_mul(u2[k][j], {q1[k] - q1[j]: Fraction(1)}) if u2[k][j] else {} for j in range(n)]
        for k in range(n)
    ]
    return es_matmul(u1, conj), tuple(a + b for a, b in zip(q1, q2))


# -- decimal cross-check of signs --------------------------------------------------

DECIMAL_DIGITS = 60
#: Values smaller than this are treated as zero; exact nonzero values in
#: the workloads are many orders of magnitude larger, while the decimal
#: rounding error stays near 10**-55.
DECIMAL_ZERO = Decimal(10) ** -30


@lru_cache(maxsize=4096)
def _decimal_exp(q: Fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        return (Decimal(q.numerator) / Decimal(q.denominator)).exp()


def es_decimal(x: dict) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        total = Decimal(0)
        for q, c in x.items():
            total += Decimal(c.numerator) / Decimal(c.denominator) * _decimal_exp(q)
        return total


def decimal_lex_sign(coords: list) -> int:
    """Sign of the first decimal coordinate that is not zero."""
    for v in coords:
        if abs(v) > DECIMAL_ZERO:
            return 1 if v > 0 else -1
    return 0


def displacement_sign(image: list, point: tuple) -> int:
    """Sign of ``image . x - x`` for the affine action of a decimal image
    matrix on the point whose value tuple lists the most significant
    coordinate first (the last matrix row is the most significant)."""
    n = len(image) - 1
    xs = list(reversed(point))
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        for i in range(n - 1, -1, -1):
            row = image[i]
            acc = row[n] - xs[i]
            for j in range(i, n):
                if row[j]:
                    acc += row[j] * xs[j]
            if abs(acc) > DECIMAL_ZERO:
                return 1 if acc > 0 else -1
    return 0
