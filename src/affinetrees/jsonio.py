"""JSON encoding and decoding for every value that crosses the CLI
boundary, and the writer of the CLI's JSON text.  All numbers are exact
strings ('p/q') or term lists for exponential sums -- never floats -- so
identical inputs always produce byte-identical outputs.

The text writer :func:`dumps` quotes a row of strings in one piece: the
row's concatenation goes through the C string escaper once, and when
nothing in it needs escaping the row is joined between quotes.
:func:`image_and_conjugate_to_json` writes ``embed --integerize``'s
image and its integral conjugate straight from the integer rows of the
closed-form embedding, with one gcd per image entry and int arithmetic
for the conjugate, without building either matrix.
"""

from __future__ import annotations

import re
from json.encoder import encode_basestring_ascii as _escape
from math import gcd

from .embedding import AffineRep
from .errors import DimensionMismatch
from .ordered import LexFamily, LexVec, Product, Scalars, Space
from .scalars import ExpSum, _too_large, rat_from_str, rat_to_str
from .trimat import TriMat
from .triangular import TriangularElement


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _array(obj, what: str) -> list:
    """``obj`` itself if it is a JSON array; a string is not read as one."""
    if not isinstance(obj, list):
        raise ValueError(f"{what} must be a JSON array, got {type(obj).__name__}")
    return obj


def dumps(obj) -> str:
    """``obj`` as JSON text, byte for byte ``json.dumps(obj, sort_keys=True,
    indent=2)``: sorted keys, ``": "`` after a key, each item on its own
    line two spaces deeper, ``[]``/``{}`` when empty.  ``obj`` is built of
    strings, ints, booleans, ``None``, lists, tuples and dicts with string
    keys; anything else (a float included) raises :class:`TypeError`.

    An indent makes :func:`json.dumps` run its pure-Python encoder; here the
    leaves go through the C string escaper.  A row of strings is escaped
    once, as one string: if that adds only the two quotes, no item needs
    escaping and the row is joined between quotes; otherwise each item is
    escaped on its own."""
    return _dumps(obj, "\n")


def _dumps(obj, newline: str) -> str:
    # ``newline`` is a line break plus the indent of the line ``obj`` is on
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        try:
            flat = "".join(obj)
        except TypeError:  # not a row of strings only
            body = ("," + inner).join([_dumps(v, inner) for v in obj])
        else:
            if len(_escape(flat)) == len(flat) + 2:
                body = '"' + ('",' + inner + '"').join(obj) + '"'
            else:
                body = ("," + inner).join(map(_escape, obj))
        return "[" + inner + body + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        body = ("," + inner).join(
            [_escape(k) + ": " + _dumps(obj[k], inner) for k in sorted(obj)]
        )
        return "{" + inner + body + newline + "}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def scalar_to_json(value):
    if isinstance(value, ExpSum):
        return [
            {"coeff": rat_to_str(c), "exp": rat_to_str(q)} for q, c in value.terms()
        ]
    return rat_to_str(value)


def scalar_from_json(obj):
    if isinstance(obj, list):
        return ExpSum(
            [(rat_from_str(t["exp"]), rat_from_str(t["coeff"])) for t in obj]
        )
    return rat_from_str(obj)


def mat_to_json(mat: TriMat) -> dict:
    if mat.expsum:
        entries = [[scalar_to_json(v) for v in row] for row in mat.rows]
    else:
        entries = [[rat_to_str(v) if v else "0" for v in row] for row in mat.rows]
    return {"n": mat.n, "entries": entries}


def diagonal_to_json(entries: list[int]) -> dict:
    """:func:`mat_to_json` of the diagonal matrix of the ints ``entries``,
    written without building the matrix."""
    n = len(entries)
    rows = [["0"] * n for _ in range(n)]
    for i, v in enumerate(entries):
        rows[i][i] = rat_to_str(v)
    return {"n": n, "entries": rows}


def image_and_conjugate_to_json(image: list, scale: list[int]) -> tuple[dict, dict]:
    """:func:`mat_to_json` of an embedded image and of its conjugate
    diag(scale) * image * diag(scale)**-1, written from the image's rows
    above the corner, (den, {column: s}) with entry s / den, as
    :func:`~affinetrees.embedding._embed_with_clearing_scales` gives them
    with its clearing scales.  An image entry is s / den reduced by one
    gcd; the conjugate's entry (i, j) is the int s * (s_i // s_j) // den.
    Absent entries are "0", and the corner row is written as it is.
    Raises :class:`ResultTooLarge` when an entry has more digits than the
    interpreter converts to text."""
    size = len(image) + 1
    zeros = ["0"] * size
    matrix, conjugated = [], []
    try:
        for (den, row), si in zip(image, scale):
            out, cout = zeros.copy(), zeros.copy()
            for j, s in row.items():
                g = gcd(s, den)
                out[j] = str(s // g) if g == den else f"{s // g}/{den // g}"
                cout[j] = str(s * (si // scale[j]) // den)
            matrix.append(out)
            conjugated.append(cout)
    except ValueError as exc:
        raise _too_large() from exc
    for rows in (matrix, conjugated):
        rows.append(zeros[:-1] + ["1"])
    return {"n": size, "entries": matrix}, {"n": size, "entries": conjugated}


def mat_from_json(obj) -> TriMat:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValueError("matrix JSON must be an object with an 'entries' field")
    entries = _array(obj["entries"], "'entries'")
    # each distinct string is parsed once per matrix, since most entries
    # repeat, and every entry in reading order, so the first bad one is
    # the one reported; term lists and JSON numbers are kept by identity
    parsed, others, rows = {}, {}, []
    for row in entries:
        rows.append(row := _array(row, "matrix row"))
        for v in row:
            if type(v) is str:
                if v not in parsed:
                    parsed[v] = rat_from_str(v)
            else:
                others[id(v)] = scalar_from_json(v)
    get = parsed.__getitem__
    if others:
        rows = [[get(v) if type(v) is str else others[id(v)] for v in row] for row in rows]
    else:
        rows = [list(map(get, row)) for row in rows]
    mat = TriMat(rows)
    if "n" in obj:
        n = obj["n"]
        if type(n) is not int:
            raise ValueError(
                f"matrix field 'n' must be a JSON integer, got {type(n).__name__}"
            )
        if n != mat.n:
            raise DimensionMismatch(
                f"declared dimension {n} but entries are {mat.n}x{mat.n}"
            )
    return mat


def affine_rep_to_json(rep: AffineRep) -> dict:
    return {"n": rep.n, "m": rep.m, "matrix": mat_to_json(rep.matrix)}


def affine_rep_from_json(obj) -> AffineRep:
    return AffineRep(obj["n"], obj["m"], mat_from_json(obj["matrix"]))


def triangular_to_json(g: TriangularElement) -> dict:
    return {
        "n": g.n,
        "u": mat_to_json(g.u),
        "diag_exponents": [rat_to_str(q) for q in g.exponents],
    }


def triangular_from_json(obj) -> TriangularElement:
    if not isinstance(obj, dict):
        raise ValueError(
            "element JSON must be an object with fields 'n', 'u' and "
            f"'diag_exponents', got {type(obj).__name__}"
        )
    n = obj["n"]
    if type(n) is not int:
        raise ValueError(f"'n' must be a JSON integer, got {type(n).__name__}")
    return TriangularElement(
        n,
        mat_from_json(obj["u"]),
        tuple(
            rat_from_str(q)
            for q in _array(obj["diag_exponents"], "'diag_exponents'")
        ),
    )


# -- spaces and lexicographic values -------------------------------------------


def space_to_json(space: Space):
    if isinstance(space, Scalars):
        return space.kind
    if isinstance(space, Product):
        return {"product": [space_to_json(f) for f in space.factors]}
    if isinstance(space, LexFamily):
        return {
            "family": {
                "index": space_to_json(space.index),
                "fiber": space_to_json(space.fiber),
            }
        }
    raise ValueError(f"unknown space: {space!r}")


def space_from_json(obj) -> Space:
    if isinstance(obj, str):
        return Scalars(obj)
    if isinstance(obj, dict) and "product" in obj:
        factors = _array(obj["product"], "'product'")
        return Product(*(space_from_json(f) for f in factors))
    if isinstance(obj, dict) and "family" in obj:
        return LexFamily(
            space_from_json(obj["family"]["index"]),
            space_from_json(obj["family"]["fiber"]),
        )
    raise ValueError(f"unknown space descriptor: {obj!r}")


def _value_to_json(space: Space, value):
    if isinstance(space, Scalars):
        if space.kind == "Z":
            return str(value)
        return scalar_to_json(value)
    if isinstance(space, Product):
        return [_value_to_json(f, v) for f, v in zip(space.factors, value)]
    if isinstance(space, LexFamily):
        return [
            {
                "index": _value_to_json(space.index, idx),
                "value": _value_to_json(space.fiber, v),
            }
            for idx, v in value
        ]
    raise ValueError(f"unknown space: {space!r}")


def _int_from_json(obj) -> int:
    """A JSON int, or a string matching ``[+-]?[0-9]+`` once surrounding
    whitespace is stripped (no digit separators or non-ASCII digits)."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj
    if isinstance(obj, str) and _INTEGER.fullmatch(obj.strip()):
        return int(obj)
    raise ValueError(f"not an integer: {obj!r}")


def _value_from_json(space: Space, obj):
    if isinstance(space, Scalars):
        if space.kind == "Z":
            return _int_from_json(obj)
        return scalar_from_json(obj)
    if isinstance(space, Product):
        values = _array(obj, "a product's value")
        if len(values) != len(space.factors):
            raise ValueError(
                f"a product of {len(space.factors)} factors needs as many values,"
                f" got {len(values)}"
            )
        return tuple(_value_from_json(f, v) for f, v in zip(space.factors, values))
    if isinstance(space, LexFamily):
        return tuple(
            (
                _value_from_json(space.index, item["index"]),
                _value_from_json(space.fiber, item["value"]),
            )
            for item in _array(obj, "a family's support")
        )
    raise ValueError(f"unknown space: {space!r}")


def lexvec_to_json(vec: LexVec) -> dict:
    return {
        "index_space": space_to_json(vec.space),
        "support": _value_to_json(vec.space, vec.value),
    }


def lexvec_from_json(obj) -> LexVec:
    space = space_from_json(obj["index_space"])
    return LexVec(space, _value_from_json(space, obj["support"]))


# -- wreath elements -------------------------------------------------------------
# The fiber group is abstract, so callers supply the codec for its
# elements.


def wreath_elem_to_json(group, elem, h_to_json) -> dict:
    return {
        "shift": _value_to_json(group.index_space, elem.shift),
        "support": [
            {"index": _value_to_json(group.index_space, idx), "h": h_to_json(h)}
            for idx, h in elem.support
        ],
    }


def wreath_elem_from_json(group, obj, h_from_json):
    shift = _value_from_json(group.index_space, obj["shift"])
    pairs = [
        (_value_from_json(group.index_space, item["index"]), h_from_json(item["h"]))
        for item in _array(obj["support"], "'support'")
    ]
    return group.element(shift, pairs)

