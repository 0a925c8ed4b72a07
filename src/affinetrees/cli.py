"""Command-line interface.

Subcommands construct embeddings, evaluate predicates and run the
verification suites with JSON input and output.  All numbers in the
JSON are exact strings, identical invocations produce byte-identical
output, and exit codes distinguish failure kinds:

* 0 -- success (for ``verify``/``wreath``: all checks passed)
* 1 -- a verification check failed
* 2 -- malformed input or flags
* 3 -- a documented precondition was violated
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import jsonio, scalars
from .actions import from_affine_matrix
from .embedding import (
    AffineRep,
    _checked_clearing_scales,
    _embed_with_clearing_scales,
    _scaled_conjugate,
    check_embeddable,
    is_essentially_hyperbolic,
)
from .errors import AffineTreesError, ConfigInvalid, ResultTooLarge, TooManyLevels
from .harness import SuiteConfig, run_suite, _wreath_law_checks
from .ordered import LexVec
from .triangular import embed_triangular
from .trimat import TriMat
from .wreath import WreathGroup, iterated_wreath

EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_PRECONDITION = 3

#: Largest ``|--power|`` that ``act`` accepts; each step is one affine map.
MAX_POWER = 10_000

#: Most exponential-sum terms, over all coordinates, that ``act`` lets a
#: point reach between steps.  A dilation with exponential entries moves
#: exponents on every step, so the terms grow with the power and each step
#: costs more than the last.
MAX_POINT_TERMS = 4_096


class CliInputError(Exception):
    pass


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise CliInputError(f"cannot read JSON from {path!r}: {exc}") from exc


def _emit(payload, path: str | None) -> None:
    text = jsonio.dumps(payload) + "\n"
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_matrix(obj) -> TriMat:
    try:
        return jsonio.mat_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"malformed matrix JSON: {exc}") from exc


def _require_rational(mats) -> None:
    if any(m.expsum for m in mats):
        raise CliInputError("clearing denominators needs rational matrices")


def cmd_embed(args) -> int:
    mat = _parse_matrix(_load_json(args.input))
    if args.n is not None and args.n != mat.n:
        raise CliInputError(f"--n {args.n} does not match input dimension {mat.n}")
    if not args.integerize:
        _emit(jsonio.affine_rep_to_json(AffineRep.of(mat)), args.output)
        return 0
    check_embeddable(mat)
    _require_rational([mat])
    # a rational unitriangular image and its inverse form an inverse-closed
    # set, so integerize's own checks would only repeat the inversion; the
    # clearing scales of the pair come with the image's integer rows, and
    # the image and its conjugate are written from those rows, neither
    # built as a matrix
    image, scale = _embed_with_clearing_scales(mat)
    # the first scale is the largest: one too long to write ends the
    # request before any JSON is encoded
    scalars.check_writable(scale[0])
    matrix, conjugated = jsonio.image_and_conjugate_to_json(image, scale)
    payload = {
        "n": mat.n,
        "m": len(image),
        "matrix": matrix,
        "integerized": {"P": jsonio.diagonal_to_json(scale), "conjugated": conjugated},
    }
    _emit(payload, args.output)
    return 0


def cmd_hyperbolic(args) -> int:
    mat = _parse_matrix(_load_json(args.input))
    verdict = is_essentially_hyperbolic(mat)
    _emit({"essentially_hyperbolic": verdict}, args.output)
    return 0


def cmd_integerize(args) -> int:
    obj = _load_json(args.input)
    if not isinstance(obj, list) or not obj:
        raise CliInputError("expected a nonempty JSON array of matrices")
    gens = [_parse_matrix(m) for m in obj]
    _require_rational(gens)
    scale = _checked_clearing_scales(gens)
    scalars.check_writable(scale[0])
    _emit(
        {
            "P": jsonio.diagonal_to_json(scale),
            "conjugated": [jsonio.mat_to_json(_scaled_conjugate(g, scale)) for g in gens],
        },
        args.output,
    )
    return 0


def cmd_extend_tstar(args) -> int:
    try:
        elem = jsonio.triangular_from_json(_load_json(args.input))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"malformed element JSON: {exc}") from exc
    image = embed_triangular(elem)
    payload = {"matrix": jsonio.mat_to_json(image)}
    if not elem.is_identity():
        payload["essentially_free"] = is_essentially_hyperbolic(image)
    _emit(payload, args.output)
    return 0


def cmd_act(args) -> int:
    if abs(args.power) > MAX_POWER:
        raise CliInputError(f"--power must satisfy |power| <= {MAX_POWER}")
    rep_obj = _load_json(args.rep)
    if isinstance(rep_obj, dict) and "matrix" in rep_obj:
        mat = _parse_matrix(rep_obj["matrix"])
    else:
        mat = _parse_matrix(rep_obj)
    aut = from_affine_matrix(mat)
    point_obj = _load_json(args.point)
    if isinstance(point_obj, list):
        # bare arrays use matrix coordinate order (row 1 first); the last
        # entry is the most significant for the order
        try:
            coords = [jsonio.scalar_from_json(v) for v in point_obj]
        except (KeyError, TypeError, ValueError) as exc:
            raise CliInputError(f"malformed point JSON: {exc}") from exc
        if len(coords) != mat.n - 1:
            raise CliInputError(
                f"point has {len(coords)} coordinates, expected {mat.n - 1}"
            )
        point = LexVec(aut.space, tuple(reversed(coords)))
        as_list = True
    else:
        try:
            point = jsonio.lexvec_from_json(point_obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise CliInputError(f"malformed point JSON: {exc}") from exc
        as_list = False
    power = args.power
    acting = aut if power >= 0 else aut.invert()
    expsum = aut.matrix.expsum
    for step in range(1, abs(power) + 1):
        point = acting.act(point)
        if expsum and sum(v.term_count() for v in point.value) > MAX_POINT_TERMS:
            raise ResultTooLarge(
                f"the point has more than {MAX_POINT_TERMS} exponential-sum terms"
                f" after {step} of {abs(power)} steps"
            )
    if as_list:
        out = [jsonio.scalar_to_json(v) for v in reversed(point.value)]
    else:
        out = jsonio.lexvec_to_json(point)
    _emit(out, args.output)
    return 0


def _parse_dims(text: str) -> tuple[int, int]:
    if ".." in text:
        low, high = text.split("..", 1)
        return int(low), int(high)
    n = int(text)
    return n, n


def cmd_verify(args) -> int:
    try:
        low, high = _parse_dims(args.n)
    except ValueError as exc:
        raise CliInputError(f"bad --n value {args.n!r}") from exc
    cfg = SuiteConfig(
        suite=args.suite,
        n_low=low,
        n_high=high,
        samples=args.samples,
        seed=args.seed,
        max_refinements=args.max_refinements,
    )
    try:
        verdict = run_suite(cfg)
    except ConfigInvalid as exc:
        raise CliInputError(str(exc)) from exc
    _emit(verdict.to_json(), args.output)
    return 0 if verdict.passed else EXIT_CHECK_FAILED


def cmd_wreath(args) -> int:
    levels = [part.strip() for part in args.levels.split(",") if part.strip()]
    if not levels or any(kind not in ("Z", "Q") for kind in levels):
        raise CliInputError("--levels must be a comma list of Z or Q")
    try:
        bundle = iterated_wreath(levels)
    except TooManyLevels as exc:
        raise CliInputError(f"--levels: {exc}") from exc
    if not isinstance(bundle, WreathGroup):
        raise CliInputError("need at least two levels to form a wreath product")
    cfg = SuiteConfig(suite="wreath", samples=args.samples, seed=args.seed)
    cfg.validate()
    checks = _wreath_law_checks(cfg, "wreath.cli", bundle)
    payload = {
        "levels": levels,
        "passed": all(c.passed for c in checks),
        "checks": [c.to_json() for c in checks],
    }
    _emit(payload, args.output)
    return 0 if payload["passed"] else EXIT_CHECK_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls
    (parsing leaves no state in it)."""
    parser = argparse.ArgumentParser(
        prog="affinetrees",
        description=(
            "Exact constructions and verification for affine actions of "
            "triangular matrix groups and wreath products on "
            "lexicographically ordered groups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="embed a unitriangular matrix")
    p.add_argument("--input", required=True, help="matrix JSON file ('-' for stdin)")
    p.add_argument("--n", type=int, default=None, help="expected input dimension")
    p.add_argument("--integerize", action="store_true", help="also clear denominators")
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("hyperbolic", help="essential hyperbolicity verdict")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_hyperbolic)

    p = sub.add_parser("integerize", help="clear denominators of a generating set")
    p.add_argument("--input", required=True, help="JSON array of matrices")
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_integerize)

    p = sub.add_parser(
        "extend-tstar", help="embed a positive-diagonal triangular element"
    )
    p.add_argument("--input", required=True)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_extend_tstar)

    p = sub.add_parser("act", help="apply an affine representation to a point")
    p.add_argument("--rep", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_act)

    p = sub.add_parser("wreath", help="sample-check a wreath product bundle")
    p.add_argument("--levels", required=True, help="comma list of Z or Q")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_wreath)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all", help="lsa|embedding|hyperbolicity|integerize|tstar|wreath|all")
    p.add_argument("--n", default="2..5", help="dimension or range, e.g. 4 or 2..5")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-refinements", type=int, default=None)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    # the environment's refinement budget holds for this call only
    env_bound = os.environ.get("AFFINE_MAX_REFINEMENTS")
    try:
        budget = scalars.refinement_budget(int(env_bound) if env_bound else None)
    except ValueError:
        print(f"invalid AFFINE_MAX_REFINEMENTS={env_bound!r}", file=sys.stderr)
        return EXIT_BAD_INPUT
    with budget:
        parser = build_parser()
        args = parser.parse_args(argv)
        try:
            return args.func(args)
        except CliInputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
        except ConfigInvalid as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
        except AffineTreesError as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
