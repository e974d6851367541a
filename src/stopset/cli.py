"""Command-line interface.

Subcommands: enumerate, decode, simulate, construct, bounds,
verify-table1.  Output is JSON on stdout (``--pretty`` switches to
human-readable text).  Exit codes: 0 success, 1 verification mismatch,
2 usage or input error, including a MemoryError from an allocation the
input asked for.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

from . import construct as construct_mod
from .codes import LinearCode, UnknownCatalogName, catalog
from .decoder import (
    ChannelModelViolation,
    ReceivedWord,
    iterative_decode,
    optimal_decode,
)
from .gf2 import BitMatrix, format_matrix, indices_from_mask, parse_matrix, rank
from .harness import ChannelConfig, monte_carlo, table1_report
from .stopsets import optimal_enumerators, profile, incorrigible_enumerator


def _load(spec: str, kind: type):
    """A --matrix or --code argument: a parity-check file or a catalog name.

    Returns a ``kind`` (BitMatrix or LinearCode): a code stands for its
    parity-check basis, a matrix for the code it defines.  A catalog
    entry with a bad parameter, such as ``repetition(0)``, keeps the
    catalog's own message.
    """
    path = Path(spec)
    if path.is_file():
        obj = parse_matrix(path.read_text())
    else:
        try:
            obj = catalog(spec)
        except UnknownCatalogName:
            raise ValueError(f"{spec!r} is neither a readable file nor a catalog name") from None
    if isinstance(obj, kind):
        return obj
    return obj.parity_basis if kind is BitMatrix else LinearCode.from_parity_check(obj)


def _emit(obj: dict, pretty_text: Optional[str], pretty: bool) -> None:
    if pretty and pretty_text is not None:
        print(pretty_text)
    else:
        print(json.dumps(obj, indent=2))


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.optimal and not args.code:
        raise ValueError("--optimal requires --code")
    if not args.matrix and not args.code:
        raise ValueError("need --matrix and/or --code")
    out: dict = {}
    lines = []
    if args.matrix:
        h = _load(args.matrix, BitMatrix)
        p = profile(h)
        out["matrix"] = {
            "rows": h.r,
            "n": h.n,
            "S": p.stopping.to_json_obj(),
            "D": p.dead_end.to_json_obj(),
            "stopping_distance": p.stopping_distance,
        }
        lines += [
            f"S(x) = {p.stopping.poly_str()}",
            f"D(x) = {p.dead_end.poly_str()}",
            f"s    = {p.stopping_distance}",
        ]
    if args.code:
        code = _load(args.code, LinearCode)
        a = code.weight_enumerator
        i = incorrigible_enumerator(code)
        out["code"] = {
            "n": code.n,
            "k": code.k,
            "d": None if code.k == 0 else int(code.minimum_distance),
            "A": a.to_json_obj(),
            "I": i.to_json_obj(),
        }
        lines += [f"A(x) = {a.poly_str()}", f"I(x) = {i.poly_str()}"]
        if args.optimal:
            star = optimal_enumerators(code)
            out["optimal"] = {
                "S_star": star.stopping.to_json_obj(),
                "D_star": star.dead_end.to_json_obj(),
                "stopping_distance": star.stopping_distance,
            }
            lines += [
                f"S*(x) = {star.stopping.poly_str()}",
                f"D*(x) = {star.dead_end.poly_str()}",
                f"s*   = {star.stopping_distance}",
            ]
    _emit(out, "\n".join(lines), args.pretty)
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    h = _load(args.matrix, BitMatrix)
    word = ReceivedWord.from_string(args.word)
    if args.optimal:
        code = _load(args.code, LinearCode) if args.code else LinearCode.from_parity_check(h)
        outcome = optimal_decode(code, word)
    else:
        outcome = iterative_decode(h, word)
    out = {
        "kind": outcome.kind,
        "word": str(outcome.word),
        "residual": list(indices_from_mask(outcome.residual)),
        "recovered": outcome.recovered,
    }
    _emit(out, f"{outcome.kind}: {outcome.word} residual={out['residual']}", args.pretty)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    code = _load(args.code, LinearCode)
    h = _load(args.matrix, BitMatrix)
    cfg = ChannelConfig(epsilon=args.epsilon, trials=args.trials, seed=args.seed)
    rep = monte_carlo(code, h, cfg)

    def num(x: Optional[float]) -> str:
        return "n/a" if x is None else f"{x:.6g}"

    lines = [
        f"epsilon={rep.epsilon} trials={rep.trials} seed={rep.seed}",
        f"optimal   analytic={num(rep.analytic_opt)} empirical={rep.empirical_opt:.6g} (+-{rep.ci99_opt:.2g})",
        f"iterative analytic={num(rep.analytic_it)} empirical={rep.empirical_it:.6g} (+-{rep.ci99_it:.2g})",
        f"iterative-only failures: {rep.it_only_failures}",
    ]
    lines += [f"note[{k}]: {v}" for k, v in rep.notes]
    _emit(rep.to_json_obj(), "\n".join(lines), args.pretty)
    return 0


def _matrix_payload(h: BitMatrix) -> dict:
    return {
        "n": h.n,
        "rows": h.r,
        "rank": rank(h),
        "matrix_text": format_matrix(h),
    }


def _cmd_construct(args: argparse.Namespace) -> int:
    code = _load(args.code, LinearCode)
    if args.mode == "complete":
        h = construct_mod.complete_matrix(code)
        out = _matrix_payload(h)
    elif args.mode == "low-weight":
        w = args.weight if args.weight is not None else code.k + 1
        h = construct_mod.weight_bounded_dual_matrix(code, w)
        out = _matrix_payload(h)
        out["weight_limit"] = w
    elif args.mode == "bad":
        h, perm = construct_mod.bad_matrix(code)
        out = _matrix_payload(h)
        out["permutation"] = list(perm)
    else:  # search
        h_opt = construct_mod.minimal_matrix_search(code, args.predicate, args.max_rows)
        if h_opt is None:
            _emit({"found": False}, "no matrix found", args.pretty)
            return 0
        out = _matrix_payload(h_opt)
        out["found"] = True
        h = h_opt
    _emit(out, format_matrix(h), args.pretty)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    rep = construct_mod.redundancy_bounds(args.n, args.k, args.d, args.m)
    obj = rep.to_json_obj()
    lines = [f"{name} = {obj[name]}" for name in
             ("sv_bound", "hs_bound", "ht_bound", "holtol_bound", "entropy_bound")]
    lines += [f"note[{k}]: {v}" for k, v in obj["notes"].items()]
    _emit(obj, "\n".join(lines), args.pretty)
    return 0


def _cmd_verify_table1(args: argparse.Namespace) -> int:
    rep = table1_report()
    _emit(rep.to_json_obj(), rep.render_pretty(), args.pretty)
    return 0 if rep.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs
    more than a small search, and parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="stopset",
        description="Exact stopping/dead-end/incorrigible set analysis for binary linear codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stopping/dead-end enumerators of a matrix, or a code's enumerators")
    p.add_argument("--matrix", help="matrix file or catalog name (H_4, H_5, H_8, H_14)")
    p.add_argument("--code", help="parity-check file or catalog name defining the code")
    p.add_argument("--optimal", action="store_true", help="also compute S*, D*, s* for --code")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("decode", help="decode a received word over {0,1,?}")
    p.add_argument("--matrix", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--optimal", action="store_true", help="optimal decoding instead of peeling")
    p.add_argument("--code", help="code for --optimal (defaults to the matrix's code)")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("simulate", help="Monte Carlo erasure-channel run of both decoders")
    p.add_argument("--code", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("construct", help="build a parity-check matrix with a target property")
    p.add_argument("mode", choices=["complete", "low-weight", "bad", "search"])
    p.add_argument("--code", required=True)
    p.add_argument("--weight", type=int, help="weight cap for low-weight (default k+1)")
    p.add_argument("--predicate", choices=construct_mod.PREDICATES, default="D=I",
                   help="search target (default D=I)")
    p.add_argument("--max-rows", type=int)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("bounds", help="row-count bounds for optimal iterative decoding")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify-table1", help="recompute the benchmark table and diff it")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_verify_table1)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ChannelModelViolation, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
