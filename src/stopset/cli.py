"""Command-line interface.

Subcommands: enumerate, decode, simulate, construct, bounds,
verify-table1.  Each subcommand returns its JSON object, its
``--pretty`` text and its exit status, and prints nothing; ``main``
alone writes the JSON (or, with ``--pretty``, the text) to stdout.
Exit codes: 0 success, 1 verification mismatch, 2 usage or input
error, including a MemoryError from an allocation the input asked for
and a failed write to stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
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
from .gf2 import BitMatrix, format_matrix, int_from_string, parse_matrix, rank
from .harness import ChannelConfig, monte_carlo, table1_report
from .stopsets import StoppingProfile, optimal_enumerators, profile, incorrigible_enumerator


def _read(spec: str) -> LinearCode | BitMatrix:
    """A --matrix or --code argument: a parity-check file or a catalog name.

    A catalog entry with a bad parameter, such as ``repetition(0)``,
    keeps the catalog's own message.
    """
    if os.path.isfile(spec):  # False, not an OSError, for a spec too long to be a file name
        return parse_matrix(Path(spec).read_text())
    try:
        return catalog(spec)
    except UnknownCatalogName:
        raise ValueError(f"{spec!r} is neither a readable file nor a catalog name") from None


def _as(obj: LinearCode | BitMatrix, kind: type):
    """obj as a ``kind`` (BitMatrix or LinearCode): a code stands for its
    parity-check basis, a matrix for the code it defines."""
    if isinstance(obj, kind):
        return obj
    return obj.parity_basis if kind is BitMatrix else LinearCode.from_parity_check(obj)


def _load(spec: str, kind: type):
    return _as(_read(spec), kind)


def _profile_block(p: StoppingProfile, star: bool) -> tuple[dict, list[str]]:
    """JSON fields and text lines of S, D and s, or of S*, D* and s*."""
    mark, key = ("*", "_star") if star else ("", "")
    s, d = p.stopping.to_json_obj(), p.dead_end.to_json_obj()
    fields = {f"S{key}": s, f"D{key}": d, "stopping_distance": p.stopping_distance}
    # the text reuses each polynomial the JSON object already rendered
    lines = [f"S{mark}(x) = {s['poly']}", f"D{mark}(x) = {d['poly']}", f"s{mark:<4}= {p.stopping_distance}"]
    return fields, lines


def _cmd_enumerate(args: argparse.Namespace) -> tuple[dict, str, int]:
    if not args.matrix and not args.code:
        raise ValueError("need --matrix and/or --code")
    read = functools.cache(_read)  # a spec named twice is read and built once
    out: dict = {}
    lines = []
    if args.matrix:
        h = _as(read(args.matrix), BitMatrix)
        fields, block = _profile_block(profile(h), star=False)
        out["matrix"] = {"rows": h.r, "n": h.n, **fields}
        lines += block
    if args.code or args.optimal:
        # without --code, the code is the one --matrix defines
        code = _as(read(args.code or args.matrix), LinearCode)
        a = code.weight_enumerator.to_json_obj()
        star = optimal_enumerators(code) if args.optimal else None
        # D*(x) = I(x): the complete matrix's dead-end sets are the incorrigible sets
        i = (star.dead_end if star else incorrigible_enumerator(code)).to_json_obj()
        out["code"] = {
            "n": code.n,
            "k": code.k,
            "d": None if code.k == 0 else int(code.minimum_distance),
            "A": a,
            "I": i,
        }
        lines += [f"A(x) = {a['poly']}", f"I(x) = {i['poly']}"]
        if star:
            out["optimal"], block = _profile_block(star, star=True)
            lines += block
    return out, "\n".join(lines), 0


def _cmd_decode(args: argparse.Namespace) -> tuple[dict, str, int]:
    source = _load(args.matrix, LinearCode if args.optimal else BitMatrix)
    word = ReceivedWord.from_string(args.word)
    outcome = (optimal_decode if args.optimal else iterative_decode)(source, word)
    out = {
        "kind": outcome.kind,
        "word": str(outcome.word),
        "residual": list(outcome.residual_set),
        "recovered": outcome.recovered,
    }
    return out, f"{outcome.kind}: {outcome.word} residual={out['residual']}", 0


def _cmd_simulate(args: argparse.Namespace) -> tuple[dict, str, int]:
    read = functools.cache(_read)  # a spec named twice is read and built once
    code = _as(read(args.code), LinearCode)
    h = _as(read(args.matrix), BitMatrix)
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
    return rep.to_json_obj(), "\n".join(lines), 0


def _cmd_construct(args: argparse.Namespace) -> tuple[dict, str, int]:
    code = _load(args.code, LinearCode)
    extra: dict = {}
    if args.mode == "complete":
        h = construct_mod.complete_matrix(code)
    elif args.mode == "low-weight":
        w = args.weight if args.weight is not None else code.k + 1
        h = construct_mod.weight_bounded_dual_matrix(code, w)
        extra["weight_limit"] = w
    elif args.mode == "bad":
        h, perm = construct_mod.bad_matrix(code)
        extra["permutation"] = list(perm)
    else:  # search
        h = construct_mod.minimal_matrix_search(code, args.predicate, args.max_rows)
        if h is None:
            return {"found": False}, "no matrix found", 0
        extra["found"] = True
    out = {"n": h.n, "rows": h.r, "rank": rank(h), "matrix_text": format_matrix(h), **extra}
    return out, out["matrix_text"], 0


def _cmd_bounds(args: argparse.Namespace) -> tuple[dict, str, int]:
    rep = construct_mod.redundancy_bounds(args.n, args.k, args.d, args.m)
    obj = rep.to_json_obj()
    lines = [f"{name} = {obj[name]}" for name in
             ("sv_bound", "hs_bound", "ht_bound", "holtol_bound", "entropy_bound")]
    lines += [f"note[{k}]: {v}" for k, v in obj["notes"].items()]
    return obj, "\n".join(lines), 0


def _cmd_verify_table1(args: argparse.Namespace) -> tuple[dict, str, int]:
    rep = table1_report()
    return rep.to_json_obj(), rep.render_pretty(), 0 if rep.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs
    more than a small search, and parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="stopset",
        description="Exact stopping/dead-end/incorrigible set analysis for binary linear codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def integer(text: str) -> int:
        """An integer argument, read by gf2's reader; refused with argparse's int message."""
        if (value := int_from_string(text)) is None:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        return value

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true")

    p = sub.add_parser("enumerate", parents=[common], help="stopping/dead-end enumerators of a matrix, or a code's enumerators")
    p.add_argument("--matrix", help="matrix file or catalog name (H_4, H_5, H_8, H_14)")
    p.add_argument("--code", help="parity-check file or catalog name defining the code")
    p.add_argument("--optimal", action="store_true", help="also compute S*, D*, s* for --code, else for the code --matrix defines")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("decode", parents=[common], help="decode a received word over {0,1,?}")
    p.add_argument("--matrix", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--optimal", action="store_true", help="optimal decoding instead of peeling")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo erasure-channel run of both decoders")
    p.add_argument("--code", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--trials", type=integer, required=True)
    p.add_argument("--seed", type=integer, required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("construct", parents=[common], help="build a parity-check matrix with a target property")
    p.add_argument("mode", choices=["complete", "low-weight", "bad", "search"])
    p.add_argument("--code", required=True)
    p.add_argument("--weight", type=integer, help="weight cap for low-weight (default k+1)")
    p.add_argument("--predicate", choices=construct_mod.PREDICATES, default="D=I",
                   help="search target (default D=I)")
    p.add_argument("--max-rows", type=integer)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("bounds", parents=[common], help="row-count bounds for optimal iterative decoding")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--k", type=integer, required=True)
    p.add_argument("--d", type=integer)
    p.add_argument("--m", type=integer)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify-table1", parents=[common], help="recompute the benchmark table and diff it")
    p.set_defaults(func=_cmd_verify_table1)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        obj, text, status = args.func(args)
        # a failed write (a closed pipe) is an OSError: it exits 2 below
        print(text if args.pretty else json.dumps(obj, indent=2))
        return status
    except (ValueError, ChannelModelViolation, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
