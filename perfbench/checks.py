"""Output checks: paper identities that hold for any seed.

Each check takes an op and the JSON it printed and returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math
from pathlib import Path

from stopset.codes import LinearCode, catalog
from stopset.gf2 import parse_matrix, rank
from stopset.stopsets import (
    dead_end_enumerator,
    incorrigible_enumerator,
    optimal_enumerators,
    stopping_distance,
    stopping_set_enumerator,
)

from workloads import Op

SIGMAS = 5.0


def _coeffs(obj: dict) -> list[int]:
    return [int(c) for c in obj["coefficients"]]


def _leq(a: list[int], b: list[int]) -> bool:
    return len(a) == len(b) and all(x <= y for x, y in zip(a, b))


def check_enumerate(op: Op, out: dict) -> list[str]:
    p = op.params
    s, d = _coeffs(out["matrix"]["S"]), _coeffs(out["matrix"]["D"])
    a, i = _coeffs(out["code"]["A"]), _coeffs(out["code"]["I"])
    s_star, d_star = _coeffs(out["optimal"]["S_star"]), _coeffs(out["optimal"]["D_star"])
    problems = []
    if (out["matrix"]["n"], out["matrix"]["rows"], out["code"]["n"], out["code"]["k"]) != (
        p["n"], p["rows"], p["n"], p["k"]
    ):
        problems.append("reported n, rows or k differ from the generated input")
    if s[0] != 1 or s_star[0] != 1:
        problems.append("S_0 or S*_0 is not 1")
    if not (_leq(a, s_star) and _leq(s_star, s)):
        problems.append("A <= S* <= S fails")
    if d_star != i:
        problems.append("D* != I")
    if not _leq(i, d):
        problems.append("I <= D fails")
    return problems


def check_simulate(op: Op, out: dict) -> list[str]:
    p = op.params
    problems = []
    if (out["n"], out["epsilon"], out["trials"], out["seed"]) != (p["n"], p["epsilon"], p["trials"], p["seed"]):
        problems.append("reported n, epsilon, trials or seed differ from the arguments")
    if out["failures"]["optimal"] > out["failures"]["iterative"]:
        problems.append("optimal failures exceed iterative failures")
    for dec in ("optimal", "iterative"):
        prob = out["analytic"][dec]
        rate = out["empirical"][dec]["rate"]
        sigma = math.sqrt(prob * (1.0 - prob) / p["trials"])
        if abs(rate - prob) > SIGMAS * sigma:
            problems.append(f"{dec} rate {rate} is more than {SIGMAS} sigma from analytic {prob}")
    return problems


def _load_code(spec: str) -> LinearCode:
    if Path(spec).is_file():
        return LinearCode.from_parity_check(parse_matrix(Path(spec).read_text()))
    return catalog(spec)


def check_search(op: Op, out: dict) -> list[str]:
    if not out.get("found"):
        return ["no matrix found"]
    code = _load_code(op.argv[op.argv.index("--code") + 1])
    h = parse_matrix(out["matrix_text"])
    problems = []
    if any(w == 0 or any((w & g).bit_count() % 2 for g in code.generator_basis.rows) for w in h.rows):
        problems.append("a row is zero or not a dual word")
    if not h.has_distinct_rows or rank(h) != code.n - code.k or out["rank"] != code.n - code.k:
        problems.append("rows are repeated or their rank is not n-k")
    pred = op.params["predicate"]
    if pred == "s=d":
        holds = stopping_distance(h) == code.minimum_distance
    elif pred == "S=S*":
        holds = stopping_set_enumerator(h) == optimal_enumerators(code).stopping
    else:
        holds = dead_end_enumerator(h) == incorrigible_enumerator(code)
    if not holds:
        problems.append(f"predicate {pred} does not hold when recomputed")
    return problems


CHECKS = {
    "enumerate": check_enumerate,
    "simulate": check_simulate,
    "construct": check_search,
}


def check(op: Op, out: dict) -> list[str]:
    return CHECKS[op.argv[0]](op, out)
