"""The CLI contract under seeded fuzzing.

A few hundred argv lists cover all six commands with malformed matrix
files, bad catalog parameters, edge values of epsilon, trials and seed,
bad or wrong-length words and parity-violating words.  They run in a
few child processes, a batch each, under a 2 GB address-space limit, so
an allocation that escapes a size limit fails the test instead of the
machine.  The contract: the status is 0, 1 or 2; on status 2 stdout is
empty and stderr holds exactly one ``error:`` line; no traceback is
printed, and no child dies.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from stopset.cli import _load
from stopset.codes import LinearCode
from stopset.construct import PREDICATES

from conftest import random_parity_matrix

CASES = 300
CHILDREN = 3

_CHILD = """
import contextlib, io, json, resource, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from stopset.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            status = exc.code
        except Exception:
            status = None
            traceback.print_exc()
    results.append({"argv": argv, "status": status, "stdout": out.getvalue(), "stderr": err.getvalue()})
json.dump(results, sys.stdout)
"""

CATALOG = ["H_4", "H_5", "H_8", "H_14", " H_8 ", "rm_8_4_4", "hamming_7_4", "repetition(5)", "full(3)", "zero(4)"]
BAD_CATALOG = [
    "repetition(0)", "full(0)", "zero(0)", "repetition(65)", "zero(70)", "full(99999999999)",
    "repetition(99999999999)", "repetition(-1)", "repetition()", "H_9", "H_", "rm", "", "no_such_file.txt",
]
MALFORMED = [
    "", "# only a comment\n", "101\n10\n", "012\n", "3 2\n101\n", "99999999999 0\n", "0 0\n",
    "1" * 65 + "\n", "10" * 40 + "\n", "1 0 1\n", "abc\n", "2 x\n11\n",
]
EPSILONS = ["0", "1", "nan", "inf", "-inf", "1e-400", "-0.1", "1.5", "x", "0.3", "0.05", "0.5", "0.9", "1e-3"]
# what int() would read but the CLI refuses: another script's digit, '_', padding and '+'
NOT_ASCII_INTEGERS = ["\u0661", "1_0", " 7", "+5"]
TRIALS = ["1", "2", "100", "1000", "5000", "0", "-3", "1e3", "x", *NOT_ASCII_INTEGERS]
BOUNDS_VALUES = ["-1", "0", "1", "2", "3", "8", "30", "200", "20000", "x", *NOT_ASCII_INTEGERS]
SEEDS = ["0", "7", "-1", str(2**128), str(2**128 - 1), str(-(2**128)), "1.5", *NOT_ASCII_INTEGERS]


def _specs(rng, tmp_path):
    """Matrix and code arguments: (spec, the code it defines or None)."""
    specs = []
    for i in range(12):
        n = rng.randrange(1, 11)
        h = random_parity_matrix(rng, n, rng.randrange(0, 7))
        lines = ["# a comment"] * rng.randrange(2) + ([f"{n} {h.r}"] if rng.randrange(2) else [])
        lines += h.row_strings()
        path = tmp_path / f"h{i}.txt"
        path.write_text("\n".join(lines) + "\n")
        specs.append(str(path))
    for i, text in enumerate(MALFORMED):
        path = tmp_path / f"bad{i}.txt"
        path.write_text(text)
        specs.append(str(path))
    (tmp_path / "binary.txt").write_bytes(b"\xff\xfe\x00101\n")
    specs += [str(tmp_path / "binary.txt"), str(tmp_path), *CATALOG, *BAD_CATALOG]
    out = []
    for spec in specs:
        try:
            code = _load(spec, LinearCode)
        except (ValueError, OSError):
            code = None
        out.append((spec, code))
    return out


def _word(rng, code):
    """A --word value: a codeword with erasures, possibly with known bits
    flipped, or a malformed word."""
    n = code.n if code else rng.randrange(0, 10)
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice(["", "2", "01x", "0?" * 40, "?" * (n + 1), "0" * max(n - 1, 0)])
    cw = 0
    for g in code.generator_basis.rows if code else ():
        cw ^= g * rng.randrange(2)
    if kind == 1:
        cw = rng.randrange(1 << n)  # random known bits: most violate some parity
    word = ["1" if cw >> i & 1 else "0" for i in range(n)]
    for i in rng.sample(range(n), rng.randrange(n + 1)):
        word[i] = "?"
    if kind == 2 and "0" in word:
        word[word.index("0")] = "1"  # one known bit flipped
    return "".join(word)


def _argv(rng, specs):
    small = [(s, c) for s, c in specs if c is None or c.n <= 10]
    command = rng.choice(["enumerate", "decode", "simulate", "construct", "bounds", "verify-table1"])
    argv = [command]
    if command == "enumerate":
        if rng.randrange(4):
            argv += ["--matrix", rng.choice(specs)[0]]
        if rng.randrange(2):
            argv += ["--code", rng.choice(specs)[0]]
        if rng.randrange(2):
            argv.append("--optimal")
    elif command == "decode":
        spec, code = rng.choice(specs)
        argv += ["--matrix", spec, "--word", _word(rng, code)]
        if rng.randrange(2):
            argv.append("--optimal")
    elif command == "simulate":
        code_spec, _ = rng.choice(small if rng.randrange(4) == 0 else [(s, c) for s, c in small if c])
        matrix_spec = code_spec if rng.randrange(4) else rng.choice(small)[0]
        argv += ["--code", code_spec, "--matrix", matrix_spec, "--epsilon", rng.choice(EPSILONS),
                 "--trials", rng.choice(TRIALS), "--seed", rng.choice(SEEDS)]
    elif command == "construct":
        argv += [rng.choice(["complete", "low-weight", "bad", "search", "nope"]), "--code", rng.choice(small)[0]]
        if rng.randrange(3) == 0:
            argv += ["--weight", rng.choice(["-1", "0", "1", "3", "100", "x", *NOT_ASCII_INTEGERS])]
        if rng.randrange(2):
            argv += ["--predicate", rng.choice([*PREDICATES, "S=D"])]
        if rng.randrange(2):
            argv += ["--max-rows", rng.choice(["-1", "0", "1", "2", "4", "x", *NOT_ASCII_INTEGERS])]
    elif command == "bounds":
        for flag in ("--n", "--k"):
            argv += [flag, rng.choice(BOUNDS_VALUES)]
        for flag in ("--d", "--m"):
            if rng.randrange(2):
                argv += [flag, rng.choice(BOUNDS_VALUES)]
    if rng.randrange(2):
        argv.append("--pretty")
    return argv


def _run_batch(batch):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(batch), env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]  # no child dies
    assert proc.stderr == ""
    return json.loads(proc.stdout)


def test_cli_contract_holds_under_fuzzing(tmp_path):
    rng = random.Random(2006)
    specs = _specs(rng, tmp_path)
    cases = [_argv(rng, specs) for _ in range(CASES)]
    results = [r for i in range(CHILDREN) for r in _run_batch(cases[i::CHILDREN])]
    assert len(results) == CASES
    for r in results:
        assert r["status"] in (0, 1, 2), r
        assert "Traceback" not in r["stderr"], r
        if r["status"] == 2:
            assert r["stdout"] == "", r
            assert sum("error:" in line for line in r["stderr"].splitlines()) == 1, r
        else:
            assert r["stderr"] == "", r
    # the cases reach every command, and both successes and refusals
    assert {r["argv"][0] for r in results} == {"enumerate", "decode", "simulate", "construct", "bounds", "verify-table1"}
    assert {r["status"] for r in results} >= {0, 2}
