import contextlib
import errno
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

import stopset.harness as harness_mod
from stopset.cli import main
from stopset.codes import LinearCode, catalog, rm_8_4_4
from stopset.gf2 import BitMatrix, format_matrix

from conftest import random_parity_matrix


@pytest.fixture()
def h8_file(tmp_path):
    path = tmp_path / "h8.txt"
    path.write_text(format_matrix(catalog("H_8")))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_table1_json(capsys):
    code, out = run(capsys, ["verify-table1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert len(obj["entries"]) == 12


def test_verify_table1_pretty(capsys):
    code, out = run(capsys, ["verify-table1", "--pretty"])
    assert code == 0
    assert "1+14x^4+x^8" in out


def test_verify_table1_mismatch_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(harness_mod, "_TABLE1_I", (0,) * 9)
    code, _ = run(capsys, ["verify-table1"])
    assert code == 1


def test_enumerate_matrix_file(capsys, h8_file):
    code, out = run(capsys, ["enumerate", "--matrix", h8_file])
    assert code == 0
    obj = json.loads(out)
    assert obj["matrix"]["S"]["poly"] == "1+14x^4+24x^5+28x^6+8x^7+x^8"
    assert obj["matrix"]["stopping_distance"] == 4


def _code_files(tmp_path):
    rng = random.Random(7)
    paths = []
    for i, (n, r) in enumerate([(9, 4), (11, 0), (7, 7), (12, 5)]):
        path = tmp_path / f"code{i}.txt"
        path.write_text(format_matrix(random_parity_matrix(rng, n, r)))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("catalog_spec", ["rm_8_4_4", "hamming_7_4", "repetition(5)", "zero(3)", "full(4)", None])
def test_enumerate_optimal_prints_the_same_incorrigible_enumerator(capsys, tmp_path, monkeypatch, catalog_spec):
    # --optimal reads I(x) as D*(x) and never calls incorrigible_enumerator
    for spec in [catalog_spec] if catalog_spec else _code_files(tmp_path):
        plain = json.loads(run(capsys, ["enumerate", "--code", spec])[1])
        with monkeypatch.context() as m:
            m.setattr("stopset.cli.incorrigible_enumerator", None)
            optimal = json.loads(run(capsys, ["enumerate", "--code", spec, "--optimal"])[1])
        assert optimal["code"]["I"] == plain["code"]["I"] == optimal["optimal"]["D_star"], spec


@pytest.mark.parametrize("spec", ["H_4", "H_14", None])
def test_enumerate_matrix_optimal_prints_the_code_block_of_that_matrix(capsys, tmp_path, spec):
    for matrix in [spec] if spec else _code_files(tmp_path):
        with_matrix = json.loads(run(capsys, ["enumerate", "--matrix", matrix, "--optimal"])[1])
        as_code = json.loads(run(capsys, ["enumerate", "--code", matrix])[1])
        assert with_matrix["code"] == as_code["code"], matrix


def test_enumerate_optimal(capsys, h8_file):
    code, out = run(capsys, ["enumerate", "--code", h8_file, "--optimal"])
    assert code == 0
    obj = json.loads(out)
    assert obj["optimal"]["S_star"]["poly"] == "1+14x^4+28x^6+8x^7+x^8"
    assert obj["code"]["A"]["poly"] == "1+14x^4+x^8"


def test_enumerate_catalog_names(capsys):
    code, out = run(capsys, ["enumerate", "--matrix", "H_4"])
    assert code == 0
    assert json.loads(out)["matrix"]["stopping_distance"] == 3


def test_enumerate_requires_input(capsys):
    code, _ = run(capsys, ["enumerate"])
    assert code == 2


def test_enumerate_optimal_reads_the_code_of_matrix(capsys):
    code, out = run(capsys, ["enumerate", "--matrix", "H_4", "--optimal"])
    assert code == 0
    assert "S_star" in json.loads(out)["optimal"]
    assert (0, out) == run(capsys, ["enumerate", "--matrix", "H_4", "--code", "H_4", "--optimal"])
    assert run(capsys, ["enumerate", "--optimal"])[0] == 2  # still needs a matrix or a code


def test_enumerate_matrix_optimal_reads_the_file_once(capsys, monkeypatch, h8_file):
    reads = []
    original = Path.read_text

    def counted(path, *args, **kwargs):
        reads.append(path)
        return original(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counted)
    code, out = run(capsys, ["enumerate", "--matrix", h8_file, "--optimal"])
    assert code == 0 and json.loads(out)["code"]["k"] == 4
    assert reads == [Path(h8_file)]


@pytest.mark.parametrize("argv", [
    ["enumerate", "--matrix", "rm_8_4_4", "--optimal"],
    ["enumerate", "--matrix", "rm_8_4_4", "--code", "rm_8_4_4"],
    ["simulate", "--code", "rm_8_4_4", "--matrix", "rm_8_4_4", "--epsilon", "0.3", "--trials", "100", "--seed", "1"],
])
def test_a_code_named_twice_is_built_once(capsys, argv):
    with mock.patch.object(LinearCode, "__init__", side_effect=LinearCode.__init__, autospec=True) as init:
        code, _ = run(capsys, argv)
    assert code == 0
    assert init.call_count == 1


def test_decode_iterative(capsys):
    code, out = run(capsys, ["decode", "--matrix", "H_14", "--word", "??0000??"])
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "stalled"
    assert obj["residual"] == [1, 2, 7, 8]
    assert obj["word"] == "??0000??"


def test_decode_optimal(capsys):
    code, out = run(capsys, ["decode", "--matrix", "H_8", "--word", "?1?00110", "--optimal"])
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "decoded"
    assert "?" not in obj["word"]


def test_decode_optimal_reads_the_code_of_matrix(capsys):
    argv = ["decode", "--word", "?1?00110", "--optimal", "--matrix"]
    assert run(capsys, argv + ["rm_8_4_4"]) == run(capsys, argv + ["H_8"])


def test_decode_has_no_code_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decode", "--matrix", "H_8", "--word", "?1?00110", "--optimal", "--code", "rm_8_4_4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --code rm_8_4_4" in capsys.readouterr().err


def test_decode_channel_violation(capsys):
    code, _ = run(capsys, ["decode", "--matrix", "H_8", "--word", "11000000"])
    assert code == 2


def test_simulate(capsys, h8_file):
    code, out = run(
        capsys,
        ["simulate", "--code", h8_file, "--matrix", h8_file,
         "--epsilon", "0.5", "--trials", "500", "--seed", "11"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["trials"] == 500
    assert obj["failures"]["iterative_only"] == 0  # D = I for this matrix
    assert 0.0 <= obj["empirical"]["iterative"]["rate"] <= 1.0


def test_simulate_above_enumeration_guard(capsys, tmp_path):
    rng = random.Random(32)
    path = tmp_path / "n32.txt"
    path.write_text(format_matrix(random_parity_matrix(rng, 32, 16)))
    argv = ["simulate", "--code", str(path), "--matrix", str(path),
            "--epsilon", "0.2", "--trials", "2000", "--seed", "5"]
    code, out = run(capsys, argv)
    assert code == 0
    obj = json.loads(out)
    assert obj["analytic"] == {"optimal": None, "iterative": None}
    assert obj["dominant_terms"]["iterative"] is None
    assert obj["dominant_terms"]["optimal"] > 0  # A_d eps^d, from the 2^16 codewords
    assert set(obj["notes"]) == {"analytic", "dominant_terms"}
    code, out = run(capsys, argv + ["--pretty"])
    assert code == 0
    assert "optimal   analytic=n/a" in out and "iterative analytic=n/a" in out
    assert "note[analytic]: omitted: n=32" in out


def test_construct_complete(capsys):
    code, out = run(capsys, ["construct", "complete", "--code", "rm_8_4_4"])
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"] == 16 and obj["rank"] == 4


def test_construct_low_weight_default_weight(capsys):
    code, out = run(capsys, ["construct", "low-weight", "--code", "rm_8_4_4"])
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"] == 14 and obj["weight_limit"] == 5


def test_construct_bad(capsys):
    code, out = run(capsys, ["construct", "bad", "--code", "rm_8_4_4"])
    assert code == 0
    obj = json.loads(out)
    assert obj["rank"] == 4
    assert sorted(obj["permutation"]) == list(range(1, 9))


def test_construct_search(capsys):
    code, out = run(capsys, ["construct", "search", "--code", "repetition(3)",
                             "--predicate", "D=I"])
    assert code == 0
    obj = json.loads(out)
    assert obj["found"] is True and obj["rows"] == 2


def test_construct_search_not_found(capsys):
    code, out = run(capsys, ["construct", "search", "--code", "rm_8_4_4",
                             "--predicate", "S=S*", "--max-rows", "5"])
    assert code == 0
    assert json.loads(out)["found"] is False


def test_construct_search_negative_max_rows_is_input_error(capsys):
    code = main(["construct", "search", "--code", "rm_8_4_4", "--max-rows", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "max_rows must be >= 0, got -1" in captured.err


def test_construct_search_above_enumeration_guard(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("STOPSET_MAX_N", raising=False)
    path = tmp_path / "n29.txt"
    path.write_text(format_matrix(BitMatrix(tuple(0x7F << (7 * i) for i in range(4)), 29)))
    code, out = run(capsys, ["construct", "search", "--code", str(path), "--predicate", "S=S*"])
    assert code == 2 and out == ""


@pytest.mark.parametrize("value", ["abc", "0", "-1", "2.5", "\u0663\u0660", " 30", "+30", "3_0",
                                   pytest.param("9" * 5000, id="5000-nines")])  # past int's digit limit
@pytest.mark.parametrize("command", [
    ["enumerate", "--matrix", "H_8"],
    ["simulate", "--code", "rm_8_4_4", "--matrix", "H_8", "--epsilon", "0.3", "--trials", "10", "--seed", "1"],
    ["construct", "bad", "--code", "rm_8_4_4"],
])
def test_malformed_enumeration_limit_is_input_error(capsys, monkeypatch, value, command):
    monkeypatch.setenv("STOPSET_MAX_N", value)
    code = main(command)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"STOPSET_MAX_N={value!r} is not a positive integer" in captured.err


_SIMULATE_RM = ["simulate", "--code", "rm_8_4_4", "--matrix", "H_8",
                "--epsilon", "0.3", "--trials", "100", "--seed", "1"]


@pytest.mark.parametrize("limit, call, refused", [
    (7, ["enumerate", "--code", "rm_8_4_4"], ["n=8"]),
    (3, ["enumerate", "--code", "rm_8_4_4"], ["k=4"]),
    (7, _SIMULATE_RM, ["n=8"]),
    (3, _SIMULATE_RM, ["n=8", "k=4"]),
    (3, ["construct", "bad", "--code", "rm_8_4_4"], ["k=4"]),
    (7, ["construct", "search", "--code", "rm_8_4_4"], ["n=8"]),
    (3, lambda: rm_8_4_4().weight_enumerator, ["k=4"]),
    (3, lambda: rm_8_4_4().codewords(), ["k=4"]),
], ids=["enumerate-n", "enumerate-k", "simulate-n", "simulate-nk", "bad-k", "search-n",
        "weight_enumerator-k", "codewords-k"])
def test_lowered_guard_refuses_n_and_k_with_one_template(capsys, monkeypatch, limit, call, refused):
    monkeypatch.setenv("STOPSET_MAX_N", str(limit))
    texts = [f"{r} exceeds enumeration guard {limit} (set STOPSET_MAX_N to override)" for r in refused]
    if callable(call):
        with pytest.raises(ValueError) as exc:
            call()
        assert [str(exc.value)] == texts
        return
    code = main(call)
    captured = capsys.readouterr()
    if call[0] == "simulate":  # refusals become notes, the run goes on
        assert code == 0
        notes = json.loads(captured.out)["notes"]
        assert notes["dominant_terms"] == ("iterative omitted: " if len(texts) == 1 else "omitted: ") + "; ".join(texts)
        assert notes["analytic"] == f"omitted: {texts[0]}"
    else:
        assert code == 2 and captured.out == "" and captured.err == f"error: {texts[0]}\n"


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 32.0 GiB for an array"), "Unable to allocate 32.0 GiB for an array"),
    (MemoryError(), "MemoryError"),
])
def test_memory_error_is_input_error(capsys, monkeypatch, exc, message):
    def refuse(h):
        raise exc

    monkeypatch.setattr("stopset.cli.profile", refuse)
    code = main(["enumerate", "--matrix", "H_8"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err == f"error: {message}\n"


def test_construct_enumerate_round_trip(capsys, tmp_path):
    # a constructed file fed back through enumerate gives the optimal polynomials
    code, out = run(capsys, ["construct", "complete", "--code", "rm_8_4_4", "--pretty"])
    assert code == 0
    path = tmp_path / "hstar.txt"
    path.write_text(out)
    code, out = run(capsys, ["enumerate", "--matrix", str(path)])
    assert code == 0
    obj = json.loads(out)
    assert obj["matrix"]["S"]["poly"] == "1+14x^4+28x^6+8x^7+x^8"
    assert obj["matrix"]["D"]["poly"] == "14x^4+56x^5+28x^6+8x^7+x^8"


def test_construct_pretty_emits_matrix_text(capsys):
    code, out = run(capsys, ["construct", "bad", "--code", "rm_8_4_4", "--pretty"])
    assert code == 0
    assert out.startswith("8 4\n")


def test_bounds(capsys):
    code, out = run(capsys, ["bounds", "--n", "8", "--k", "4", "--d", "4", "--m", "4"])
    assert code == 0
    obj = json.loads(out)
    assert (obj["sv_bound"], obj["hs_bound"], obj["ht_bound"], obj["holtol_bound"]) == (10, 8, 8, 8)


def test_bounds_entropy_overflow(capsys):
    code, out = run(capsys, ["bounds", "--n", "3000", "--k", "1000"])
    assert code == 0
    assert json.loads(out)["entropy_bound"] is None
    code, out = run(capsys, ["bounds", "--n", "3000", "--k", "1000", "--pretty"])
    assert code == 0
    assert "entropy_bound = None" in out and "note[entropy_bound]:" in out


def test_bounds_past_the_integer_output_limit_exit_2_at_once(capsys):
    start = time.perf_counter()
    code = main(["bounds", "--n", "20000", "--k", "0", "--m", "20000"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and elapsed < 1
    assert captured.err == (f"error: n-k=20000 too large: bounds up to 2**20000 exceed the "
                            f"{sys.get_int_max_str_digits()}-digit integer output limit\n")


def test_bounds_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--n", "8"])
    assert exc.value.code == 2


def test_missing_file_is_input_error(capsys):
    code, _ = run(capsys, ["enumerate", "--matrix", "/nonexistent/file.txt"])
    assert code == 2


@pytest.mark.parametrize("flag, spec", [
    pytest.param("--matrix", "no_such_code", id="--matrix"),
    pytest.param("--code", "no_such_code", id="--code"),
    # too long to be a file name: a failed stat is "not a file", not an error
    pytest.param("--matrix", "x" * 300, id="--matrix-300-chars"),
    pytest.param("--code", "x" * 300, id="--code-300-chars"),
])
def test_unknown_spec_is_input_error(capsys, flag, spec):
    code = main(["enumerate", flag, spec])
    assert code == 2
    assert "is neither a readable file nor a catalog name" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--matrix", "--code"])
@pytest.mark.parametrize("spec, message", [
    ("repetition(0)", "repetition length must be >= 1"),
    ("repetition(65)", "column count 65 outside 0..64"),
    ("full(70)", "column count 70 outside 0..64"),
    ("repetition(-1)", "repetition length must be >= 1"),
])
def test_catalog_range_error_keeps_its_message(capsys, flag, spec, message):
    code = main(["enumerate", flag, spec])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and "neither a readable file" not in err


@pytest.mark.parametrize("argv, message", [
    # a repeated option is converted each time, so the bad value is refused
    (_SIMULATE_RM + ["--trials", "\u0661_\u0660\u0660", "--seed", " 7"],
     "argument --trials: invalid int value: '\u0661_\u0660\u0660'"),
    (_SIMULATE_RM + ["--seed", " 7"], "argument --seed: invalid int value: ' 7'"),
    (["construct", "low-weight", "--code", "rm_8_4_4", "--weight", "+5"], "argument --weight: invalid int value: '+5'"),
    (["construct", "search", "--code", "rm_8_4_4", "--max-rows", "\u0663"],
     "argument --max-rows: invalid int value: '\u0663'"),
    (["bounds", "--n", "1_0", "--k", "3"], "argument --n: invalid int value: '1_0'"),
    (["bounds", "--n", "10", "--k", "\uff13"], "argument --k: invalid int value: '\uff13'"),
    (["bounds", "--n", "10", "--k", "3", "--d", "\u00b2"], "argument --d: invalid int value: '\u00b2'"),
    (["bounds", "--n", "10", "--k", "3", "--m", "2 "], "argument --m: invalid int value: '2 '"),
    (["enumerate", "--code", "repetition(\u0663)"], "'repetition(\u0663)' is neither a readable file nor a catalog name"),
    (["enumerate", "--matrix", "full(\uff10\uff13)"], "'full(\uff10\uff13)' is neither a readable file nor a catalog name"),
    # more digits than int reads (sys.get_int_max_str_digits())
    pytest.param(["bounds", "--n", "9" * 5000, "--k", "1"], f"argument --n: invalid int value: '{'9' * 5000}'",
                 id="bounds-5000-nines"),
    pytest.param(["enumerate", "--code", f"repetition({'9' * 5000})"],
                 f"'repetition({'9' * 5000})' is neither a readable file nor a catalog name", id="repetition-5000-nines"),
])
def test_typed_integers_are_a_sign_and_ascii_digits(capsys, argv, message):
    try:
        status = main(argv)
    except SystemExit as exc:  # argparse's refusal
        status = exc.code
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("header", ["\u0663 1", "\u00b2 1"])
def test_matrix_header_digits_are_ascii(capsys, tmp_path, header):
    # not a header, so the line is read as a row and refused by its first character
    path = tmp_path / "h.txt"
    path.write_text(f"{header}\n101\n", encoding="utf-8")
    status = main(["enumerate", "--matrix", str(path)])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == f"error: invalid character {header[0]!r} in vector string\n"


_UNDER_ADDRESS_LIMIT = """
import resource, sys, time
from pathlib import Path
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from stopset.cli import main
start = time.perf_counter()
status = main(sys.argv[2:])
Path(sys.argv[1]).write_text(str(time.perf_counter() - start))
sys.exit(status)
"""


@pytest.mark.parametrize("spec", ["repetition(99999999999)", "full(99999999999)", "zero(99999999999)"])
def test_oversized_catalog_code_is_refused_before_its_rows_are_built(tmp_path, spec):
    # one row per coordinate would ask for far more than the 1 GB address space
    elapsed = tmp_path / "elapsed"
    proc = _python(["-c", _UNDER_ADDRESS_LIMIT, str(elapsed), "enumerate", "--code", spec])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == ["error: column count 99999999999 outside 0..64"]
    assert float(elapsed.read_text()) < 1.0


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, exit_code", [
    (["verify-table1"], 0),
    (["decode", "--matrix", "H_4", "--word", "0"], 2),
])
def test_module_entry_point_exits_with_main_status(argv, exit_code):
    proc = _python(["-m", "stopset.cli", *argv])
    assert proc.returncode == exit_code, proc.stderr


def test_commands_without_erasure_draws_do_not_import_the_thread_pool():
    # only simulate draws erasures, on the pool; importing the pool loads
    # concurrent.futures and logging, and the generator loads numpy.random
    # (with secrets and hmac): start-up time and memory no other command uses
    script = """
import sys
from stopset.cli import main
for argv in (["enumerate", "--matrix", "H_8"],
             ["construct", "search", "--code", "rm_8_4_4", "--predicate", "D=I"],
             ["verify-table1"]):
    assert main(argv) == 0, argv
sys.exit(sorted({"concurrent.futures", "logging", "numpy.random"} & set(sys.modules)) or None)
"""
    proc = _python(["-c", script])
    assert proc.returncode == 0, proc.stderr


def _python(args):
    """Run a fresh interpreter that imports stopset from this checkout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("cli_golden.json")

# one argv per command shape; "verify-table1-mismatch" runs against a
# wrong I(x) row and "broken-pipe" against a stdout that refuses writes
GOLDEN_CASES = {
    "enumerate-matrix": ["enumerate", "--matrix", "H_4"],
    "enumerate-optimal": ["enumerate", "--matrix", "H_4", "--code", "rm_8_4_4", "--optimal"],
    "decode-stalled": ["decode", "--matrix", "H_14", "--word", "??0000??"],
    "decode-optimal": ["decode", "--matrix", "rm_8_4_4", "--word", "??0000??", "--optimal"],
    "simulate": ["simulate", "--code", "rm_8_4_4", "--matrix", "H_4",
                 "--epsilon", "0.4", "--trials", "2000", "--seed", "7"],
    "construct-complete": ["construct", "complete", "--code", "rm_8_4_4"],
    "construct-low-weight": ["construct", "low-weight", "--code", "rm_8_4_4"],
    "construct-bad": ["construct", "bad", "--code", "rm_8_4_4"],
    "construct-search-found": ["construct", "search", "--code", "rm_8_4_4", "--predicate", "D=I"],
    "construct-search-not-found": ["construct", "search", "--code", "repetition(3)", "--max-rows", "1"],
    "bounds": ["bounds", "--n", "8", "--k", "4", "--d", "4", "--m", "4"],
    "verify-table1": ["verify-table1"],
    "verify-table1-mismatch": ["verify-table1"],
    "input-error": ["decode", "--matrix", "H_8", "--word", "11000000"],
    "broken-pipe": ["enumerate", "--matrix", "H_4"],
}


class _ClosedPipe(io.StringIO):
    def write(self, s):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def _golden_run(name, mode):
    """stdout, stderr and exit status of one golden case, in "json" or "pretty" mode."""
    argv = GOLDEN_CASES[name] + (["--pretty"] if mode == "pretty" else [])
    out = _ClosedPipe() if name == "broken-pipe" else io.StringIO()
    err = io.StringIO()
    table1_i = (0,) * 9 if name == "verify-table1-mismatch" else harness_mod._TABLE1_I
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(harness_mod, "_TABLE1_I", table1_i):
        status = main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "status": status}


@pytest.mark.parametrize("mode", ["json", "pretty"])
@pytest.mark.parametrize("name", list(GOLDEN_CASES))
def test_cli_output_matches_golden(name, mode):
    # every byte each command writes, and its exit status, as pinned in
    # cli_golden.json (rewrite it with `PYTHONPATH=src python tests/test_cli.py`)
    assert _golden_run(name, mode) == json.loads(GOLDEN.read_text())[name][mode]


def _readme_commands():
    """The `stopset ...` lines of the sh block under "## Command line" in README.md."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, flags=re.DOTALL).group(1)
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("stopset ")]


def test_readme_command_line_examples_run(capsys, tmp_path, monkeypatch):
    commands = _readme_commands()
    assert len(commands) >= 5
    (tmp_path / "mycode.txt").write_text(format_matrix(rm_8_4_4().parity_basis))
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)


if __name__ == "__main__":
    golden = {name: {mode: _golden_run(name, mode) for mode in ("json", "pretty")} for name in GOLDEN_CASES}
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
