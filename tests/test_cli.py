import json
import random

import pytest

from stopset.cli import main
from stopset.codes import catalog, rm_8_4_4
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
    import stopset.harness as harness_mod

    monkeypatch.setattr(harness_mod, "_TABLE1_I", (0,) * 9)
    code, _ = run(capsys, ["verify-table1"])
    assert code == 1


def test_enumerate_matrix_file(capsys, h8_file):
    code, out = run(capsys, ["enumerate", "--matrix", h8_file])
    assert code == 0
    obj = json.loads(out)
    assert obj["matrix"]["S"]["poly"] == "1+14x^4+24x^5+28x^6+8x^7+x^8"
    assert obj["matrix"]["stopping_distance"] == 4


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


def test_enumerate_optimal_needs_code(capsys):
    code, _ = run(capsys, ["enumerate", "--matrix", "H_4", "--optimal"])
    assert code == 2


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
    assert obj["dominant_terms"] == {"optimal": None, "iterative": None}
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


def test_construct_search_above_enumeration_guard(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("STOPSET_MAX_N", raising=False)
    path = tmp_path / "n29.txt"
    path.write_text(format_matrix(BitMatrix(tuple(0x7F << (7 * i) for i in range(4)), 29)))
    code, out = run(capsys, ["construct", "search", "--code", str(path), "--predicate", "S=S*"])
    assert code == 2 and out == ""


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


def test_bounds_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--n", "8"])
    assert exc.value.code == 2


def test_missing_file_is_input_error(capsys):
    code, _ = run(capsys, ["enumerate", "--matrix", "/nonexistent/file.txt"])
    assert code == 2


@pytest.mark.parametrize("flag", ["--matrix", "--code"])
def test_unknown_spec_is_input_error(capsys, flag):
    code = main(["enumerate", flag, "no_such_code"])
    assert code == 2
    assert "is neither a readable file nor a catalog name" in capsys.readouterr().err


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
