import random

import pytest

from stopset.codes import LinearCode, catalog, rm_8_4_4
from stopset.decoder import (
    AMBIGUOUS,
    DECODED,
    STALLED,
    ChannelModelViolation,
    ReceivedWord,
    classify_erasure_set,
    is_parity_check_of,
    iterative_decode,
    optimal_decode,
)
from stopset.gf2 import BitMatrix, mask_from_indices
from stopset.stopsets import is_stopping_set, peel_closure

from conftest import random_code_where, random_dual_spanning_matrix

RM = rm_8_4_4()
H8 = catalog("H_8")
H14 = catalog("H_14")

# a codeword with support {1,2,7,8}
CW_1278 = mask_from_indices({1, 2, 7, 8})
assert RM.contains(CW_1278)


def test_received_word_string_roundtrip():
    r = ReceivedWord.from_string("01?10?")
    assert str(r) == "01?10?"
    assert r.erasures == 0b100100
    with pytest.raises(ValueError):
        ReceivedWord.from_string("01x")
    with pytest.raises(ValueError):
        ReceivedWord(3, 0b001, 0b001)  # known and erased overlap


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ReceivedWord(3, 0b1000, 0), "bits beyond word length 3"),
        (lambda: ReceivedWord(3, 0, 0b1000), "bits beyond word length 3"),
        (lambda: iterative_decode(H8, ReceivedWord.from_string("0000000")), "does not match matrix"),
        (lambda: optimal_decode(RM, ReceivedWord.from_string("0000000")), "does not match code"),
    ],
    ids=["values-beyond-n", "erasures-beyond-n", "iterative-length", "optimal-length"],
)
def test_malformed_words_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_iterative_h14_recovers_bit3():
    r = ReceivedWord.from_codeword(CW_1278, 8, {1, 2, 3, 7, 8})
    out = iterative_decode(H14, r)
    assert out.kind == STALLED
    assert out.residual_set == (1, 2, 7, 8)
    assert out.recovered == 1
    # bit 3 was recovered, to the transmitted value 0
    assert not out.word.erasures & (1 << 2)
    assert not out.word.values & (1 << 2)


def test_iterative_h8_recovers_nothing():
    r = ReceivedWord.from_codeword(CW_1278, 8, {1, 2, 3, 7, 8})
    out = iterative_decode(H8, r)
    assert out.kind == STALLED
    assert out.residual_set == (1, 2, 3, 7, 8)


def test_iterative_no_erasures():
    for cw in [0, CW_1278]:
        out = iterative_decode(H8, ReceivedWord.from_codeword(cw, 8, 0))
        assert out.kind == DECODED
        assert out.word.values == cw


def test_iterative_full_recovery_small_sets():
    rng = random.Random(50)
    codewords = list(RM.codewords())
    for _ in range(200):
        cw = rng.choice(codewords)
        erasures = mask_from_indices(rng.sample(range(1, 9), 3))
        out = iterative_decode(H14, ReceivedWord.from_codeword(cw, 8, erasures))
        if out.kind == DECODED:
            assert out.word.values == cw
        else:
            assert out.residual == peel_closure(H14, erasures)


def test_iterative_stall_invariants():
    rng = random.Random(51)
    for _ in range(100):
        code = random_code_where(rng, range(3, 10), range(1, 6), lambda c: 1 <= c.k)
        h = random_dual_spanning_matrix(rng, code, rng.randrange(0, 3))
        cw = rng.choice(list(code.codewords()))
        erasures = rng.randrange(0, 1 << code.n)
        out = iterative_decode(h, ReceivedWord.from_codeword(cw, code.n, erasures))
        if out.kind == DECODED:
            assert out.word.values == cw
            assert peel_closure(h, erasures) == 0
        else:
            assert out.kind == STALLED
            assert out.residual == peel_closure(h, erasures) != 0
            assert is_stopping_set(h, out.residual)
            # positions outside the residual are recovered correctly
            known = ~out.word.erasures
            assert out.word.values & known == cw & known


def test_iterative_channel_violation():
    r = ReceivedWord.from_string("11000000")  # not a codeword, nothing erased
    with pytest.raises(ChannelModelViolation):
        iterative_decode(H8, r)


def test_optimal_examples():
    assert optimal_decode(RM, ReceivedWord.from_codeword(0, 8, CW_1278)).kind == AMBIGUOUS
    out = optimal_decode(RM, ReceivedWord.from_codeword(CW_1278, 8, {2, 5, 6}))
    assert out.kind == DECODED
    assert out.word.values == CW_1278
    assert out.recovered == 3
    # more than n-k erasures is always ambiguous
    assert optimal_decode(RM, ReceivedWord.from_codeword(0, 8, {1, 2, 3, 4, 5})).kind == AMBIGUOUS


def test_optimal_matches_incorrigibility():
    rng = random.Random(52)
    from stopset.stopsets import is_incorrigible

    for _ in range(150):
        code = random_code_where(rng, range(2, 9), range(1, 6), lambda c: c.k >= 1)
        cw = rng.choice(list(code.codewords()))
        erasures = rng.randrange(0, 1 << code.n)
        out = optimal_decode(code, ReceivedWord.from_codeword(cw, code.n, erasures))
        if is_incorrigible(code, erasures):
            assert out.kind == AMBIGUOUS
        else:
            assert out.kind == DECODED
            assert out.word.values == cw


def test_optimal_channel_violation():
    r = ReceivedWord.from_string("1000000?")
    with pytest.raises(ChannelModelViolation):
        optimal_decode(RM, r)


def test_iterative_never_beats_optimal():
    rng = random.Random(53)
    for _ in range(100):
        code = random_code_where(rng, range(2, 9), range(1, 6), lambda c: c.k >= 1)
        h = random_dual_spanning_matrix(rng, code, rng.randrange(0, 3))
        cw = rng.choice(list(code.codewords()))
        erasures = rng.randrange(0, 1 << code.n)
        word = ReceivedWord.from_codeword(cw, code.n, erasures)
        opt = optimal_decode(code, word)
        it = iterative_decode(h, word)
        if opt.kind == AMBIGUOUS:
            assert it.kind != DECODED


def test_classify_examples():
    labels = classify_erasure_set(RM, H8, {1, 2, 3, 7, 8})
    assert labels.incorrigible and labels.dead_end
    labels = classify_erasure_set(RM, catalog("H_4"), {3, 5, 7})
    assert labels.dead_end and not labels.incorrigible  # dead-end yet corrigible
    labels = classify_erasure_set(RM, H8, 0)
    assert labels == (False, True, False)


def test_classify_implication():
    rng = random.Random(54)
    for _ in range(100):
        code = random_code_where(rng, range(2, 9), range(1, 6), lambda c: c.k >= 1)
        h = random_dual_spanning_matrix(rng, code, rng.randrange(0, 3))
        labels = classify_erasure_set(code, h, rng.randrange(0, 1 << code.n))
        if labels.incorrigible:
            assert labels.dead_end


def test_classify_rejects_wrong_matrix():
    with pytest.raises(ValueError):
        classify_erasure_set(RM, catalog("hamming_7_4").parity_basis, 0)
    # right length but wrong row space
    wrong = BitMatrix((1, 2, 4, 8), 8)
    with pytest.raises(ValueError):
        classify_erasure_set(RM, wrong, 0)


def test_is_parity_check_of():
    assert is_parity_check_of(H8, RM)
    assert is_parity_check_of(H14, RM)
    assert not is_parity_check_of(BitMatrix(H8.rows[:3], 8), RM)  # rank 3 only
    code = LinearCode.from_parity_check(H8)
    assert is_parity_check_of(code.parity_basis, RM)
