import concurrent.futures
import json
import math
import random
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from numpy.random import Philox
from hypothesis import given, settings
from hypothesis import strategies as st

from stopset import harness
from stopset.codes import Enumerator, _enumeration_limit, catalog, rm_8_4_4
from stopset.harness import (
    ChannelConfig,
    _erasure_masks,
    analytic_pud,
    monte_carlo,
    table1_report,
)
from stopset.stopsets import dead_end_enumerator, incorrigible_enumerator, is_incorrigible, peel_closure

from conftest import oracle_erasure_masks, random_code, random_code_where, random_dual_spanning_matrix

RM = rm_8_4_4()


def test_channel_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(epsilon=0.0, trials=10, seed=1)
    with pytest.raises(ValueError):
        ChannelConfig(epsilon=1.0, trials=10, seed=1)
    with pytest.raises(ValueError):
        ChannelConfig(epsilon=0.5, trials=0, seed=1)
    with pytest.raises(ValueError, match="seed"):
        ChannelConfig(epsilon=0.5, trials=10, seed=-1)


@pytest.mark.parametrize("trials, seed, name", [(20_000, 1.5, "seed"), (1.5, 1, "trials")])
def test_channel_config_refuses_a_float_count(trials, seed, name):
    # seed 1.5 would run seed 1's stream under a report saying 1.5
    with pytest.raises(ValueError, match=f"{name} must be an integer, got 1.5"):
        ChannelConfig(epsilon=0.3, trials=trials, seed=seed)


def test_channel_config_stores_numpy_integers_as_ints():
    cfg = ChannelConfig(epsilon=0.3, trials=np.int64(2000), seed=np.uint64(5))
    assert (type(cfg.trials), type(cfg.seed)) == (int, int)
    reports = [monte_carlo(RM, catalog("H_4"), c).to_json_obj() for c in (cfg, ChannelConfig(0.3, 2000, 5))]
    assert json.dumps(reports[0]) == json.dumps(reports[1])


def test_analytic_single_term():
    e = Enumerator((0, 0, 0, 0, 1))  # x^4
    assert analytic_pud(e, 0.3) == pytest.approx(0.3**4)


def test_analytic_total_probability():
    n = 9
    e = Enumerator(tuple(math.comb(n, i) for i in range(n + 1)))
    for eps in (0.1, 0.37, 0.9):
        assert analytic_pud(e, eps) == pytest.approx(1.0)


def test_analytic_rm_incorrigible():
    eps = 0.2
    expected = (
        14 * eps**4 * (1 - eps) ** 4
        + 56 * eps**5 * (1 - eps) ** 3
        + 28 * eps**6 * (1 - eps) ** 2
        + 8 * eps**7 * (1 - eps)
        + eps**8
    )
    assert analytic_pud(incorrigible_enumerator(RM), eps) == pytest.approx(expected)


def test_analytic_validation():
    with pytest.raises(ValueError):
        analytic_pud(Enumerator((1, 0)), 1.5)


def test_analytic_it_dominates_opt():
    rng = random.Random(70)
    for _ in range(10):
        code = random_code_where(rng, range(2, 10), range(1, 6), lambda c: c.k >= 1)
        h = random_dual_spanning_matrix(rng, code, rng.randrange(0, 3))
        for eps in (0.05, 0.4, 0.8):
            it = analytic_pud(dead_end_enumerator(h), eps)
            opt = analytic_pud(incorrigible_enumerator(code), eps)
            assert it >= opt - 1e-15


def test_erasure_stream_partition_independent():
    whole = _erasure_masks(99, 0, 10000, 8, 0.3)
    pieces = np.concatenate(
        [_erasure_masks(99, a, b, 8, 0.3) for a, b in [(0, 37), (37, 5000), (5000, 10000)]]
    )
    assert np.array_equal(whole, pieces)


def test_erasure_stream_golden():
    # pinned Philox-4x64-10 stream: seed 1, epsilon 0.5, trials 0..4
    assert _erasure_masks(1, 0, 5, 32, 0.5).tolist() == [
        0x7FC1C7AD, 0x1FF23E52, 0xB556699E, 0x60EA5120, 0x807CFFC0,
    ]
    assert _erasure_masks(1, 0, 5, 64, 0.5).tolist() == [
        0x1FF23E527FC1C7AD, 0x60EA5120B556699E, 0x9AD58141807CFFC0, 0xF4DBA3E5E17638F0, 0x2E147DF10382DB44,
    ]
    # trials 4094..4097 straddle the boundary between blocks 0 and 1
    whole = _erasure_masks(1, 0, 8192, 64, 0.5)
    assert np.array_equal(_erasure_masks(1, 4094, 4098, 64, 0.5), whole[4094:4098])


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 32, 33, 63, 64])
def test_erasure_stream_matches_float_definition(n):
    # the raw-word threshold against u < epsilon on the generator's doubles
    for epsilon in (5e-324, 2.0**-53, 0.1, math.nextafter(0.3, 0), math.nextafter(0.3, 1), 0.5, 1 - 2.0**-53):
        for start, stop in ((0, 5), (4090, 4100), (1000, 9000)):
            assert np.array_equal(
                _erasure_masks(5, start, stop, n, epsilon), oracle_erasure_masks(5, start, stop, n, epsilon)
            ), (epsilon, start, stop)


def test_erasure_threshold_at_the_boundary(monkeypatch):
    # raw words on both sides of each threshold: a coordinate is erased
    # iff the generator's double (w >> 11) * 2^-53 is below epsilon
    for epsilon in (5e-324, 2.0**-53, 0.1, math.nextafter(0.3, 0), 0.5, 1 - 2.0**-53):
        t = math.ceil(epsilon * 2.0**53)
        words = np.array([(t - 1) << 11, (t << 11) - 1, t << 11, (t << 11) | 0x7FF], dtype=np.uint64)

        class RawWords:  # stands in for Philox: every row of a block is `words`
            def __init__(self, key):
                self.state = {"state": {"counter": np.zeros(4, dtype=np.uint64)}}

            def random_raw(self, size):
                return np.resize(words, size)

        monkeypatch.setattr(np.random, "Philox", RawWords)
        below = (words >> np.uint64(11)).astype(float) * 2.0**-53 < epsilon
        assert _erasure_masks(0, 0, 1, 4, epsilon).tolist() == [int(below @ (1 << np.arange(4)))], epsilon


def _assert_classifiers_agree(code, h, cfg):
    """The flag lookup (n under the guard) and the peel and rank path
    (guard set below n) count the same failures; the lookup calls
    neither per-mask test."""

    def forbidden(*args):
        raise AssertionError("per-mask classifier called under the guard")

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("STOPSET_MAX_N", str(code.n))
        mp.setattr(harness, "batch_peel_residuals", forbidden)
        mp.setattr(harness, "is_incorrigible", forbidden)
        lookup = monte_carlo(code, h, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("STOPSET_MAX_N", str(code.n - 1))
        peel = monte_carlo(code, h, cfg)
    assert lookup.analytic_it is not None and peel.analytic_it is None
    counts = [(r.it_failures, r.opt_failures, r.it_only_failures) for r in (lookup, peel)]
    assert counts[0] == counts[1]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.integers(2, 12), st.integers(0, 13), st.integers(0, 3), st.integers(0, 2**32 - 1),
       st.sampled_from([0.05, 0.3, 0.5, 0.8]))
def test_lookup_and_peel_classifiers_agree(n, redundancy, extra_rows, seed, epsilon):
    rng = random.Random(seed)
    code = random_code(rng, n, redundancy)
    h = random_dual_spanning_matrix(rng, code, extra_rows)  # redundant rows beyond the basis
    _assert_classifiers_agree(code, h, ChannelConfig(epsilon, 2000, seed))


@pytest.mark.parametrize("name, matrix, trials", [
    ("full(5)", None, 3000),
    ("zero(6)", None, 3000),
    ("repetition(7)", None, 3000),
    ("repetition(2)", None, 3000),
    ("rm_8_4_4", "H_4", 70_000),  # crosses the first 2^16-trial chunk
])
def test_lookup_and_peel_classifiers_agree_on_catalog_codes(name, matrix, trials):
    code = catalog(name)
    h = catalog(matrix) if matrix else code.parity_basis
    _assert_classifiers_agree(code, h, ChannelConfig(0.4, trials, 77))


def test_monte_carlo_chunk_boundary_recount():
    # 70,000 trials run past the first 2^16-trial chunk
    h = catalog("H_4")
    cfg = ChannelConfig(epsilon=0.4, trials=70_000, seed=77)
    rep = monte_carlo(RM, h, cfg)
    it_fail: dict[int, bool] = {}
    opt_fail: dict[int, bool] = {}
    it = opt = it_only = 0
    for m in _erasure_masks(cfg.seed, 0, cfg.trials, RM.n, cfg.epsilon).tolist():
        if m not in it_fail:
            it_fail[m] = peel_closure(h, m) != 0
            opt_fail[m] = is_incorrigible(RM, m)
        it += it_fail[m]
        opt += opt_fail[m]
        it_only += it_fail[m] and not opt_fail[m]
    assert (rep.it_failures, rep.opt_failures, rep.it_only_failures) == (it, opt, it_only)
    assert it_only > 0


@pytest.mark.parametrize("chunk", [1000, 4097])
def test_monte_carlo_does_not_depend_on_chunk_size(chunk, monkeypatch):
    # neither size is a multiple of the 4096-trial block; 9000 trials
    # make one chunk at the default size
    h = catalog("H_4")
    cfg = ChannelConfig(epsilon=0.4, trials=9000, seed=77)
    for guard in (RM.n, RM.n - 1):  # flag lookup, then peel and rank
        monkeypatch.setenv("STOPSET_MAX_N", str(guard))
        default = monte_carlo(RM, h, cfg)
        with monkeypatch.context() as mp:
            mp.setattr(harness, "_TRIAL_CHUNK", chunk)
            assert monte_carlo(RM, h, cfg) == default, guard


@pytest.mark.parametrize("guard", [RM.n, RM.n - 1])  # flag lookup, then peel and rank
def test_monte_carlo_does_not_depend_on_worker_count(guard, monkeypatch):
    # 20,000 trials are five blocks: every worker count splits them unevenly
    h = catalog("H_4")
    cfg = ChannelConfig(epsilon=0.4, trials=20_000, seed=77)
    monkeypatch.setenv("STOPSET_MAX_N", str(guard))
    monkeypatch.setattr(harness, "_WORKERS", 1)
    threads = threading.active_count()
    single = monte_carlo(RM, h, cfg)
    for workers in (1, 2, 3):
        for chunk in (harness._TRIAL_CHUNK, 4097, 1000):
            with monkeypatch.context() as mp:
                mp.setattr(harness, "_WORKERS", workers)
                mp.setattr(harness, "_TRIAL_CHUNK", chunk)
                assert monte_carlo(RM, h, cfg) == single, (workers, chunk)
    assert threading.active_count() == threads  # no worker thread outlives its call


@pytest.mark.parametrize("guard", [RM.n, RM.n - 1])  # flag lookup, then peel and rank
@pytest.mark.parametrize("trials", [20_000, 70_000])
def test_monte_carlo_draws_each_block_once(trials, guard, monkeypatch):
    # each block's 2048-row draws are made once, up to the draw that holds
    # the run's last trial, whatever the workers and the piece size
    draws = []

    class RecordsDraws(Philox):
        def random_raw(self, size=None, output=True):
            draws.append((int(self.state["state"]["counter"][2]), size))  # one atomic append
            return super().random_raw(size, output)

    blocks, rest = divmod(trials, 4096)
    expected = Counter({(b, (2048, RM.n)): 2 for b in range(blocks)})
    expected[blocks, (2048, RM.n)] = -(-rest // 2048)
    monkeypatch.setenv("STOPSET_MAX_N", str(guard))
    monkeypatch.setattr(np.random, "Philox", RecordsDraws)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for workers in (1, 2, 3):
            for chunk in (harness._TRIAL_CHUNK, 4097, 1000):
                draws.clear()
                with monkeypatch.context() as mp:
                    mp.setattr(harness, "_WORKERS", workers)
                    mp.setattr(harness, "_TRIAL_CHUNK", chunk)
                    monte_carlo(RM, catalog("H_4"), ChannelConfig(epsilon=0.4, trials=trials, seed=77))
                assert Counter(draws) == expected, (workers, chunk)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_monte_carlo_builds_one_pool_per_call(workers, monkeypatch):
    # 200,000 trials are several pieces at the default size
    pools = []

    class CountsPools(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountsPools)
    monkeypatch.setattr(harness, "_WORKERS", workers)
    threads = threading.active_count()
    monte_carlo(RM, catalog("H_4"), ChannelConfig(epsilon=0.4, trials=200_000, seed=77))
    assert len(pools) == 1
    assert threading.active_count() == threads  # no worker thread outlives its call


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_erasure_stream_does_not_depend_on_worker_count(workers, monkeypatch):
    # each block is drawn 2048 rows at a time, up to the draw that holds the
    # range's last trial: the raw-word draws do not depend on the workers
    draws = []

    class CountsDraws(Philox):
        def random_raw(self, size=None, output=True):
            draws.append(size)  # one atomic append per draw, from any thread
            return super().random_raw(size, output)

    monkeypatch.setattr(harness, "_WORKERS", workers)
    monkeypatch.setattr(np.random, "Philox", CountsDraws)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for n in (8, 17, 64):
            # (4090, 4100) and (37, 9000) straddle block boundaries; 16,960
            # trials end in the first half of a fifth block
            for (start, stop), count in {
                (4090, 4100): 3, (37, 9000): 5, (0, 0): 0, (0, 100): 1, (0, 2049): 2, (0, 16960): 9,
            }.items():
                draws.clear()
                assert np.array_equal(
                    _erasure_masks(5, start, stop, n, 0.3), oracle_erasure_masks(5, start, stop, n, 0.3)
                ), (n, start, stop)
                assert len(draws) == count, (n, start, stop)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("block", [0, 5])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_worker_error_reaches_the_caller(workers, block, monkeypatch):
    # 40,000 trials are blocks 0..9; the calling thread draws
    # block 0, and block 5 too with one worker, a started thread otherwise
    class FailsOnBlock(Philox):
        def random_raw(self, size=None, output=True):
            if self.state["state"]["counter"][2] == block:
                raise RuntimeError(f"no words for block {block}")
            return super().random_raw(size, output)

    monkeypatch.setattr(harness, "_WORKERS", workers)
    monkeypatch.setattr(np.random, "Philox", FailsOnBlock)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"block {block}"):
        monte_carlo(RM, catalog("H_4"), ChannelConfig(epsilon=0.4, trials=40_000, seed=77))
    assert threading.active_count() == threads


def test_monte_carlo_above_enumeration_guard():
    code = random_code(random.Random(32), 32, 16)
    rep = monte_carlo(code, code.parity_basis, ChannelConfig(epsilon=0.2, trials=3000, seed=4))
    assert (rep.analytic_opt, rep.analytic_it, rep.dominant_it) == (None,) * 3
    d = code.minimum_distance  # A_d eps^d needs only the 2^16 codewords
    assert rep.dominant_opt == code.weight_enumerator[d] * 0.2**d > 0
    notes = dict(rep.notes)
    assert set(notes) == {"analytic", "dominant_terms"} and "guard 28" in notes["analytic"]
    assert notes["dominant_terms"].startswith("iterative omitted: n=32")
    assert rep.opt_failures <= rep.it_failures
    obj = json.loads(json.dumps(rep.to_json_obj()))
    assert obj["analytic"] == {"optimal": None, "iterative": None}
    assert obj["notes"] == notes


def test_monte_carlo_above_both_guards():
    code = random_code(random.Random(64), 64, 30)
    assert code.k > _enumeration_limit()
    rep = monte_carlo(code, code.parity_basis, ChannelConfig(epsilon=0.1, trials=500, seed=2))
    assert (rep.analytic_opt, rep.analytic_it, rep.dominant_opt, rep.dominant_it) == (None,) * 4
    note = dict(rep.notes)["dominant_terms"]
    assert note.startswith("omitted: n=64") and f"k={code.k} exceeds enumeration guard 28" in note


def test_monte_carlo_lowered_guard_refuses_n_and_k(monkeypatch):
    # one guard bounds n and k, so the k note comes only with the n note
    cfg = ChannelConfig(epsilon=0.3, trials=2000, seed=5)
    under = monte_carlo(RM, catalog("H_8"), cfg)
    monkeypatch.setenv("STOPSET_MAX_N", "3")
    rep = monte_carlo(RM, catalog("H_8"), cfg)
    assert (rep.analytic_opt, rep.analytic_it, rep.dominant_opt, rep.dominant_it) == (None,) * 4
    n_refusal = "n=8 exceeds enumeration guard 3 (set STOPSET_MAX_N to override)"
    k_refusal = "k=4 exceeds enumeration guard 3 (set STOPSET_MAX_N to override)"
    assert dict(rep.notes) == {
        "analytic": f"omitted: {n_refusal}",
        "dominant_terms": f"omitted: {n_refusal}; {k_refusal}",
    }
    assert (rep.it_failures, rep.opt_failures) == (under.it_failures, under.opt_failures)
    obj = json.loads(json.dumps(rep.to_json_obj()))
    assert obj["dominant_terms"]["optimal"] is None and obj["notes"] == dict(rep.notes)


def test_report_json_omits_empty_notes():
    rep = monte_carlo(RM, catalog("H_8"), ChannelConfig(0.25, 100, 3))
    assert rep.notes == () and "notes" not in rep.to_json_obj()


def test_monte_carlo_reproducible():
    cfg = ChannelConfig(epsilon=0.3, trials=2000, seed=12345)
    r1 = monte_carlo(RM, catalog("H_4"), cfg)
    r2 = monte_carlo(RM, catalog("H_4"), cfg)
    assert r1 == r2


def test_monte_carlo_single_trial():
    cfg = ChannelConfig(epsilon=0.3, trials=1, seed=7)
    rep = monte_carlo(RM, catalog("H_8"), cfg)
    assert rep.it_failures in (0, 1) and rep.opt_failures in (0, 1)
    assert rep == monte_carlo(RM, catalog("H_8"), cfg)


def test_monte_carlo_agreement_with_analytic():
    cfg = ChannelConfig(epsilon=0.5, trials=20000, seed=2024)
    rep = monte_carlo(RM, catalog("H_8"), cfg)
    for emp, ana in [(rep.empirical_it, rep.analytic_it), (rep.empirical_opt, rep.analytic_opt)]:
        sigma = math.sqrt(ana * (1 - ana) / cfg.trials)
        assert abs(emp - ana) <= 4 * sigma
    assert rep.analytic_it == pytest.approx(107 / 256)  # all dead-end sets weighted 2^-8


def test_monte_carlo_event_equality_when_optimal():
    # D(x) = I(x) for H_8, so the two decoders fail on exactly the same trials
    cfg = ChannelConfig(epsilon=0.5, trials=5000, seed=5)
    rep = monte_carlo(RM, catalog("H_8"), cfg)
    assert rep.it_only_failures == 0
    assert rep.it_failures == rep.opt_failures


def test_monte_carlo_failure_sets_nest():
    cfg = ChannelConfig(epsilon=0.4, trials=5000, seed=6)
    rep = monte_carlo(RM, catalog("H_4"), cfg)
    assert rep.it_only_failures == rep.it_failures - rep.opt_failures
    assert rep.it_failures >= rep.opt_failures


def test_monte_carlo_small_epsilon_dominant_term():
    cfg = ChannelConfig(epsilon=1e-3, trials=100000, seed=8)
    rep = monte_carlo(RM, catalog("H_8"), cfg)
    assert rep.empirical_it <= 1e-3
    # at small epsilon the failure probability is close to S_s eps^s
    assert rep.analytic_it == pytest.approx(rep.dominant_it, rel=0.05)
    assert rep.dominant_it == pytest.approx(14 * 1e-12, rel=1e-9)


def test_monte_carlo_rejects_foreign_matrix():
    with pytest.raises(ValueError):
        monte_carlo(RM, catalog("hamming_7_4").parity_basis, ChannelConfig(0.1, 10, 1))


def test_report_json_shape():
    rep = monte_carlo(RM, catalog("H_8"), ChannelConfig(0.25, 100, 3))
    obj = rep.to_json_obj()
    text = json.dumps(obj)
    assert json.loads(text)["failures"]["iterative"] == rep.it_failures


def test_table1_ok_and_flags():
    rep = table1_report()
    assert rep.ok
    flags = dict(rep.flags)
    assert flags["h14_stopping_enumerator_is_optimal"]
    assert flags["h8_dead_end_is_incorrigible"]
    assert flags["h14_dead_end_is_incorrigible"]
    assert flags["star_dead_end_is_incorrigible"]
    assert len(rep.entries) == 12
    assert all(e.match for e in rep.entries)


def test_table1_detects_mismatch(monkeypatch):
    import stopset.harness as harness_mod

    monkeypatch.setattr(harness_mod, "_TABLE1_A", (1, 0, 0, 0, 13, 0, 0, 0, 1))
    rep = harness_mod.table1_report()
    assert not rep.ok
    assert "MISMATCH" in rep.render_pretty()
