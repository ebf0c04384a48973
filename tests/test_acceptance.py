"""Acceptance suite: one test per release criterion, one PASS line each.

Each test re-verifies its criterion end to end (independent oracles live in
the sibling unit-test modules and are imported from there). The two
training-based criteria are marked `slow`; everything else runs in seconds.
"""

import csv
from dataclasses import replace

import numpy as np
import pytest

from talnet import autograd as ag
from talnet.attention import AffineParams, region_vertices
from talnet.appearance import GRUCell, gru_encode
from talnet.checks import run_all
from talnet.config import DataConfig, ModelConfig, TrainConfig
from talnet.data import (default_schema, generate_from_config, generate_synthetic,
                         train_test_split)
from talnet.losses import ce_label_smooth, triplet_batch_hard
from talnet.nn import load_checkpoint
from talnet.retrieval import (EmbeddingRecord, evaluate, fused_distance,
                              query_gallery_split, raw_pixel_record)
from talnet.trainer import build_model, evaluate_split, train
from talnet.ts_context import (AttentionScorer, TSGRUCell, build_context,
                               first_pass, second_pass, ts_gru_step)

from test_appearance import _gru_oracle
from test_attention import _vertices_oracle
from test_losses import _ce_oracle, _triplet_oracle
from test_retrieval import _rank_oracle
from test_ts_context import (_context_oracle, _scores_oracle,
                             _second_pass_oracle, _step_oracle)


def _ok(num, text):
    print(f"[criterion {num}] PASS — {text}")


# --- 1. gradient checks ------------------------------------------------------

def test_criterion_1_gradchecks():
    import time
    t0 = time.time()
    reports = run_all(tol=1e-4, eps=1e-5)
    elapsed = time.time() - t0
    worst = max(r.max_rel_err for r in reports.values())
    assert all(r.passed for r in reports.values()), reports
    assert worst <= 1e-4
    assert elapsed < 120.0
    _ok(1, f"{len(reports)} float64 gradchecks, worst rel err {worst:.2e}, "
           f"{elapsed:.1f}s")


# --- 2. equation ops vs scalar-loop oracles ----------------------------------

def test_criterion_2_equation_oracles():
    rng = np.random.default_rng(2026)
    checked = 0
    cell = TSGRUCell(4, 5).initialize(1, dtype=np.float64)
    cell2 = TSGRUCell(5, 5).initialize(2, dtype=np.float64)
    scorer = AttentionScorer(5, 6).initialize(3, dtype=np.float64)
    gru = GRUCell(4, 5).initialize(4, dtype=np.float64)
    for _ in range(100):
        B, N, T = 2, 3, 4
        v = ag.tensor(rng.normal(size=(B, 4)), dtype=np.float64)
        ha = ag.tensor(rng.normal(size=(B, 5)), dtype=np.float64)
        ht = ag.tensor(rng.normal(size=(B, 5)), dtype=np.float64)
        got = ts_gru_step(cell, v, ha, ht).data
        np.testing.assert_allclose(got, _step_oracle(cell, v.data, ha.data, ht.data),
                                   atol=1e-6)

        grid = ag.tensor(rng.normal(size=(B, N, T, 4)), dtype=np.float64)
        h1 = first_pass(cell, grid)
        f_s, f_t = build_context(h1)
        es, et = _context_oracle(h1.data)
        np.testing.assert_allclose(f_s.data, es, atol=1e-6)
        np.testing.assert_allclose(f_t.data, et, atol=1e-6)

        a_s, a_t, _, _ = scorer(h1, f_s, f_t)
        oas, oat = _scores_oracle(scorer, h1.data, f_s.data, f_t.data)
        np.testing.assert_allclose(a_s.data, oas, atol=1e-6)
        np.testing.assert_allclose(a_t.data, oat, atol=1e-6)

        h2 = second_pass(cell2, h1, a_s, a_t)
        np.testing.assert_allclose(
            h2.data, _second_pass_oracle(cell2, h1.data, a_s.data, a_t.data),
            atol=1e-6)

        seq = ag.tensor(rng.normal(size=(B, T, 4)), dtype=np.float64)
        np.testing.assert_allclose(gru_encode(gru, seq).data,
                                   _gru_oracle(gru, seq.data), atol=1e-6)

        p = AffineParams(*rng.uniform([0.01, 0.01, 0, 0], [1, 1, 30, 15]))
        np.testing.assert_allclose(np.array(region_vertices(p, 32, 16).vertices),
                                   _vertices_oracle(p, 32, 16), atol=1e-6)
        checked += 1
    assert checked >= 100
    _ok(2, f"6 equation ops match scalar-loop oracles on {checked} instances")


# --- 3. attention normalization ----------------------------------------------

def test_criterion_3_attention_normalization():
    rng = np.random.default_rng(33)
    scorer = AttentionScorer(5, 7).initialize(5, dtype=np.float64)
    cell = TSGRUCell(3, 5).initialize(6, dtype=np.float64)
    for _ in range(25):
        v = ag.tensor(rng.normal(size=(2, 4, 3, 3)), dtype=np.float64)
        h = first_pass(cell, v)
        f_s, f_t = build_context(h)
        a_s, a_t, _, _ = scorer(h, f_s, f_t)
        np.testing.assert_allclose(a_s.data.sum(axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(a_t.data.sum(axis=2), 1.0, atol=1e-6)
    _ok(3, "a_S columns and a_T rows sum to 1 +/- 1e-6 on random inputs")


# --- 4. batch-hard triplet ----------------------------------------------------

def test_criterion_4_triplet_brute_force():
    rng = np.random.default_rng(44)
    n = 0
    for I in (2, 3, 4):
        for V in (2, 3, 4):
            for _ in range(12):
                feats = rng.normal(size=(I * V, 5))
                # duplicate rows to force distance ties
                if rng.uniform() < 0.3:
                    feats[1] = feats[0]
                got = triplet_batch_hard(ag.tensor(feats, dtype=np.float64),
                                         I, V, 0.3).item()
                assert got == _triplet_oracle(feats, I, V, 0.3)
                n += 1
    _ok(4, f"batch-hard triplet equals brute-force mining exactly on {n} batches")


# --- 5. label-smoothing identities ---------------------------------------------

def test_criterion_5_label_smoothing():
    rng = np.random.default_rng(55)
    for _ in range(20):
        B, G = 6, 9
        logits = rng.normal(size=(B, G))
        targets = rng.integers(G, size=B)
        t = ag.tensor(logits, dtype=np.float64)
        plain = ce_label_smooth(t, targets, epsilon=0.0).item()
        assert abs(plain - _ce_oracle(logits, targets, 0.0)) < 1e-7
        uniform = ce_label_smooth(ag.tensor(np.zeros((B, G)), dtype=np.float64),
                                  targets, epsilon=0.1).item()
        assert abs(uniform - np.log(G)) < 1e-6
    _ok(5, "eps=0 reduces to plain CE (1e-7); uniform logits give log G (1e-6)")


# --- 6. CMC / mAP oracle --------------------------------------------------------

def test_criterion_6_ranking_oracle():
    rng = np.random.default_rng(66)
    for _ in range(200):
        nq = int(rng.integers(1, 11))
        ng = int(rng.integers(2, 31))
        d = int(rng.integers(2, 5))
        ids_g = rng.integers(0, 5, size=ng)
        queries = [EmbeddingRecord(rng.normal(size=d), rng.normal(size=d),
                                   int(rng.integers(0, 5)), 0, i)
                   for i in range(nq)]
        gallery = [EmbeddingRecord(rng.normal(size=d), rng.normal(size=d),
                                   int(ids_g[j]), 1, 100 + j)
                   for j in range(ng)]
        res = evaluate(queries, gallery, lambda_sim=0.4, max_rank=10)
        cmc_o, map_o = _rank_oracle(queries, gallery, 0.4, 10)
        np.testing.assert_allclose(res.cmc, cmc_o, atol=1e-12)
        assert res.mean_ap == pytest.approx(map_o, abs=1e-12)
        assert np.all(np.diff(res.cmc) >= 0)
    _ok(6, "CMC/mAP match the brute-force oracle on 200 instances; CMC monotone")


# --- 7. fused distance -----------------------------------------------------------

def test_criterion_7_fused_distance():
    rng = np.random.default_rng(77)
    for _ in range(100):
        a = EmbeddingRecord(rng.normal(size=6), rng.normal(size=4), 0, 0, 0)
        b = EmbeddingRecord(rng.normal(size=6), rng.normal(size=4), 1, 1, 1)
        lam = float(rng.uniform(0, 2))
        da = a.f_app - b.f_app
        dt = a.f_att - b.f_att
        expected = float(da @ da) + lam ** 2 * float(dt @ dt)
        assert fused_distance(a, b, lam) == pytest.approx(expected, abs=1e-6)
    # lambda = 0: ranking identical to appearance-only ranking
    queries = [EmbeddingRecord(rng.normal(size=5), rng.normal(size=3), i % 3, 0, i)
               for i in range(6)]
    gallery = [EmbeddingRecord(rng.normal(size=5), rng.normal(size=3), j % 3, 1, j)
               for j in range(12)]
    res0 = evaluate(queries, gallery, lambda_sim=0.0)
    zeroed = [EmbeddingRecord(g.f_app, np.zeros_like(g.f_att), g.identity,
                              g.camera, g.sequence_id) for g in gallery]
    zq = [EmbeddingRecord(q.f_app, np.zeros_like(q.f_att), q.identity,
                          q.camera, q.sequence_id) for q in queries]
    res_app = evaluate(zq, zeroed, lambda_sim=1.0)
    np.testing.assert_array_equal(res0.cmc, res_app.cmc)
    assert res0.mean_ap == res_app.mean_ap
    _ok(7, "fused distance decomposes to 1e-6; lambda=0 ranks by appearance only")


# --- 8/9/10: training-based criteria -------------------------------------------

def _generate(dc):
    return train_test_split(generate_from_config(dc), dc.test_seqs_per_id)


@pytest.mark.slow
def test_criterion_8_end_to_end(tmp_path):
    import time
    train_set, test_set = _generate(DataConfig())
    mc, tc = ModelConfig(), TrainConfig()
    t0 = time.time()
    model, _, log = train(mc, tc, train_set, tmp_path / "run")
    elapsed = time.time() - t0
    assert elapsed < 1200.0
    res = evaluate_split(model, test_set.sequences, tc.lambda_sim, mc.clip_len)
    base_records = [raw_pixel_record(s) for s in test_set.sequences]
    q, g = query_gallery_split(base_records)
    base = evaluate(q, g, lambda_sim=0.0)
    assert res.cmc[0] >= 0.90
    assert res.cmc[0] - base.cmc[0] >= 0.15

    # trainer smoke property: smoothed stage-2 loss decreases monotonically
    # (means of consecutive non-overlapping 10-epoch windows)
    with open(log) as fh:
        rows = list(csv.reader(fh))[1:]
    joint = [float(r[6]) for r in rows if r[0] == "joint"]
    n_ep = tc.stage2_epochs
    per_epoch = np.array_split(np.asarray(joint), n_ep)
    ep_means = np.array([c.mean() for c in per_epoch])
    windows = [w.mean() for w in np.array_split(ep_means, n_ep // 10)]
    assert all(b < a for a, b in zip(windows, windows[1:])), windows
    _ok(8, f"Rank-1 {res.cmc[0]:.2f} (baseline {base.cmc[0]:.2f}) in "
           f"{elapsed / 60:.1f} min; smoothed stage-2 loss decreasing")


# Criterion 9 trains on the shipped defaults, like criterion 8.
ABLATION_DATA = DataConfig()
ABLATION_TRAIN = TrainConfig()


@pytest.mark.slow
def test_criterion_9_ablation_trends(tmp_path):
    train_set, test_set = _generate(ABLATION_DATA)
    seeds = (0, 1, 2)
    r1 = {}
    for name, overrides in (
            ("app_only", {"use_att": False}),
            ("fused", {}),
            ("att_only", {"use_app": False}),
            ("pool_max", {"use_att": False, "pooling": "max"}),
            ("pool_random", {"use_att": False, "pooling": "random-sample"})):
        vals = []
        for seed in seeds:
            mc = replace(ModelConfig(), **overrides)
            tc = replace(ABLATION_TRAIN, seed=seed)
            model, _, _ = train(mc, tc, train_set,
                                tmp_path / f"{name}_{seed}")
            res = evaluate_split(model, test_set.sequences, tc.lambda_sim,
                                 mc.clip_len)
            vals.append(res.cmc[0])
        r1[name] = float(np.mean(vals))
        if name == "app_only":
            # Rank-1 is at most 1, so `fused - app_only >= 0.02` below cannot
            # hold unless this does: fail before the twelve other runs.
            assert 1.0 - r1["app_only"] >= 0.02, r1
    r1["pool_mean"] = r1["app_only"]  # identical configuration
    assert r1["fused"] >= r1["app_only"] >= r1["att_only"], r1
    assert r1["fused"] - r1["app_only"] >= 0.02, r1
    assert r1["pool_mean"] >= r1["pool_max"] >= r1["pool_random"], r1
    _ok(9, "fused {fused:.2f} >= app {app_only:.2f} >= att {att_only:.2f}; "
           "pooling mean {pool_mean:.2f} >= max {pool_max:.2f} >= "
           "random {pool_random:.2f}".format(**r1))


def test_criterion_10_determinism_and_persistence(tmp_path):
    mc = ModelConfig(frame_height=16, frame_width=8, backbone_channels=(4, 8),
                     clip_len=4, d_v=8, d=8, attention_hidden=8, d_g=8, d_p=8)
    tc = TrainConfig(stage1_epochs=2, stage2_epochs=2, batch_identities=2,
                     clips_per_identity=2, warmup_epochs=1,
                     warmup_exit_frac=10.0)
    dataset = generate_synthetic(4, 4, 4, default_schema(), noise=0.02,
                                 occlusion_prob=0.0, seed=5,
                                 frame_shape=(3, 16, 8))
    train_set, test_set = train_test_split(dataset, 2)
    model, ckpt, log1 = train(mc, tc, train_set, tmp_path / "a")
    _, _, log2 = train(mc, tc, train_set, tmp_path / "b")
    with open(log1) as f1, open(log2) as f2:
        assert f1.read() == f2.read()
    res1 = evaluate_split(model, test_set.sequences, tc.lambda_sim, mc.clip_len)
    fresh = build_model(mc, train_set, seed=999)
    load_checkpoint(ckpt, fresh)
    res2 = evaluate_split(fresh, test_set.sequences, tc.lambda_sim, mc.clip_len)
    np.testing.assert_array_equal(res1.cmc, res2.cmc)
    assert res1.mean_ap == res2.mean_ap
    _ok(10, "identical seeds give identical loss CSVs; checkpoint round-trip "
            "reproduces eval metrics exactly")
