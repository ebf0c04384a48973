"""Oracle tests for the training objectives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talnet import autograd as ag
from talnet.gradcheck import grad_check
from talnet.losses import (appearance_loss, attribute_loss, ce_label_smooth,
                           total_loss, triplet_batch_hard)
from talnet.nn import Parameter

# --- brute-force oracles -----------------------------------------------------


def _features(values):
    """The features as the named float64 Parameter `grad_check` expects."""
    f = Parameter(np.shape(values), name="features")
    f.data = np.asarray(values, dtype=np.float64)
    return f


def _triplet_oracle(feats, I, V, margin):
    """Enumerate every positive/negative pair per anchor and take the exact
    hardest ones (first occurrence on ties)."""
    B = I * V
    d = np.zeros((B, B))
    for i in range(B):
        for j in range(B):
            diff = feats[i] - feats[j]
            d[i, j] = float(diff @ diff)
    labels = np.repeat(np.arange(I), V)
    total = 0.0
    for a in range(B):
        pos = [d[a, j] for j in range(B) if labels[j] == labels[a]]
        neg = [d[a, j] for j in range(B) if labels[j] != labels[a]]
        total += max(0.0, margin + max(pos) - min(neg))
    return total


def _triplet_grad(loss_fn, feats, *args, **kwargs):
    f = ag.tensor(feats, dtype=np.float64, requires_grad=True)
    out = loss_fn(f, *args, **kwargs)
    out.backward()
    return out.item(), f.grad


def _ce_oracle(logits, targets, eps):
    B, G = logits.shape
    total = 0.0
    for b in range(B):
        ex = np.exp(logits[b] - logits[b].max())
        q = ex / ex.sum()
        total += -np.log((1 - eps) * q[targets[b]] + eps / G)
    return total / B


# --- pairwise distances --------------------------------------------------------


def pairwise_sqdist(features):
    """Squared Euclidean distances between all rows of (B, d) -> (B, B), as
    graph nodes: each entry is one (1 x d)(d x 1) product of the row
    difference with itself, the per-pair product `triplet_batch_hard` uses."""
    B, d = features.shape
    diff = features.reshape((B, 1, d)) - features.reshape((1, B, d))
    sq = ag.matmul(diff.reshape((B, B, 1, d)), diff.reshape((B, B, d, 1)))
    return sq.reshape((B, B))


def test_pairwise_sqdist_hand_example():
    f = ag.tensor(np.array([[0.0, 0.0], [3.0, 4.0]]), dtype=np.float64)
    np.testing.assert_allclose(pairwise_sqdist(f).data, [[0.0, 25.0], [25.0, 0.0]])


@given(st.integers(0, 10 ** 6))
@settings(max_examples=50, deadline=None)
def test_pairwise_sqdist_matches_loop(seed):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(5, 3))
    got = pairwise_sqdist(ag.tensor(f, dtype=np.float64)).data
    expected = ((f[:, None, :] - f[None, :, :]) ** 2).sum(-1)
    np.testing.assert_allclose(got, expected, atol=1e-10)


# --- batch-hard triplet ---------------------------------------------------------


def test_triplet_identical_features_gives_margin_times_anchors():
    f = ag.tensor(np.ones((6, 4)), dtype=np.float64)
    out = triplet_batch_hard(f, I=3, V=2, margin=0.3)
    assert float(out.item()) == pytest.approx(0.3 * 6)


def test_triplet_well_separated_clusters_inactive():
    # positives coincide, negatives are 100 apart -> every hinge is zero
    f = np.zeros((4, 2))
    f[2:] += 100.0
    out = triplet_batch_hard(ag.tensor(f, dtype=np.float64), I=2, V=2, margin=0.3)
    assert float(out.item()) == 0.0


def test_triplet_requires_two_ids_and_two_clips():
    f = ag.tensor(np.zeros((4, 2)), dtype=np.float64)
    with pytest.raises(ValueError):
        triplet_batch_hard(f, I=1, V=4, margin=0.3)
    with pytest.raises(ValueError):
        triplet_batch_hard(f, I=4, V=1, margin=0.3)
    with pytest.raises(ag.ShapeError):
        triplet_batch_hard(f, I=2, V=3, margin=0.3)


@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_triplet_matches_brute_force(I, V, seed):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(I * V, 3))
    got = float(triplet_batch_hard(ag.tensor(f, dtype=np.float64), I, V, 0.3).item())
    assert got == pytest.approx(_triplet_oracle(f, I, V, 0.3), abs=1e-10)


def test_triplet_tie_break_lowest_index():
    # negatives tie: rows 2 and 3 coincide, equally near anchors 0 and 1;
    # their own hinges (margin - 5) are inactive, so row 3 must get nothing
    neg_tie = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 2.0], [0.0, 2.0]])
    _, grad = _triplet_grad(triplet_batch_hard, neg_tie, 2, 2, 2.0)
    assert np.any(grad[2] != 0)
    np.testing.assert_array_equal(grad[3], 0.0)
    # positives tie: rows 1 and 2 coincide at distance 1 from anchor 0, whose
    # hinge is the only one that picks them; row 2 must get nothing
    pos_tie = np.array([[0.0], [1.0], [1.0], [-1.0], [-10.0], [-10.0]])
    _, grad = _triplet_grad(triplet_batch_hard, pos_tie, 2, 3, 0.5)
    assert grad[1, 0] != 0
    np.testing.assert_array_equal(grad[2], 0.0)


def test_triplet_translation_invariance(rng):
    f = rng.normal(size=(8, 4))
    a = float(triplet_batch_hard(ag.tensor(f, dtype=np.float64), 4, 2, 0.3).item())
    b = float(triplet_batch_hard(ag.tensor(f + 7.5, dtype=np.float64), 4, 2, 0.3).item())
    assert a == pytest.approx(b, abs=1e-8)


def test_triplet_gradcheck():
    rng = np.random.default_rng(0)
    f = _features(rng.normal(size=(6, 3)).astype(np.float32))

    report = grad_check(lambda: triplet_batch_hard(f, 3, 2, 0.5), [f])
    assert report.passed, report.summary()


# --- label-smoothed cross entropy ------------------------------------------------


def test_ce_eps_zero_equals_plain_ce():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(8, 5))
    targets = rng.integers(0, 5, size=8)
    got = float(ce_label_smooth(ag.tensor(logits, dtype=np.float64), targets, 0.0).item())
    # independent plain CE
    ex = np.exp(logits - logits.max(axis=1, keepdims=True))
    q = ex / ex.sum(axis=1, keepdims=True)
    plain = -np.mean(np.log(q[np.arange(8), targets]))
    assert got == pytest.approx(plain, abs=1e-7)


def test_ce_uniform_logits_gives_log_g():
    for G in (2, 5, 10):
        logits = ag.tensor(np.zeros((4, G)), dtype=np.float64)
        got = float(ce_label_smooth(logits, np.zeros(4, int), 0.1).item())
        assert got == pytest.approx(np.log(G), abs=1e-6)


def test_ce_smoothing_floor_example():
    # q_target = 0.7, eps = 0.1, G = 4 -> -log(0.9*0.7 + 0.025) = -log(0.655)
    q = np.array([[0.7, 0.1, 0.1, 0.1]])
    logits = ag.tensor(np.log(q), dtype=np.float64)
    got = float(ce_label_smooth(logits, [0], 0.1).item())
    assert got == pytest.approx(-np.log(0.655), abs=1e-9)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_ce_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    B, G = int(rng.integers(1, 6)), int(rng.integers(2, 7))
    logits = rng.normal(scale=2.0, size=(B, G))
    targets = rng.integers(0, G, size=B)
    eps = float(rng.uniform(0, 0.5))
    got = float(ce_label_smooth(ag.tensor(logits, dtype=np.float64), targets, eps).item())
    assert got == pytest.approx(_ce_oracle(logits, targets, eps), abs=1e-9)


# --- combined objectives -----------------------------------------------------------


def test_appearance_loss_assembly(rng):
    I, V, G = 2, 2, 3
    g = rng.normal(size=(4, 3))
    parts = [rng.normal(size=(4, 2)) for _ in range(2)]
    logits = [rng.normal(size=(4, G)) for _ in range(3)]
    targets = np.array([0, 0, 1, 1])

    def run(tri_weight):
        loss, l_tri, l_ide = appearance_loss(
            ag.tensor(g, dtype=np.float64),
            [ag.tensor(p, dtype=np.float64) for p in parts],
            [ag.tensor(l, dtype=np.float64) for l in logits],
            targets, I, V, margin=0.3, epsilon=0.1, tri_weight=tri_weight)
        return float(loss.item()), l_tri, l_ide

    want_tri = _triplet_oracle(g, I, V, 0.3)
    for p in parts:
        want_tri += _triplet_oracle(p, I, V, 0.3)
    want_ide = sum(_ce_oracle(l, targets, 0.1) for l in logits)
    assert want_tri > 0
    got, l_tri, l_ide = run(1.0)
    assert got == pytest.approx(want_tri + want_ide, abs=1e-8)
    assert (l_tri, l_ide) == pytest.approx((want_tri, want_ide), abs=1e-8)
    # the logged triplet value stays unweighted
    got, l_tri, l_ide = run(0.25)
    assert got == pytest.approx(0.25 * want_tri + want_ide, abs=1e-8)
    assert (l_tri, l_ide) == pytest.approx((want_tri, want_ide), abs=1e-8)
    # weight 0: CE only, with no triplet node ("max") in the graph
    feats = [ag.tensor(f, dtype=np.float64, requires_grad=True) for f in [g] + parts]
    loss, l_tri, l_ide = appearance_loss(
        feats[0], feats[1:], [ag.tensor(l, dtype=np.float64, requires_grad=True)
                              for l in logits],
        targets, I, V, margin=0.3, epsilon=0.1, tri_weight=0.0)
    assert (float(loss.item()), l_tri, l_ide) == pytest.approx((want_ide, 0.0, want_ide),
                                                               abs=1e-8)
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            assert node._op != "max" and all(node is not f for f in feats)
            stack.extend(node._parents)


def test_attribute_loss_sums_heads(rng):
    logits = [rng.normal(size=(3, 2)), rng.normal(size=(3, 4))]
    targets = np.array([[0, 3], [1, 0], [0, 2]])
    got = float(attribute_loss([ag.tensor(l, dtype=np.float64) for l in logits],
                               targets, 0.1).item())
    expected = _ce_oracle(logits[0], targets[:, 0], 0.1) \
        + _ce_oracle(logits[1], targets[:, 1], 0.1)
    assert got == pytest.approx(expected, abs=1e-9)


def test_total_loss_weighting():
    l_app = ag.tensor(np.asarray(2.0), dtype=np.float64)
    l_att = ag.tensor(np.asarray(5.0), dtype=np.float64)
    assert float(total_loss(l_app, l_att, 0.3).item()) == pytest.approx(3.5)
    assert float(total_loss(l_app, None, 0.3).item()) == pytest.approx(2.0)
    assert float(total_loss(None, l_att, 0.3).item()) == pytest.approx(1.5)


# --- the one-node triplet against the composed graph it replaced --------------


def _composed_triplet(features, I, V, margin):
    """Batch-hard triplet built from scalar graph nodes (slice, tmax, concat,
    relu, add), one anchor at a time: the reference for the fused node."""
    B = I * V
    dist = pairwise_sqdist(features)
    total = None
    for i in range(I):
        lo, hi = i * V, (i + 1) * V
        for j in range(lo, hi):
            row = dist[j]
            hardest_pos = ag.tmax(row[lo:hi], axis=0)
            negs = ag.concat([row[:lo], row[hi:]], axis=0)
            hardest_neg = -ag.tmax(-negs, axis=0)
            term = ag.relu(margin + hardest_pos - hardest_neg)
            total = term if total is None else total + term
    return total


@pytest.mark.parametrize("I", [2, 3, 4])
@pytest.mark.parametrize("V", [2, 3, 4])
def test_triplet_gradient_matches_composed_graph_with_ties(I, V):
    rng = np.random.default_rng(10 * I + V)
    for _ in range(6):
        # small integer coordinates make exact distance ties common:
        # equidistant negatives and, with the copied rows, equal positives
        feats = rng.integers(-2, 3, size=(I * V, 3)).astype(np.float64)
        feats[1] = feats[0]
        feats[-1] = feats[V]
        margin = float(rng.choice([0.5, 3.0, 20.0]))
        got_loss, got = _triplet_grad(triplet_batch_hard, feats, I, V, margin)
        want_loss, want = _triplet_grad(_composed_triplet, feats, I, V, margin)
        assert got_loss == want_loss
        np.testing.assert_array_equal(got, want)


def test_triplet_builds_one_node():
    f = ag.tensor(np.random.default_rng(3).normal(size=(8, 5)), requires_grad=True)
    out = triplet_batch_hard(f, 4, 2, 0.3)
    assert out._op == "max" and out._parents == (f,)
