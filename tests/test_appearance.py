"""Oracle tests for the appearance branch: stripes, GRU encoding, pooling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talnet import autograd as ag
from talnet.appearance import AppearanceBranch, GRUCell, gru_encode, temporal_pool
from talnet.gradcheck import grad_check
from talnet.losses import ce_label_smooth


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def _affine(lin, x):
    return x @ lin.weight.data.T + lin.bias.data


def _gru_oracle(cell, seq):
    """Plain-numpy scalar recurrence over (B, T, din)."""
    B, T, _ = seq.shape
    h = np.zeros((B, cell.hidden_dim))
    out = np.zeros((B, T, cell.hidden_dim))
    for t in range(T):
        joint = np.concatenate([h, seq[:, t]], axis=1)
        z = _sig(_affine(cell.Wz, joint))
        r = _sig(_affine(cell.Wr, joint))
        cand = np.tanh(_affine(cell.Wh, np.concatenate([r * h, seq[:, t]], axis=1)))
        h = (1 - z) * h + z * cand
        out[:, t] = h
    return out


# --- composed-graph references for the fused nodes ------------------------


def _composed_gru_encode(cell, seq):
    """The GRU built from elementwise, concat and Linear graph nodes, one
    step at a time: the reference for the one-node `gru_encode`."""
    B, T, _ = seq.shape
    h = ag.zeros((B, cell.hidden_dim), dtype=seq.dtype)
    states = []
    for t in range(T):
        x = seq[:, t, :]
        joint = ag.concat([h, x], axis=1)
        z = ag.sigmoid(cell.Wz(joint))
        r = ag.sigmoid(cell.Wr(joint))
        cand = ag.tanh(cell.Wh(ag.concat([r * h, x], axis=1)))
        h = (1.0 - z) * h + z * cand
        states.append(h)
    return ag.stack(states, axis=1)


def _composed_branch(br, fm, rng):
    """The branch with one spatial mean per stripe and one GRU run per
    stripe, as composed graph nodes."""
    nd = len(fm.shape)

    def spatial_mean(x):
        return ag.tmean(ag.tmean(x, axis=nd - 1), axis=nd - 2)

    def encode(perframe, cell):
        states = _composed_gru_encode(cell, perframe) if br.use_gru else perframe
        return temporal_pool(states, br.pooling, rng)

    g_clip = encode(ag.relu(br.global_reduce(spatial_mean(fm))), br.global_gru)
    band = fm.shape[-2] // br.n_stripes
    parts = [encode(ag.relu(br.part_reduce(spatial_mean(fm[..., k * band:(k + 1) * band, :]))),
                    br.local_gru)
             for k in range(br.n_stripes)]
    logits = [br.global_head(g_clip)] + [h(p) for h, p in zip(br.part_heads, parts)]
    return g_clip, parts, logits


def _values_and_grads(fn, leaves):
    """Values of the outputs `fn` returns, and the gradients of the sum of
    sum(out * w) with fixed random weights w, for each of `leaves`."""
    for leaf in leaves:
        leaf.grad = None
    outs = fn()
    total = None
    for out in outs:
        w = np.random.default_rng(len(out.data.ravel())).normal(size=out.shape)
        term = ag.tsum(out * w)
        total = term if total is None else total + term
    total.backward()
    return [o.data for o in outs], [leaf.grad for leaf in leaves]


def _assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:  # a parameter the graph does not use (no GRU)
            assert g is None
        else:
            np.testing.assert_allclose(g, w, rtol=1e-10)


# --- fused GRU node ----------------------------------------------------------


def test_gru_encode_matches_composed_graph_values_and_gradients(rng):
    cell = GRUCell(4, 5).initialize(3, dtype=np.float64)
    seq = ag.tensor(rng.normal(size=(3, 5, 4)), requires_grad=True, dtype=np.float64)
    leaves = cell.parameters() + [seq]
    got = _values_and_grads(lambda: [gru_encode(cell, seq)], leaves)
    want = _values_and_grads(lambda: [_composed_gru_encode(cell, seq)], leaves)
    _assert_same(got[0], want[0])
    _assert_same(got[1], want[1])


def test_gru_encode_is_one_node_and_a_leaf_under_no_grad(rng):
    cell = GRUCell(3, 4).initialize(0, dtype=np.float64)
    seq = ag.tensor(rng.normal(size=(2, 3, 3)), requires_grad=True, dtype=np.float64)
    out = gru_encode(cell, seq)
    assert out._op == "gru" and out._parents[0] is seq
    assert set(map(id, out._parents[1:])) == set(map(id, cell.parameters()))
    with ag.no_grad():
        leaf = gru_encode(cell, seq)
    assert leaf._backward is None and leaf._parents == () and not leaf.requires_grad
    np.testing.assert_array_equal(leaf.data, out.data)


@pytest.mark.parametrize("pooling", ["mean", "max", "random-sample"])
@pytest.mark.parametrize("use_gru", [True, False])
def test_branch_matches_per_stripe_runs(pooling, use_gru, rng):
    br = _branch(pooling=pooling, use_gru=use_gru)
    fm = ag.tensor(rng.normal(size=(3, 4, 6, 8, 4)), requires_grad=True, dtype=np.float64)
    leaves = br.parameters() + [fm]

    def run(branch_fn):
        g, parts, logits = branch_fn(br, fm, np.random.default_rng(5))
        return [g] + parts + logits

    got = _values_and_grads(lambda: run(AppearanceBranch.__call__), leaves)
    want = _values_and_grads(lambda: run(_composed_branch), leaves)
    _assert_same(got[0], want[0])
    _assert_same(got[1], want[1])


def test_branch_requires_divisible_height():
    br = _branch()
    fm = ag.tensor(np.zeros((1, 2, 6, 6, 4), np.float64), dtype=np.float64)
    with pytest.raises(ag.ShapeError):
        br(fm)


# --- GRU --------------------------------------------------------------------


def test_gru_zero_weights_keeps_zero_state():
    cell = GRUCell(3, 4).initialize(0, dtype=np.float64)
    for p in cell.parameters():
        p.data[:] = 0.0
    seq = ag.tensor(np.random.default_rng(0).normal(size=(2, 5, 3)), dtype=np.float64)
    states = gru_encode(cell, seq)
    # candidate tanh(0) = 0 and h_0 = 0, so every state stays 0
    np.testing.assert_array_equal(states.data, 0.0)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_gru_matches_scalar_oracle(seed):
    rng = np.random.default_rng(seed)
    cell = GRUCell(3, 4).initialize(seed % 997, dtype=np.float64)
    seq = ag.tensor(rng.normal(size=(2, 4, 3)), dtype=np.float64)
    np.testing.assert_allclose(gru_encode(cell, seq).data, _gru_oracle(cell, seq.data),
                               atol=1e-6)


def test_gru_order_sensitivity(rng):
    cell = GRUCell(3, 4).initialize(1, dtype=np.float64)
    seq = rng.normal(size=(1, 6, 3))
    fwd = gru_encode(cell, ag.tensor(seq, dtype=np.float64)).data[:, -1]
    rev = gru_encode(cell, ag.tensor(seq[:, ::-1].copy(), dtype=np.float64)).data[:, -1]
    assert not np.allclose(fwd, rev)


def test_gru_batch_independence(rng):
    cell = GRUCell(3, 4).initialize(2, dtype=np.float64)
    seq = rng.normal(size=(3, 4, 3))
    full = gru_encode(cell, ag.tensor(seq, dtype=np.float64)).data
    solo = gru_encode(cell, ag.tensor(seq[1:2], dtype=np.float64)).data
    np.testing.assert_allclose(full[1:2], solo, atol=1e-12)


# --- pooling -----------------------------------------------------------------


def test_pool_mean_and_max_examples():
    states = ag.tensor(np.array([[[1.0, -2.0], [3.0, 0.0], [5.0, 4.0]]]),
                       dtype=np.float64)
    np.testing.assert_allclose(temporal_pool(states, "mean").data, [[3.0, 2 / 3]])
    np.testing.assert_allclose(temporal_pool(states, "max").data, [[5.0, 4.0]])


def test_pool_random_sample_selects_a_frame(rng):
    states = ag.tensor(np.random.default_rng(0).normal(size=(2, 5, 3)), dtype=np.float64)
    out = temporal_pool(states, "random-sample", rng=np.random.default_rng(3)).data
    matches = [np.allclose(out, states.data[:, t]) for t in range(5)]
    assert sum(matches) == 1


def test_pool_random_sample_needs_rng():
    states = ag.tensor(np.zeros((1, 2, 3), np.float32))
    with pytest.raises(ValueError):
        temporal_pool(states, "random-sample")
    with pytest.raises(ValueError):
        temporal_pool(states, "median")


def test_pool_modes_agree_on_constant_sequence():
    states = ag.tensor(np.full((2, 4, 3), 1.25), dtype=np.float64)
    for mode in ("mean", "max", "random-sample"):
        out = temporal_pool(states, mode, rng=np.random.default_rng(0)).data
        np.testing.assert_allclose(out, 1.25)


# --- branch ---------------------------------------------------------------


def _branch(**kw):
    defaults = dict(in_channels=6, d_g=5, d_p=4, n_stripes=4, num_classes=7)
    defaults.update(kw)
    return AppearanceBranch(**defaults).initialize(0, dtype=np.float64)


def test_branch_output_shapes(rng):
    br = _branch()
    fm = ag.tensor(rng.normal(size=(3, 2, 6, 8, 4)), dtype=np.float64)
    g, parts, logits = br(fm)
    assert g.shape == (3, 5)
    assert len(parts) == 4 and all(p.shape == (3, 4) for p in parts)
    assert len(logits) == 5 and all(lg.shape == (3, 7) for lg in logits)
    feat = br.feature(g, parts)
    assert feat.shape == (3, 5 + 4 * 4)
    np.testing.assert_array_equal(feat.data[:, :5], g.data)


def test_branch_frame_permutation_changes_gru_but_not_meanpool(rng):
    fm = rng.normal(size=(2, 5, 6, 8, 4))
    perm = np.array([4, 2, 0, 3, 1])
    with_gru = _branch(use_gru=True)
    g1, _, _ = with_gru(ag.tensor(fm, dtype=np.float64))
    g2, _, _ = with_gru(ag.tensor(fm[:, perm], dtype=np.float64))
    assert not np.allclose(g1.data, g2.data)

    no_gru = _branch(use_gru=False)
    g1, p1, _ = no_gru(ag.tensor(fm, dtype=np.float64))
    g2, p2, _ = no_gru(ag.tensor(fm[:, perm], dtype=np.float64))
    np.testing.assert_allclose(g1.data, g2.data, atol=1e-10)
    for a, b in zip(p1, p2):
        np.testing.assert_allclose(a.data, b.data, atol=1e-10)


def test_branch_random_pooling_deterministic_given_rng(rng):
    fm = ag.tensor(rng.normal(size=(2, 4, 6, 8, 4)), dtype=np.float64)
    br = _branch(pooling="random-sample")
    a, _, _ = br(fm, rng=np.random.default_rng(7))
    b, _, _ = br(fm, rng=np.random.default_rng(7))
    np.testing.assert_array_equal(a.data, b.data)


def test_branch_gradcheck_with_losses(rng):
    br = _branch(d_g=4, d_p=3, num_classes=3)
    fm = ag.tensor(rng.normal(scale=0.5, size=(2, 3, 6, 8, 4)), dtype=np.float64)
    targets = np.array([0, 2])

    def f():
        g, parts, logits = br(fm)
        total = ag.tmean(ag.square(br.feature(g, parts)))
        for lg in logits:
            total = total + ce_label_smooth(lg, targets, epsilon=0.1)
        return total

    report = grad_check(f, br.parameters(), max_coords_per_param=20)
    assert report.passed, report.summary()
