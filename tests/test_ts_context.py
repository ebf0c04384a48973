"""Oracle tests for the two-axis recurrence: every op is compared against an
independent scalar-loop re-implementation on random small instances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talnet import autograd as ag
from talnet.gradcheck import grad_check
from talnet.losses import ce_label_smooth
from talnet.ts_context import (AttentionScorer, AttributeHeads, TSGRUCell,
                               TemporalSemanticBlock, _cell_arrays, _step,
                               attribute_readout, build_context, first_pass,
                               second_pass, ts_gru_step)

from oracle_ops import tanh, zeros
from test_appearance import _assert_same, _values_and_grads

# --- scalar-loop oracles (no autograd, plain numpy) ----------------------


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def _affine(lin, x):
    return x @ lin.weight.data.T + lin.bias.data


def _cell_oracle(cell, v, h_attr, h_time):
    xa = np.concatenate([h_attr, v], axis=-1)
    xt = np.concatenate([h_time, v], axis=-1)
    z_a = _sig(_affine(cell.Wz_A, xa))
    z_t = _sig(_affine(cell.Wz_T, xt))
    r_a = _sig(_affine(cell.Wr_A, xa))
    r_t = _sig(_affine(cell.Wr_T, xt))
    cand = np.tanh(_affine(cell.Wh, np.concatenate([r_a * h_attr, r_t * h_time, v], axis=-1)))
    return z_a, z_t, cand


def _step_oracle(cell, v, h_attr, h_time):
    z_a, z_t, cand = _cell_oracle(cell, v, h_attr, h_time)
    return z_a * h_attr + z_t * h_time + (1 - z_a - z_t) * cand


def _first_pass_oracle(cell, v, order="raster"):
    B, N, T, _ = v.shape
    d = cell.hidden_dim
    h = np.zeros((B, N, T, d))
    steps = [(a, t) for a in range(N) for t in range(T)]
    if order == "transposed":
        steps = [(a, t) for t in range(T) for a in range(N)]
    for a, t in steps:
        h_attr = h[:, a - 1, t] if a > 0 else np.zeros((B, d))
        h_time = h[:, a, t - 1] if t > 0 else np.zeros((B, d))
        h[:, a, t] = _step_oracle(cell, v[:, a, t], h_attr, h_time)
    return h


def _context_oracle(h):
    B, N, T, d = h.shape
    f_s = np.zeros((B, N, d))
    f_t = np.zeros((B, T, d))
    for b in range(B):
        for a in range(N):
            for t in range(T):
                f_s[b, a] += h[b, a, t] / T
                f_t[b, t] += h[b, a, t] / N
    return f_s, f_t


def _scores_oracle(scorer, h, f_s, f_t):
    B, N, T, d = h.shape
    e_s = np.zeros((B, N, T))
    e_t = np.zeros((B, N, T))
    for b in range(B):
        for a in range(N):
            for t in range(T):
                xs = np.concatenate([h[b, a, t], f_s[b, a]])
                xt = np.concatenate([h[b, a, t], f_t[b, t]])
                e_s[b, a, t] = _affine(scorer.Wa1, np.maximum(_affine(scorer.Wa2, xs), 0))[0]
                e_t[b, a, t] = _affine(scorer.Wt1, np.maximum(_affine(scorer.Wt2, xt), 0))[0]
    a_s = np.exp(e_s) / np.exp(e_s).sum(axis=1, keepdims=True)
    a_t = np.exp(e_t) / np.exp(e_t).sum(axis=2, keepdims=True)
    return a_s, a_t


def _second_pass_oracle(cell, v, a_s, a_t):
    B, N, T, _ = v.shape
    d = cell.hidden_dim
    h = np.zeros((B, N, T, d))
    for a in range(N):
        for t in range(T):
            h_attr = h[:, a - 1, t] if a > 0 else np.zeros((B, d))
            h_time = h[:, a, t - 1] if t > 0 else np.zeros((B, d))
            z_a, z_t, cand = _cell_oracle(cell, v[:, a, t], h_attr, h_time)
            wa = a_s[:, a, t][:, None] * z_a
            wt = a_t[:, a, t][:, None] * z_t
            h[:, a, t] = wa * h_attr + wt * h_time + (1 - wa - wt) * cand
    return h


def _cell64(din, d, seed):
    return TSGRUCell(din, d).initialize(seed, dtype=np.float64)


# --- ts_gru_step ---------------------------------------------------------


def test_step_zero_weights_averages_predecessors():
    cell = _cell64(3, 4, 0)
    for p in cell.parameters():
        p.data[:] = 0.0
    h_attr = ag.tensor(np.array([[1.0, 2.0, 3.0, 4.0]]), dtype=np.float64)
    h_time = ag.tensor(np.array([[5.0, 6.0, 7.0, 8.0]]), dtype=np.float64)
    v = ag.tensor(np.zeros((1, 3)), dtype=np.float64)
    out = ts_gru_step(cell, v, h_attr, h_time)
    # z_A = z_T = sigma(0) = 0.5, candidate = tanh(0) = 0
    np.testing.assert_allclose(out.data, 0.5 * (h_attr.data + h_time.data))


def test_step_zero_everything_gives_zero():
    cell = _cell64(3, 4, 0)
    for p in cell.parameters():
        p.data[:] = 0.0
    z = ag.tensor(np.zeros((1, 4)), dtype=np.float64)
    v = ag.tensor(np.zeros((1, 3)), dtype=np.float64)
    np.testing.assert_array_equal(ts_gru_step(cell, v, z, z).data, 0.0)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_step_matches_scalar_oracle(seed):
    rng = np.random.default_rng(seed)
    cell = _cell64(3, 4, seed % 997)
    v = ag.tensor(rng.normal(size=(2, 3)), dtype=np.float64)
    h_attr = ag.tensor(rng.normal(size=(2, 4)), dtype=np.float64)
    h_time = ag.tensor(rng.normal(size=(2, 4)), dtype=np.float64)
    out = ts_gru_step(cell, v, h_attr, h_time)
    expected = _step_oracle(cell, v.data, h_attr.data, h_time.data)
    np.testing.assert_allclose(out.data, expected, atol=1e-6)


def test_gates_strictly_in_unit_interval(rng):
    cell = _cell64(3, 4, 7)
    v = rng.normal(scale=3.0, size=(5, 3))
    h = rng.normal(scale=3.0, size=(5, 4))
    w_x, b_x, u_a, u_t, u_h = _cell_arrays(cell)
    _, act, _ = _step(v @ w_x.T + b_x, h, h, u_a, u_t, u_h)
    gates = act[:, :16]  # zA, rA, zT, rT
    assert np.all(gates > 0) and np.all(gates < 1)


# --- first_pass -----------------------------------------------------------


def test_first_pass_single_attribute_is_temporal_gru():
    cell = _cell64(3, 4, 1)
    rng = np.random.default_rng(2)
    v = ag.tensor(rng.normal(size=(1, 1, 5, 3)), dtype=np.float64)
    grid = first_pass(cell, v).data
    # manual temporal-only recurrence with zero attribute predecessor
    h = np.zeros((1, 4))
    for t in range(5):
        h = _step_oracle(cell, v.data[:, 0, t], np.zeros((1, 4)), h)
        np.testing.assert_allclose(grid[:, 0, t], h, atol=1e-10)


def test_first_pass_single_frame_is_attribute_recurrence():
    cell = _cell64(3, 4, 1)
    rng = np.random.default_rng(3)
    v = ag.tensor(rng.normal(size=(1, 5, 1, 3)), dtype=np.float64)
    grid = first_pass(cell, v).data
    h = np.zeros((1, 4))
    for a in range(5):
        h = _step_oracle(cell, v.data[:, a, 0], h, np.zeros((1, 4)))
        np.testing.assert_allclose(grid[:, a, 0], h, atol=1e-10)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_first_pass_matches_oracle_both_orders(seed):
    rng = np.random.default_rng(seed)
    N, T = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    cell = _cell64(3, 4, seed % 997)
    v = ag.tensor(rng.normal(size=(2, N, T, 3)), dtype=np.float64)
    grid = first_pass(cell, v).data
    np.testing.assert_allclose(grid, _first_pass_oracle(cell, v.data), atol=1e-6)
    np.testing.assert_allclose(grid, _first_pass_oracle(cell, v.data, order="transposed"),
                               atol=1e-6)


# --- context memory --------------------------------------------------------


def test_context_constant_grid():
    h = ag.tensor(np.full((2, 3, 4, 5), 1.5), dtype=np.float64)
    f_s, f_t = build_context(h)
    np.testing.assert_allclose(f_s.data, 1.5)
    np.testing.assert_allclose(f_t.data, 1.5)


def test_context_single_frame():
    rng = np.random.default_rng(4)
    h = ag.tensor(rng.normal(size=(2, 3, 1, 5)), dtype=np.float64)
    f_s, _ = build_context(h)
    np.testing.assert_allclose(f_s.data, h.data[:, :, 0, :])


@given(st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_context_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    h = ag.tensor(rng.normal(size=(2, 3, 4, 5)), dtype=np.float64)
    f_s, f_t = build_context(h)
    es, et = _context_oracle(h.data)
    np.testing.assert_allclose(f_s.data, es, atol=1e-10)
    np.testing.assert_allclose(f_t.data, et, atol=1e-10)


# --- attention scores -------------------------------------------------------


def _scorer64(d, seed):
    return AttentionScorer(d, d).initialize(seed, dtype=np.float64)


def test_scores_uniform_across_identical_attributes():
    scorer = _scorer64(4, 5)
    rng = np.random.default_rng(6)
    row = rng.normal(size=(2, 1, 4, 4))
    h = ag.tensor(np.repeat(row, 3, axis=1), dtype=np.float64)  # same h for all attrs
    f_s, f_t = build_context(h)
    a_s, _, _, _ = scorer(h, f_s, f_t)
    np.testing.assert_allclose(a_s.data, 1 / 3, atol=1e-10)


def test_scores_uniform_across_identical_frames():
    scorer = _scorer64(4, 5)
    rng = np.random.default_rng(7)
    col = rng.normal(size=(2, 3, 1, 4))
    h = ag.tensor(np.repeat(col, 5, axis=2), dtype=np.float64)
    f_s, f_t = build_context(h)
    _, a_t, _, _ = scorer(h, f_s, f_t)
    np.testing.assert_allclose(a_t.data, 1 / 5, atol=1e-10)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_scores_match_loop_oracle_and_normalize(seed):
    rng = np.random.default_rng(seed)
    scorer = _scorer64(4, seed % 997)
    h = ag.tensor(rng.normal(size=(2, 3, 4, 4)), dtype=np.float64)
    f_s, f_t = build_context(h)
    a_s, a_t, _, _ = scorer(h, f_s, f_t)
    os_, ot_ = _scores_oracle(scorer, h.data, f_s.data, f_t.data)
    np.testing.assert_allclose(a_s.data, os_, atol=1e-6)
    np.testing.assert_allclose(a_t.data, ot_, atol=1e-6)
    np.testing.assert_allclose(a_s.data.sum(axis=1), 1.0, atol=1e-6)
    np.testing.assert_allclose(a_t.data.sum(axis=2), 1.0, atol=1e-6)
    assert np.all(a_s.data >= 0) and np.all(a_t.data >= 0)


# --- second pass -------------------------------------------------------------


def test_second_pass_zero_scores_collapse_to_candidate():
    cell = _cell64(4, 4, 8)
    rng = np.random.default_rng(9)
    v = ag.tensor(rng.normal(size=(2, 1, 1, 4)), dtype=np.float64)
    zeros = ag.tensor(np.zeros((2, 1, 1)), dtype=np.float64)
    out = second_pass(cell, v, zeros, zeros).data
    _, _, cand = _cell_oracle(cell, v.data[:, 0, 0], np.zeros((2, 4)), np.zeros((2, 4)))
    np.testing.assert_allclose(out[:, 0, 0], cand, atol=1e-10)


def test_second_pass_single_cell_unit_scores():
    cell = _cell64(4, 4, 8)
    rng = np.random.default_rng(10)
    v = ag.tensor(rng.normal(size=(2, 1, 1, 4)), dtype=np.float64)
    ones = ag.tensor(np.ones((2, 1, 1)), dtype=np.float64)
    out = second_pass(cell, v, ones, ones).data
    z_a, z_t, cand = _cell_oracle(cell, v.data[:, 0, 0], np.zeros((2, 4)), np.zeros((2, 4)))
    np.testing.assert_allclose(out[:, 0, 0], (1 - z_a - z_t) * cand, atol=1e-10)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_second_pass_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    cell = _cell64(4, 4, seed % 997)
    v = ag.tensor(rng.normal(size=(2, 2, 3, 4)), dtype=np.float64)
    raw_s = rng.normal(size=(2, 2, 3))
    a_s = np.exp(raw_s) / np.exp(raw_s).sum(axis=1, keepdims=True)
    raw_t = rng.normal(size=(2, 2, 3))
    a_t = np.exp(raw_t) / np.exp(raw_t).sum(axis=2, keepdims=True)
    out = second_pass(cell, v, ag.tensor(a_s, dtype=np.float64),
                      ag.tensor(a_t, dtype=np.float64)).data
    np.testing.assert_allclose(out, _second_pass_oracle(cell, v.data, a_s, a_t), atol=1e-6)


@pytest.mark.parametrize("N,T", [(4, 2), (2, 5), (3, 3)])
def test_wavefront_matches_loop_oracles_on_rectangular_lattices(N, T):
    rng = np.random.default_rng(N * 10 + T)
    cell1, cell2 = _cell64(3, 4, N), _cell64(4, 4, T)
    v = ag.tensor(rng.normal(size=(2, N, T, 3)), dtype=np.float64)
    h1 = first_pass(cell1, v)
    np.testing.assert_allclose(h1.data, _first_pass_oracle(cell1, v.data), atol=1e-10)
    a_s = rng.uniform(size=(2, N, T))
    a_t = rng.uniform(size=(2, N, T))
    h2 = second_pass(cell2, h1, ag.tensor(a_s, dtype=np.float64),
                     ag.tensor(a_t, dtype=np.float64))
    np.testing.assert_allclose(h2.data, _second_pass_oracle(cell2, h1.data, a_s, a_t),
                               atol=1e-10)


@pytest.mark.parametrize("pass_name", ["first_pass", "second_pass"])
def test_non_finite_cell_is_named(pass_name):
    N, T = 3, 4
    cell = _cell64(4, 4, 12)
    v = np.random.default_rng(13).normal(size=(2, N, T, 4))
    v[1, 2, 1, 0] = np.nan  # cell (a=2, t=1); the cells it feeds come later
    v = ag.tensor(v, dtype=np.float64)
    ones = ag.tensor(np.ones((2, N, T)), dtype=np.float64)
    with pytest.raises(ag.NonFiniteError, match=rf"{pass_name} step \(a=2, t=1\)"):
        if pass_name == "first_pass":
            first_pass(cell, v)
        else:
            second_pass(cell, v, ones, ones)


# --- fused lattice node vs the composed graph -------------------------------


def _composed_pass(cell, v, a_s=None, a_t=None):
    """A lattice pass built from elementwise, concat, slice and Linear graph
    nodes, one cell at a time in raster order: the reference for the
    one-node passes."""
    B, N, T, _ = v.shape
    zero = zeros((B, cell.hidden_dim), dtype=v.dtype)
    h = {}
    for a in range(N):
        for t in range(T):
            h_attr = h[a - 1, t] if a > 0 else zero
            h_time = h[a, t - 1] if t > 0 else zero
            x = v[:, a, t, :]
            xa = ag.concat([h_attr, x], axis=1)
            xt = ag.concat([h_time, x], axis=1)
            z_a = ag.sigmoid(cell.Wz_A(xa))
            z_t = ag.sigmoid(cell.Wz_T(xt))
            r_a = ag.sigmoid(cell.Wr_A(xa))
            r_t = ag.sigmoid(cell.Wr_T(xt))
            cand = tanh(cell.Wh(ag.concat([r_a * h_attr, r_t * h_time, x], axis=1)))
            if a_s is not None:
                z_a = a_s[:, a, t].reshape((B, 1)) * z_a
                z_t = a_t[:, a, t].reshape((B, 1)) * z_t
            h[a, t] = z_a * h_attr + z_t * h_time + (1.0 - z_a - z_t) * cand
    rows = [ag.stack([h[a, t] for t in range(T)], axis=1) for a in range(N)]
    return ag.stack(rows, axis=1)


@pytest.mark.parametrize("scored", [False, True], ids=["first_pass", "second_pass"])
@pytest.mark.parametrize("N,T", [(3, 5), (5, 3), (1, 4)])
def test_pass_matches_composed_graph_values_and_gradients(N, T, scored):
    rng = np.random.default_rng(100 * N + T)
    cell = _cell64(3, 4, N + T)
    v = ag.tensor(rng.normal(size=(2, N, T, 3)), requires_grad=True, dtype=np.float64)
    leaves = cell.parameters() + [v]
    args = ()
    if scored:
        args = tuple(ag.tensor(rng.uniform(size=(2, N, T)), requires_grad=True,
                               dtype=np.float64) for _ in range(2))
        leaves += list(args)

    def fused():
        return second_pass(cell, v, *args) if scored else first_pass(cell, v)

    got = _values_and_grads(lambda: [fused()], leaves)
    want = _values_and_grads(lambda: [_composed_pass(cell, v, *args)], leaves)
    assert all(g is not None for g in want[1])
    _assert_same(got[0], want[0])
    _assert_same(got[1], want[1])


def test_pass_is_one_node_and_a_leaf_under_no_grad():
    rng = np.random.default_rng(21)
    cell = _cell64(3, 4, 0)
    v = ag.tensor(rng.normal(size=(2, 3, 2, 3)), requires_grad=True, dtype=np.float64)
    a_s, a_t = (ag.tensor(rng.uniform(size=(2, 3, 2)), dtype=np.float64) for _ in range(2))
    for run in (lambda: first_pass(cell, v), lambda: second_pass(cell, v, a_s, a_t)):
        out = run()
        assert out._op == "ts_gru" and out._parents[0] is v
        assert set(map(id, cell.parameters())) <= set(map(id, out._parents))
        with ag.no_grad():
            leaf = run()
        assert leaf._backward is None and leaf._parents == () and not leaf.requires_grad
        np.testing.assert_array_equal(leaf.data, out.data)


# --- readout and heads --------------------------------------------------------


def test_readout_last_frame_column(rng):
    h = ag.tensor(rng.normal(size=(2, 3, 4, 5)), dtype=np.float64)
    out = attribute_readout(h)
    assert out.shape == (2, 3, 5)
    np.testing.assert_array_equal(out.data, h.data[:, :, 3, :])
    # T = 1 edge case
    h1 = ag.tensor(rng.normal(size=(2, 3, 1, 5)), dtype=np.float64)
    np.testing.assert_array_equal(attribute_readout(h1).data, h1.data[:, :, 0, :])


def test_attribute_heads_zero_weights_uniform(rng):
    heads = AttributeHeads(5, [3, 4]).initialize(0, dtype=np.float64)
    for p in heads.parameters():
        p.data[:] = 0.0
    readout = ag.tensor(rng.normal(size=(2, 2, 5)), dtype=np.float64)
    logits = heads(readout)
    assert len(logits) == 2
    assert logits[0].shape == (2, 3) and logits[1].shape == (2, 4)
    for lg in logits:
        sm = ag.softmax(lg, axis=1).data
        np.testing.assert_allclose(sm, 1 / lg.shape[1])


def test_flattened_attribute_feature_length(rng):
    block = TemporalSemanticBlock(3, 4, 4, [2, 3, 2]).initialize(1, dtype=np.float64)
    v = ag.tensor(rng.normal(size=(2, 3, 4, 3)), dtype=np.float64)
    readout, logits, scores = block(v)
    assert readout.shape == (2, 3, 4)
    flat = readout.reshape((2, -1))
    assert flat.shape == (2, 12)  # N * d
    assert [lg.shape[1] for lg in logits] == [2, 3, 2]


def test_whole_block_gradcheck_with_head_ce():
    block = TemporalSemanticBlock(3, 8, 8, [3, 2, 4]).initialize(2, dtype=np.float64)
    rng = np.random.default_rng(20)
    v = ag.tensor(rng.normal(size=(2, 3, 4, 3)), dtype=np.float64)
    targets = np.array([[1, 0, 3], [2, 1, 0]])

    def f():
        _, logits, _ = block(v)
        total = None
        for n, lg in enumerate(logits):
            term = ce_label_smooth(lg, targets[:, n], epsilon=0.1)
            total = term if total is None else total + term
        return total

    report = grad_check(f, block.parameters(), max_coords_per_param=25)
    assert report.passed, report.summary()
