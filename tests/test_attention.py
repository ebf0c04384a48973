import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talnet import autograd as ag
from talnet.attention import (AffineParams, SpatialAttentionBlock, adaptive_mean_pool,
                              region_pool, region_vertices)
from talnet.gradcheck import grad_check


def _block(dtype=np.float32, seed=0, n_attributes=2, cf=6, use_attention=True):
    return SpatialAttentionBlock(cf, n_attributes, d_v=5, frame_hw=(32, 16),
                                 use_attention=use_attention).initialize(seed, dtype=dtype)


def _squash(raw):
    """`affine_tensors` of one float64 raw 4-vector, as AffineParams."""
    block = _block(dtype=np.float64)
    raw = ag.tensor(np.asarray(raw, dtype=np.float64)[None], dtype=np.float64)
    return AffineParams(*(float(v.data[0]) for v in block.affine_tensors(raw)))


def _vertices_oracle(p, H, W):
    # independent 2x3 affine matrix multiply over the frame corners
    M = np.array([[p.s_x, 0.0, p.t_x], [0.0, p.s_y, p.t_y]])
    corners = np.array([[0, 0, 1], [H, 0, 1], [0, W, 1], [H, W, 1]], dtype=float)
    return (M @ corners.T).T


def test_identity_affine_gives_frame_corners():
    region = region_vertices(AffineParams(1.0, 1.0, 0.0, 0.0), 32, 16)
    assert region.vertices == [(0, 0), (32, 0), (0, 16), (32, 16)]
    assert region.normalized_bounds == (0.0, 0.0, 1.0, 1.0)


def test_half_scale_vertices():
    region = region_vertices(AffineParams(0.5, 0.5, 0.0, 0.0), 32, 16)
    assert region.vertices == [(0.0, 0.0), (16.0, 0.0), (0.0, 8.0), (16.0, 8.0)]


def test_quarter_scale_translated_vertices():
    region = region_vertices(AffineParams(0.25, 0.25, 8.0, 4.0), 32, 16)
    assert region.vertices == [(8.0, 4.0), (16.0, 4.0), (8.0, 8.0), (16.0, 8.0)]


@given(st.floats(0.01, 1.0), st.floats(0.01, 1.0),
       st.floats(0.0, 30.0), st.floats(0.0, 15.0))
@settings(max_examples=100, deadline=None)
def test_vertices_match_matrix_oracle(s_x, s_y, t_x, t_y):
    p = AffineParams(s_x, s_y, t_x, t_y)
    region = region_vertices(p, 32, 16)
    np.testing.assert_allclose(np.array(region.vertices), _vertices_oracle(p, 32, 16),
                               rtol=1e-12, atol=1e-12)


@given(st.lists(st.floats(-50.0, 50.0), min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_squashed_region_always_in_bounds(raw):
    p = _squash(raw)
    region = region_vertices(p, 32, 16)
    top, left, bottom, right = region.normalized_bounds
    assert -1e-9 <= top <= bottom <= 1 + 1e-9
    assert -1e-9 <= left <= right <= 1 + 1e-9
    for x, y in region.vertices:
        assert -1e-6 <= x <= 32 + 1e-6
        assert -1e-6 <= y <= 16 + 1e-6


def test_squash_limits_full_frame():
    p = _squash([50.0, 50.0, -50.0, -50.0])
    assert p.s_x == pytest.approx(1.0) and p.s_y == pytest.approx(1.0)
    assert p.t_x == pytest.approx(0.0, abs=1e-6) and p.t_y == pytest.approx(0.0, abs=1e-6)


def test_squash_zero_weight_bias_90_percent():
    # raw (b, b, 0, 0) with sigma(b) = 0.9 -> 90% scale anchored near origin
    b = np.log(0.9 / 0.1)
    p = _squash([b, b, 0.0, 0.0])
    assert p.s_x == pytest.approx(0.9)
    assert p.t_x == pytest.approx(0.5 * 32 * 0.1)  # sigma(0)=0.5 of the slack


def test_primitive_map_channels_64_and_zero_weights():
    block = _block(cf=10)
    fm = ag.tensor(np.random.default_rng(0).normal(size=(3, 10, 8, 4)).astype(np.float32))
    out = block.primitive_map(fm)
    assert out.shape == (3, 64, 8, 4)
    block.primitive.weight.data[:] = 0.0
    np.testing.assert_array_equal(block.primitive_map(fm).data, 0.0)


def test_primitive_map_identity_like_weights():
    block = _block(cf=64)
    w = np.zeros((64, 64, 1, 1), np.float32)
    w[np.arange(64), np.arange(64), 0, 0] = 1.0
    block.primitive.weight.data[:] = w
    block.primitive.bias.data[:] = 0.0
    fm = ag.tensor(np.random.default_rng(1).normal(size=(2, 64, 8, 4)).astype(np.float32))
    np.testing.assert_allclose(block.primitive_map(fm).data, np.maximum(fm.data, 0.0))


def test_separate_heads_give_independent_params():
    block = _block(n_attributes=2)
    fm = ag.tensor(np.random.default_rng(2).normal(size=(1, 6, 8, 4)).astype(np.float32))
    t_p = block.primitive_map(fm)
    raw0, raw1 = (raw.data for raw in block.raw_affines(t_p))
    assert not np.allclose(raw0, raw1)


def test_fresh_heads_start_at_vertical_strips():
    # head n of N starts at equal-height strip n (top to bottom), full width
    block = _block(n_attributes=4)
    fm = ag.tensor(np.random.default_rng(8).normal(size=(1, 6, 8, 4)).astype(np.float32))
    t_p = block.primitive_map(fm)
    for n, raw in enumerate(block.raw_affines(t_p)):
        p = AffineParams(*(float(v.data[0]) for v in block.affine_tensors(raw)))
        assert p.s_x == pytest.approx(0.25, abs=0.02)
        assert p.s_y > 0.9
        top = p.t_x / 32.0
        assert top == pytest.approx(n / 4.0, abs=0.04)


def test_full_frame_region_equals_global_mean_projection():
    block = _block(dtype=np.float64)
    t_p = ag.tensor(np.random.default_rng(3).normal(size=(2, 64, 8, 4)), dtype=np.float64)
    B = 2
    s = ag.tensor(np.ones(B), dtype=np.float64)
    t = ag.tensor(np.zeros(B), dtype=np.float64)
    out = block.region_feature(t_p, s, s, t, t).data
    expected = block.project(ag.tmean(ag.tmean(t_p, axis=3), axis=2)).data
    np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-12)


def test_constant_map_region_independent():
    block = _block(dtype=np.float64)
    t_p = ag.tensor(np.full((1, 64, 8, 4), 0.7), dtype=np.float64)
    a = block.region_feature(t_p, ag.tensor([0.3], dtype=np.float64),
                             ag.tensor([0.6], dtype=np.float64),
                             ag.tensor([5.0], dtype=np.float64),
                             ag.tensor([2.0], dtype=np.float64)).data
    b = block.region_feature(t_p, ag.tensor([1.0], dtype=np.float64),
                             ag.tensor([1.0], dtype=np.float64),
                             ag.tensor([0.0], dtype=np.float64),
                             ag.tensor([0.0], dtype=np.float64)).data
    np.testing.assert_allclose(a, b, rtol=1e-10)


def test_translation_gradient_nonzero_on_varying_map():
    block = _block(dtype=np.float64)
    t_p = ag.tensor(np.random.default_rng(4).normal(size=(1, 64, 8, 4)), dtype=np.float64)
    t_x = ag.tensor(np.array([3.0]), requires_grad=True)
    out = block.region_feature(t_p, ag.tensor([0.5], dtype=np.float64),
                               ag.tensor([0.5], dtype=np.float64),
                               t_x, ag.tensor([2.0], dtype=np.float64))
    ag.tsum(ag.square(out)).backward()
    assert t_x.grad is not None and abs(t_x.grad[0]) > 0

    # finite-difference agreement through the region pooling
    eps = 1e-6
    def val(tx):
        o = block.region_feature(t_p, ag.tensor([0.5], dtype=np.float64),
                                 ag.tensor([0.5], dtype=np.float64),
                                 ag.tensor([tx], dtype=np.float64),
                                 ag.tensor([2.0], dtype=np.float64))
        return float(ag.tsum(ag.square(o)).item())
    fd = (val(3.0 + eps) - val(3.0 - eps)) / (2 * eps)
    assert fd == pytest.approx(float(t_x.grad[0]), rel=1e-5)


def test_degenerate_region_clamped_to_one_cell():
    block = _block(dtype=np.float64)
    t_p = ag.tensor(np.random.default_rng(5).normal(size=(1, 64, 8, 4)), dtype=np.float64)
    out = block.region_feature(t_p, ag.tensor([1e-6], dtype=np.float64),
                               ag.tensor([1e-6], dtype=np.float64),
                               ag.tensor([0.0], dtype=np.float64),
                               ag.tensor([0.0], dtype=np.float64))
    assert np.all(np.isfinite(out.data))


def _bilinear_oracle(img, r, c):
    """Bilinear sample of img (C, H, W) at an in-bounds point (r, c)."""
    _, H, W = img.shape
    r0, c0 = min(int(np.floor(r)), H - 2), min(int(np.floor(c)), W - 2)
    fr, fc = r - r0, c - c0
    return ((1 - fr) * (1 - fc) * img[:, r0, c0] + (1 - fr) * fc * img[:, r0, c0 + 1]
            + fr * (1 - fc) * img[:, r0 + 1, c0] + fr * fc * img[:, r0 + 1, c0 + 1])


def _region_mean_oracle(t_p, s_x, s_y, t_x, t_y, frame_hw):
    """Scalar loops: mean of the Hm x Wm border-clamped bilinear samples."""
    H, W = frame_hw
    B, C, Hm, Wm = t_p.shape
    out = np.zeros((B, C))
    for b in range(B):
        top, left = t_x[b] * (Hm - 1) / H, t_y[b] * (Wm - 1) / W
        ext_r, ext_c = max(s_x[b] * (Hm - 1), 1.0), max(s_y[b] * (Wm - 1), 1.0)
        for i in range(Hm):
            r = min(max(top + ext_r * i / (Hm - 1), 0.0), Hm - 1.0)
            for j in range(Wm):
                c = min(max(left + ext_c * j / (Wm - 1), 0.0), Wm - 1.0)
                out[b] += _bilinear_oracle(t_p[b], r, c)
    return out / (Hm * Wm)


def test_bilinear_oracle_exact_points_and_interpolation():
    src = np.arange(12.0).reshape(1, 3, 4)
    assert [_bilinear_oracle(src, r, c)[0] for r, c in [(0, 0), (1, 3), (2, 2)]] == [0.0, 7.0, 10.0]
    assert _bilinear_oracle(src, 0.5, 0.5)[0] == pytest.approx((0 + 1 + 4 + 5) / 4)


@pytest.mark.parametrize("region", [
    ((1.0, 1.0), (0.0, 0.0)),        # full frame: every sample on a cell centre
    ((0.5, 1.0), (16.0, 0.0)),       # rows on cells 1, 2 and halfway between
    ((0.5, 0.4), (0.0, 3.0)),        # interpolation along both axes
    ((0.9, 0.8), (30.0, 14.0)),      # partly out of bounds: clamped to the border
    ((0.7, 0.5), (-9.0, -4.0)),      # partly out of bounds on the other side
    ((1e-6, 1e-6), (5.0, 2.0)),      # degenerate: extent floored at one cell
])
@pytest.mark.parametrize("hw", [(3, 4), (8, 4)])
def test_region_feature_matches_scalar_sampler(region, hw):
    (s_x, s_y), (t_x, t_y) = region
    block = _block(dtype=np.float64)
    rng = np.random.default_rng(hw[0])
    t_p = rng.normal(size=(2, 64) + hw)
    t_p[:, 0] = np.arange(hw[0] * hw[1]).reshape(hw)
    s_x, s_y, t_x, t_y = (np.array([v, 0.3 + 0.5 * v]) for v in (s_x, s_y, t_x, t_y))
    got = block.region_feature(ag.tensor(t_p, dtype=np.float64),
                               *(ag.tensor(v, dtype=np.float64) for v in (s_x, s_y, t_x, t_y)))
    pooled = _region_mean_oracle(t_p, s_x, s_y, t_x, t_y, block.frame_hw)
    want = pooled @ block.project.weight.data.T + block.project.bias.data
    np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)


def test_raw_affines_match_per_head_oracle():
    block = _block(dtype=np.float64, seed=4, n_attributes=3)
    rng = np.random.default_rng(44)
    for head in block.heads:
        head.fc2.weight.data[:] = rng.normal(scale=0.3, size=head.fc2.weight.shape)
    fm = ag.tensor(rng.normal(size=(2, 6, 8, 4)), dtype=np.float64)
    t_p = block.primitive_map(fm)
    got = block.raw_affines(t_p)
    ag.tsum(ag.square(ag.stack(got, axis=0))).backward()
    fused_grads = {n: p.grad.copy() for n, p in block.named_parameters() if n.startswith("heads")}
    block.zero_grad()

    want = []
    for head, offset in zip(block.heads, block.offsets):
        x = ag.relu(head.conv1(t_p))
        x = ag.relu(head.conv2(x))
        x = adaptive_mean_pool(x, head.POOL_GRID).reshape((2, -1))
        want.append(head.fc2(ag.relu(head.fc1(x))) + ag.tensor(offset, dtype=np.float64))
    ag.tsum(ag.square(ag.stack(want, axis=0))).backward()
    for g, w in zip(got, want):
        np.testing.assert_allclose(g.data, w.data, rtol=1e-12, atol=1e-12)
    for name, p in block.named_parameters():
        if name.startswith("heads"):
            np.testing.assert_allclose(fused_grads[name], p.grad, rtol=1e-10, atol=1e-12)


def test_block_end_to_end_gradcheck():
    block = _block(dtype=np.float64, seed=9)
    # final head layers start at zero; randomize them so the check covers the
    # whole region-head path
    rng = np.random.default_rng(66)
    for head in block.heads:
        head.fc2.weight.data[:] = rng.normal(
            scale=0.3, size=head.fc2.weight.shape)
    fm = ag.tensor(np.random.default_rng(6).normal(scale=0.5, size=(2, 6, 8, 4)),
                   dtype=np.float64)

    def f():
        v, _ = block(fm)
        return ag.tmean(ag.square(v))

    report = grad_check(f, block.parameters(), max_coords_per_param=40)
    assert report.passed, report.summary()


def test_block_returns_the_regions_it_pooled():
    block = _block(n_attributes=3)
    fm = ag.tensor(np.random.default_rng(7).normal(size=(4, 6, 8, 4)).astype(np.float32))
    v, regions = block(fm)
    assert v.shape == (4, 3, 5) and len(regions) == 3
    t_p = block.primitive_map(fm)
    for n, (raw, region) in enumerate(zip(block.raw_affines(t_p), regions)):
        want = block.affine_tensors(raw)
        assert len(region) == 4 and all(r.shape == (4,) for r in region)
        for got, w in zip(region, want):
            np.testing.assert_array_equal(got.data, w.data)
        # one region alone pools with GEMMs of other shapes than all three
        # together, so it matches to float32 rounding, not bit for bit
        np.testing.assert_allclose(v.data[:, n], block.region_feature(t_p, *region).data,
                                   rtol=1e-5, atol=1e-6)
    # bit for bit, the features are the returned regions pooled together
    affines = [ag.Tensor(np.stack([region[k].data for region in regions], axis=1))
               for k in range(4)]
    pooled = region_pool(t_p, *affines, block.frame_hw).reshape((12, -1))
    np.testing.assert_array_equal(v.data, block.project(pooled).data.reshape(4, 3, 5))


def test_block_without_attention_has_no_heads_and_no_regions():
    block = _block(n_attributes=3, use_attention=False)
    assert not any(name.startswith("heads") for name, _ in block.named_parameters())
    fm = ag.tensor(np.random.default_rng(8).normal(size=(2, 6, 8, 4)).astype(np.float32))
    v, regions = block(fm)
    assert regions == []
    pooled = block.project(ag.tmean(ag.tmean(block.primitive_map(fm), axis=3), axis=2))
    for n in range(3):
        np.testing.assert_array_equal(v.data[:, n], pooled.data)


# --- the one-node region pooling vs the composed graph ------------------------


def _tent_weights(start, extent, n):
    """Summed bilinear weights of n samples spread evenly over a segment.

    Sample i sits at start + extent * i / (n - 1), clamped to [0, n - 1];
    knot k receives sum_i relu(1 - |sample_i - k|). start, extent: (B,).
    Returns (B, n) in `start`'s dtype.
    """
    B = start.shape[0]
    frac = np.linspace(0.0, 1.0, n).astype(start.dtype)
    knots = np.arange(n, dtype=start.dtype)
    pos = start.reshape((B, 1)) + extent.reshape((B, 1)) * ag.Tensor(frac[None, :])
    pos = ag.relu(pos) - ag.relu(pos - float(n - 1))
    d = pos.reshape((B, n, 1)) - ag.Tensor(knots[None, None, :])
    tent = ag.relu(1.0 - (ag.relu(d) + ag.relu(-d)))
    return ag.tsum(tent, axis=1)


def _composed_region_pool(t_p, s_x, s_y, t_x, t_y, frame_hw):
    """The region pooling built from elementwise, relu, sum and matmul graph
    nodes, one region at a time: the reference for the one-node
    `region_pool`. s_x, s_y, t_x, t_y: (B, N) -> (B, N, C)."""
    H, W = frame_hw
    B, C, Hm, Wm = t_p.shape
    feats = []
    for n in range(s_x.shape[1]):
        top = t_x[:, n] * ((Hm - 1) / H)
        left = t_y[:, n] * ((Wm - 1) / W)
        ext_r = ag.relu(s_x[:, n] * float(Hm - 1) - 1.0) + 1.0
        ext_c = ag.relu(s_y[:, n] * float(Wm - 1) - 1.0) + 1.0
        wr = _tent_weights(top, ext_r, Hm)
        wc = _tent_weights(left, ext_c, Wm)
        x = ag.matmul(t_p.reshape((B, C * Hm, Wm)), wc.reshape((B, Wm, 1)))
        x = ag.matmul(x.reshape((B, C, Hm)), wr.reshape((B, Hm, 1)))
        feats.append(x.reshape((B, C)) / float(Hm * Wm))
    return ag.stack(feats, axis=1)


# (s_x, s_y, t_x, t_y) of the N = 3 regions of each case, in a 32 x 16 frame
POOL_CASES = {
    # every sample on a knot; the first sits on 0, the last on n - 1, and
    # each is a tent edge (|d| = 1) for its neighbours
    "full_frame": [(1.0, 1.0, 0.0, 0.0), (0.5, 1.0, 16.0, 0.0), (1.0, 0.5, 0.0, 8.0)],
    # extents below one cell floored to one, and one exactly on the floor
    "degenerate": [(1e-6, 1e-6, 5.0, 2.0), (1 / 7, 1 / 3, 9.0, 3.0), (0.0, 0.0, 0.0, 16.0)],
    # samples clamped at the far border, the near border, and both
    "clamped": [(0.9, 0.8, 30.0, 14.0), (0.7, 0.5, -9.0, -4.0), (1.6, 1.7, -8.0, -5.0)],
    "interior": [(0.31, 0.47, 7.3, 2.9), (0.62, 0.28, 3.1, 6.7), (0.44, 0.83, 12.6, 1.3)],
}


@pytest.mark.parametrize("case", sorted(POOL_CASES))
@pytest.mark.parametrize("hw", [(8, 4), (3, 4), (5, 1)])
def test_region_pool_matches_composed_graph_values_and_gradients(case, hw):
    rng = np.random.default_rng(hw[0] * 10 + hw[1])
    B, C = 2, 6
    t_p = ag.tensor(rng.normal(size=(B, C) + hw), dtype=np.float64, requires_grad=True)
    # the second map's regions are the first's, moved down and right
    params = np.array(POOL_CASES[case]).T  # (4, N)
    params = np.stack([params, params + np.array([[0.0], [0.0], [1.0], [0.5]])], axis=1)
    affines = [ag.tensor(p, dtype=np.float64, requires_grad=True) for p in params]
    g = rng.normal(size=(B, 3, C))
    leaves = [t_p] + affines

    def grads(pool):
        for leaf in leaves:
            leaf.zero_grad()
        out = pool(t_p, *affines, (32, 16))
        ag.tsum(out * ag.tensor(g, dtype=np.float64)).backward()
        return out.data, [leaf.grad.copy() for leaf in leaves]

    got, got_grads = grads(region_pool)
    want, want_grads = grads(_composed_region_pool)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
    for name, a, b in zip(("t_p", "s_x", "s_y", "t_x", "t_y"), got_grads, want_grads):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_region_pool_is_one_node_in_the_map_dtype(dtype):
    rng = np.random.default_rng(3)
    t_p = ag.tensor(rng.normal(size=(2, 4, 8, 4)), dtype=dtype, requires_grad=True)
    affines = [ag.tensor(rng.uniform(0.2, 0.8, size=(2, 3)), dtype=dtype, requires_grad=True)
               for _ in range(4)]
    out = region_pool(t_p, *affines, (32, 16))
    assert out.shape == (2, 3, 4) and out.dtype == dtype
    assert out._op == "region_pool" and out._parents == (t_p, *affines)
    assert all(p._op == "leaf" for p in out._parents)
    ag.tsum(out).backward()
    assert all(leaf.grad.dtype == dtype for leaf in [t_p] + affines)
    with ag.no_grad():
        leaf = region_pool(t_p, *affines, (32, 16))
    assert leaf._parents == () and leaf._backward is None and not leaf.requires_grad
    np.testing.assert_array_equal(leaf.data, out.data)


def _graph_ops(root):
    seen, stack, ops = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops.append(node._op)
            stack.extend(node._parents)
    return ops


def test_block_pools_and_projects_every_region_once():
    block = _block(n_attributes=4)
    fm = ag.tensor(np.random.default_rng(9).normal(size=(3, 6, 8, 4)).astype(np.float32))
    v, _ = block(fm)
    ops = _graph_ops(v)
    assert ops.count("region_pool") == 1
    # one stack of the raw affines, four sigmoids for the squash
    assert ops.count("stack") == 1 and ops.count("sigmoid") == 4
