"""Spatial attention: per-attribute affine region heads and differentiable
region pooling with separable bilinear (tent) weights.

The pooling of all of a batch's regions is one autograd node (op tag
"region_pool"): numpy builds every region's row and column tents, and one
batched GEMM pools the map under their outer products."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .nn import Conv2d, Linear, Module

def _logit(p):
    return float(np.log(p / (1.0 - p)))


def strip_prior(index, count):
    """Pre-squash offset placing head `index` of `count` at its vertical strip.

    Person attributes follow a head-to-foot layout, so each head starts at an
    equal-height horizontal band (ordered top to bottom, spanning the full
    width). The prior is only a starting point: the head's raw output is added
    on top, so regions remain free to move and rescale during training. A
    full-frame start instead leaves every head looking at the same global
    mean, and the gradient through the region coordinates is too weak to break
    that symmetry.
    """
    if count <= 1:
        return np.array([3.0, 3.0, 0.0, 0.0])
    s = 1.0 / count
    frac = float(np.clip(index / (count - 1.0), 0.02, 0.98))
    return np.array([_logit(s), 3.0, _logit(frac), 0.0])


@dataclass
class AffineParams:
    s_x: float
    s_y: float
    t_x: float
    t_y: float


@dataclass
class AttentionRegion:
    vertices: list  # four (x_s, y_s) points, images of the frame corners
    normalized_bounds: tuple  # (top, left, bottom, right) in [0,1]


def region_vertices(p, H, W):
    """Affine images of the four frame corners (x down the height axis)."""
    corners = [(0, 0), (H, 0), (0, W), (H, W)]
    verts = [(p.s_x * x + p.t_x, p.s_y * y + p.t_y) for x, y in corners]
    top, left = p.t_x / H, p.t_y / W
    bottom = (p.s_x * H + p.t_x) / H
    right = (p.s_y * W + p.t_y) / W
    return AttentionRegion(vertices=verts, normalized_bounds=(top, left, bottom, right))


class AttributeRegionHead(Module):
    """conv 5x5x32 -> conv 5x5x16 -> mean-pool to 4x2 -> FC 32 -> FC 4.

    Every head's conv1 reads the same primitive map, so the block runs them
    all as one convolution (`SpatialAttentionBlock.raw_affines`); a head is
    called on its own relu(conv1) channels.
    """

    POOL_GRID = (4, 2)

    def __init__(self, in_channels=64, fc_hidden=32):
        self.conv1 = Conv2d(in_channels, 32, 5, pad=2)
        self.conv2 = Conv2d(32, 16, 5, pad=2)
        gh, gw = self.POOL_GRID
        self.fc1 = Linear(16 * gh * gw, fc_hidden)
        self.fc2 = Linear(fc_hidden, 4)
        # zero the final layer so the region starts exactly at its prior
        # offset instead of a random perturbation of it
        self.fc2.weight.init_spec = "zeros"

    def __call__(self, hidden):
        x = ag.relu(self.conv2(hidden))
        x = adaptive_mean_pool(x, self.POOL_GRID)
        B = x.shape[0]
        x = x.reshape((B, -1))
        x = ag.relu(self.fc1(x))
        return self.fc2(x)  # raw (B, 4), squashing happens in the block


def adaptive_mean_pool(x, grid):
    """Average (B,C,H,W) down to a fixed (gh, gw) grid; H,W must divide."""
    _, _, H, W = x.shape
    gh, gw = grid
    if H % gh or W % gw:
        raise ag.ShapeError("adaptive_mean_pool", x.shape, (gh, gw))
    return ag.avg_pool(x, H // gh, W // gw)


class SpatialAttentionBlock(Module):
    """1x1x64 primitive conv plus one affine-region head per attribute.

    Regions are predicted in frame coordinates (H, W) per Eq. of the affine
    corner map, then converted to normalized bounds and pooled on the
    primitive feature map, which reconciles frame-space vertices with
    feature-space cropping. Built with use_attention=False (the
    spatial-attention ablation) it has no region heads, and every attribute
    sees the full-frame global mean.
    """

    def __init__(self, in_channels, n_attributes, d_v, frame_hw, use_attention=True):
        self.primitive = Conv2d(in_channels, 64, 1)
        self.project = Linear(64, d_v)
        self.frame_hw = frame_hw
        self.n_attributes = n_attributes
        self.use_attention = use_attention
        if use_attention:
            self.heads = [AttributeRegionHead(64) for _ in range(n_attributes)]
            self.offsets = [strip_prior(n, n_attributes) for n in range(n_attributes)]

    def primitive_map(self, fm):
        return ag.relu(self.primitive(fm))

    def raw_affines(self, t_p):
        """Raw (pre-squash) affine params of every head, a list of (B, 4).

        The heads' conv1 weights are concatenated into one 64 -> 32*N conv;
        each head continues on its own block of output channels.
        """
        conv1s = [head.conv1 for head in self.heads]
        weight = ag.concat([c.weight for c in conv1s], axis=0)
        bias = ag.concat([c.bias for c in conv1s], axis=0)
        hidden = ag.relu(ag.conv2d(t_p, weight, bias, pad=conv1s[0].pad))
        width = conv1s[0].weight.shape[0]
        return [head(hidden[:, n * width:(n + 1) * width])
                + ag.Tensor(offset.astype(t_p.dtype))
                for n, (head, offset) in enumerate(zip(self.heads, self.offsets))]

    def affine_tensors(self, raw):
        """Squashed (s_x, s_y, t_x, t_y) tensors of raw (..., 4) affines,
        each of shape (...).

        s = sigma(raw_s); t_x = sigma(raw_t) * H * (1 - s_x) (and analogously
        for t_y with W), which pins the region inside [0,H] x [0,W] for any
        raw value.
        """
        H, W = self.frame_hw
        s_x = ag.sigmoid(raw[..., 0])
        s_y = ag.sigmoid(raw[..., 1])
        t_x = ag.sigmoid(raw[..., 2]) * float(H) * (1.0 - s_x)
        t_y = ag.sigmoid(raw[..., 3]) * float(W) * (1.0 - s_y)
        return s_x, s_y, t_x, t_y

    def region_feature(self, t_p, s_x, s_y, t_x, t_y):
        """One region per map, (B,) squashed affines -> (B, d_v): the
        `region_pool` mean of its samples, projected to d_v."""
        B = t_p.shape[0]
        region = (v.reshape((B, 1)) for v in (s_x, s_y, t_x, t_y))
        return self.project(region_pool(t_p, *region, self.frame_hw).reshape((B, -1)))

    def __call__(self, fm):
        """fm: (B, Cf, Hm, Wm) per-frame maps -> ((B, N, d_v) initial
        features, regions): per attribute the squashed (s_x, s_y, t_x, t_y)
        tensors its feature was pooled from; no regions without attention.
        The N regions are squashed, pooled and projected together."""
        t_p = self.primitive_map(fm)
        B, N = t_p.shape[0], self.n_attributes
        if not self.use_attention:
            feat = self.project(ag.tmean(ag.tmean(t_p, axis=3), axis=2))
            return ag.stack([feat] * N, axis=1), []
        affines = self.affine_tensors(ag.stack(self.raw_affines(t_p), axis=1))  # 4 x (B, N)
        pooled = region_pool(t_p, *affines, self.frame_hw).reshape((B * N, -1))
        regions = [tuple(ag.Tensor(v.data[:, n]) for v in affines) for n in range(N)]
        return self.project(pooled).reshape((B, N, -1)), regions


def region_pool(t_p, s_x, s_y, t_x, t_y, frame_hw):
    """Mean of every region's Hm x Wm bilinear samples, as one graph node
    (op tag "region_pool").

    t_p: (B, C, Hm, Wm) primitive maps; s_x, s_y, t_x, t_y: (B, N) squashed
    affines of N regions per map, in frame coordinates (H, W) = frame_hw.
    Returns (B, N, C). The sample grid has the primitive map's own
    resolution, so a full-frame region reproduces exact cell values (and
    hence the global mean pool). Region extent is floored at one feature-map
    cell, and samples are clamped to the border. The bilinear kernel is
    separable (Jaderberg et al. 2015, eq. 5), so the grid mean is
    sum_hw wr[h] wc[w] t_p[:, :, h, w] / (Hm*Wm), where wr and wc sum the row
    and column tents of all samples. The outer products wr wc^T of all
    regions are one (B, N, Hm*Wm) array, and one batched GEMM pools them; the
    map's gradient is one more. Every array is in t_p's dtype; the masks and
    slopes of the tents' backward are kept only when the node is recorded.
    """
    H, W = frame_hw
    B, C, Hm, Wm = t_p.shape
    N = s_x.shape[1]
    parents = (t_p, s_x, s_y, t_x, t_y)
    keep = ag._records(parents)
    x = t_p.data.reshape(B, C, Hm * Wm)
    row_scale, col_scale = (Hm - 1) / H, (Wm - 1) / W

    def data(v):
        return np.asarray(v.data, dtype=t_p.dtype)

    wr, rows = _tents(data(t_x), data(s_x), row_scale, Hm, keep)
    wc, cols = _tents(data(t_y), data(s_y), col_scale, Wm, keep)
    w = (wr[..., :, None] * wc[..., None, :]).reshape(B, N, Hm * Wm) / (Hm * Wm)
    out = w @ x.transpose(0, 2, 1)

    def bwd(g):
        if t_p.requires_grad:
            ag._accum_fresh(t_p, (g.transpose(0, 2, 1) @ w).reshape(t_p.shape))
        douter = (g @ x).reshape(B, N, Hm, Wm) / (Hm * Wm)
        dt_x, ds_x = _tents_grad((douter * wc[..., None, :]).sum(axis=3), rows, row_scale, Hm)
        dt_y, ds_y = _tents_grad((douter * wr[..., :, None]).sum(axis=2), cols, col_scale, Wm)
        for v, grad in ((s_x, ds_x), (s_y, ds_y), (t_x, dt_x), (t_y, dt_y)):
            ag._accum_fresh(v, grad.astype(v.dtype, copy=False))

    return ag._make(out, parents, bwd, "region_pool")


def _fracs(n, dtype):
    return np.linspace(0.0, 1.0, n).astype(dtype)


def _tents(t, s, scale, n, keep):
    """One axis of `region_pool`: offsets t and scales s (B, N) -> the summed
    tents (B, N, n) of each region's n samples, and what the backward reads
    if `keep`.

    Sample i sits at t * scale + extent * i / (n - 1), clamped to [0, n - 1],
    where extent = max(s * (n - 1), 1); knot k receives
    sum_i max(1 - |sample_i - k|, 0).
    """
    grow = s * float(n - 1) - 1.0
    pos = (t * scale)[..., None] + (np.maximum(grow, 0.0) + 1.0)[..., None] * _fracs(n, t.dtype)
    d = np.clip(pos, 0.0, n - 1.0)[..., None] - np.arange(n, dtype=t.dtype)  # (B, N, i, k)
    dist = np.abs(d)
    tents = np.maximum(1.0 - dist, 0.0).sum(axis=2)
    if not keep:
        return tents, None
    # the subgradients of the clamp, |d| and max written as relu graphs with
    # relu'(0) = 0: |d| has slope 0 at d = 0, and a sample on a tent's edge
    # or an extent on its floor passes no gradient. A clamped sample sits on
    # a knot, 0 or n - 1, where every tent's slope is 0, so the clamp needs
    # no mask of its own.
    slope = -np.sign(d) * (dist < 1.0)
    return tents, (slope, grow > 0.0)


def _tents_grad(g, saved, scale, n):
    """(offset, scale) gradients (B, N) of one axis from the gradient g
    (B, N, n) of its summed tents."""
    slope, grown = saved
    dpos = (slope * g[..., None, :]).sum(axis=3)
    dextent = (dpos * _fracs(n, dpos.dtype)).sum(axis=2)
    return dpos.sum(axis=2) * scale, dextent * float(n - 1) * grown
