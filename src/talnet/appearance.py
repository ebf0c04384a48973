"""Appearance branch: global + horizontal-stripe features, dimension
reduction, temporal GRU encoding, temporal pooling, classifier heads.

A GRU recurrence is one autograd node (op tag "gru"), after Appleyard,
Kočiský & Blunsom 2016: the input halves of the three gate maps are one GEMM
over every frame, each time step multiplies only the hidden state, and the
backward walks time in reverse."""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .nn import Linear, Module


class GRUCell(Module):
    """Standard GRU: z,r sigmoids of [h_prev, x]; candidate tanh of
    [r . h_prev, x]; h = (1-z) . h_prev + z . candidate. `gru_encode` runs
    it over a sequence."""

    def __init__(self, input_dim, hidden_dim):
        d, din = hidden_dim, input_dim
        self.Wz = Linear(d + din, d)
        self.Wr = Linear(d + din, d)
        self.Wh = Linear(d + din, d)
        self.hidden_dim = d


def gru_encode(cell, seq):
    """seq: (B, T, din) -> hidden states (B, T, d), h_0 = 0, as one node.

    The gate rows are laid out [z, r, candidate]. The per-step arrays the
    backward needs are kept only when the node is recorded.
    """
    B, T, din = seq.shape
    d = cell.hidden_dim
    lins = (cell.Wz, cell.Wr, cell.Wh)
    w_x = np.concatenate([lin.weight.data[:, d:] for lin in lins])  # (3d, din)
    u_zr = np.concatenate([cell.Wz.weight.data[:, :d], cell.Wr.weight.data[:, :d]])
    u_h = cell.Wh.weight.data[:, :d]
    xin = seq.data.transpose(1, 0, 2).reshape(T * B, din)  # time-major rows
    x = (xin @ w_x.T + np.concatenate([lin.bias.data for lin in lins])).reshape(T, B, 3 * d)
    params = tuple(p for lin in lins for p in (lin.weight, lin.bias))
    keep = ag._records((seq,) + params)
    states = np.empty((T + 1, B, d), dtype=seq.dtype)  # states[0] is h_0
    states[0] = 0
    if keep:
        act, rh = np.empty((T, B, 3 * d), dtype=seq.dtype), np.empty((T, B, d), dtype=seq.dtype)
    for t in range(T):
        h = states[t]
        zr = ag._sigmoid(x[t, :, :2 * d] + h @ u_zr.T)
        z, q = zr[:, :d], zr[:, d:] * h
        c = np.tanh(x[t, :, 2 * d:] + q @ u_h.T)
        states[t + 1] = (1.0 - z) * h + z * c
        if keep:
            act[t, :, :2 * d], act[t, :, 2 * d:], rh[t] = zr, c, q
    out = np.ascontiguousarray(states[1:].transpose(1, 0, 2))

    def bwd(g):
        da = np.empty((T, B, 3 * d), dtype=g.dtype)  # gate pre-activation gradients
        dh = np.zeros((B, d), dtype=g.dtype)
        for t in reversed(range(T)):
            dh = dh + g[:, t]
            h, zr, c = states[t], act[t, :, :2 * d], act[t, :, 2 * d:]
            z, r = zr[:, :d], zr[:, d:]
            da[t, :, 2 * d:] = dh * z * (1.0 - c * c)
            dq = da[t, :, 2 * d:] @ u_h
            dzr = np.concatenate([dh * (c - h), dq * h], axis=1)
            da[t, :, :2 * d] = dzr * zr * (1.0 - zr)
            dh = dh * (1.0 - z) + dq * r + da[t, :, :2 * d] @ u_zr
        da = da.reshape(T * B, 3 * d)
        dw_x = da.T @ xin
        du_zr = da[:, :2 * d].T @ states[:-1].reshape(T * B, d)
        du = (du_zr[:d], du_zr[d:], da[:, 2 * d:].T @ rh.reshape(T * B, d))
        for k, lin in enumerate(lins):
            block = slice(k * d, (k + 1) * d)
            ag._accum_fresh(lin.weight, np.concatenate([du[k], dw_x[block]], axis=1))
            ag._accum_fresh(lin.bias, da[:, block].sum(axis=0))
        if seq.requires_grad:
            ag._accum_fresh(seq, (da @ w_x).reshape(T, B, din).transpose(1, 0, 2))

    return ag._make(out, (seq,) + params, bwd, "gru")


def temporal_pool(states, mode="mean", rng=None):
    """Aggregate (B, T, d) over time: mean / max / one random frame.

    A stack (S, B, T, d) of S sequence groups pools each group on its own;
    random-sample then draws one frame per group, in group order.
    """
    axis = len(states.shape) - 2
    if mode == "mean":
        return ag.tmean(states, axis=axis)
    if mode == "max":
        return ag.tmax(states, axis=axis)
    if mode == "random-sample":
        if rng is None:
            raise ValueError("random-sample pooling needs an rng")
        T = states.shape[axis]
        if axis == 1:
            return states[:, int(rng.integers(T)), :]
        groups = np.arange(states.shape[0])
        return states[groups, :, [int(rng.integers(T)) for _ in groups]]
    raise ValueError(f"unknown pooling mode {mode!r}")


class AppearanceBranch(Module):
    """Global path and a local path shared by the horizontal stripes.

    Reduction convs are 1x1, which on spatially pooled column vectors is a
    linear map per frame.
    """

    def __init__(self, in_channels, d_g, d_p, n_stripes, num_classes,
                 use_gru=True, pooling="mean"):
        self.global_reduce = Linear(in_channels, d_g)
        self.part_reduce = Linear(in_channels, d_p)
        self.global_gru = GRUCell(d_g, d_g)
        self.local_gru = GRUCell(d_p, d_p)
        self.global_head = Linear(d_g, num_classes)
        self.part_heads = [Linear(d_p, num_classes) for _ in range(n_stripes)]
        self.n_stripes = n_stripes
        self.use_gru = use_gru
        self.pooling = pooling

    def __call__(self, fm, rng=None):
        """fm: (B, T, Cf, Hm, Wm) -> (global (B,d_g), parts list, logits list).

        Logits come as [global, part_1..part_H], each (B, G). Stripes are
        equal-height bands, top to bottom (Hm must divide). One window mean
        gives every stripe's mean, the global mean is the mean of those, and
        the shared local GRU runs once over the H*B stripe sequences.
        """
        B, T, Cf, Hm, Wm = fm.shape
        H = self.n_stripes
        if Hm % H:
            raise ag.ShapeError("AppearanceBranch", fm.shape, (H,))
        stripes = ag.avg_pool(fm.reshape((B * T, Cf, Hm, Wm)), Hm // H, Wm)
        stripes = stripes.reshape((B * T, Cf, H))
        g = ag.relu(self.global_reduce(ag.tmean(stripes, axis=2))).reshape((B, T, -1))
        g_clip = temporal_pool(self._states(g, self.global_gru), self.pooling, rng)
        # rows (stripe, clip, frame): H*B sequences for the shared local GRU
        p = ag.transpose(stripes, (2, 0, 1)).reshape((H * B * T, Cf))
        p = ag.relu(self.part_reduce(p)).reshape((H * B, T, -1))
        local = temporal_pool(self._states(p, self.local_gru).reshape((H, B, T, -1)),
                              self.pooling, rng)
        parts = [local[k] for k in range(H)]
        logits = [self.global_head(g_clip)] + [head(part) for head, part
                                               in zip(self.part_heads, parts)]
        return g_clip, parts, logits

    def _states(self, perframe, cell):
        return gru_encode(cell, perframe) if self.use_gru else perframe

    def feature(self, g_clip, parts):
        """Retrieval vector: concat(global, parts) of length d_g + H * d_p."""
        return ag.concat([g_clip] + parts, axis=1)
