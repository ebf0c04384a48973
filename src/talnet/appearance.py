"""Appearance branch: global + horizontal-stripe features, dimension
reduction, temporal GRU encoding, temporal pooling, classifier heads."""

from __future__ import annotations


from . import autograd as ag
from .nn import Linear, Module


class GRUCell(Module):
    """Standard GRU: z,r sigmoids of [h_prev, x]; candidate tanh of
    [r . h_prev, x]; h = (1-z) . h_prev + z . candidate."""

    def __init__(self, input_dim, hidden_dim):
        d, din = hidden_dim, input_dim
        self.Wz = Linear(d + din, d)
        self.Wr = Linear(d + din, d)
        self.Wh = Linear(d + din, d)
        self.hidden_dim = d

    def step(self, x, h_prev):
        joint = ag.concat([h_prev, x], axis=1)
        z = ag.sigmoid(self.Wz(joint))
        r = ag.sigmoid(self.Wr(joint))
        h_cand = ag.tanh(self.Wh(ag.concat([r * h_prev, x], axis=1)))
        return (1.0 - z) * h_prev + z * h_cand


def gru_encode(cell, seq):
    """seq: (B, T, din) -> hidden states (B, T, d), h_0 = 0."""
    B, T, _ = seq.shape
    h = ag.zeros((B, cell.hidden_dim), dtype=seq.dtype)
    states = []
    for t in range(T):
        h = cell.step(seq[:, t, :], h)
        states.append(h)
    return ag.stack(states, axis=1)


def stripe_split(fm, n_stripes):
    """Equal-height horizontal bands, top to bottom; Hm must divide."""
    Hm = fm.shape[-2]
    if Hm % n_stripes:
        raise ag.ShapeError("stripe_split", fm.shape, (n_stripes,))
    band = Hm // n_stripes
    return [fm[..., k * band:(k + 1) * band, :] for k in range(n_stripes)]


def spatial_mean(fm):
    """(..., C, H, W) -> (..., C)."""
    nd = len(fm.shape)
    return ag.tmean(ag.tmean(fm, axis=nd - 1), axis=nd - 2)


def temporal_pool(states, mode="mean", rng=None):
    """Aggregate (B, T, d) over time: mean / max / one random frame."""
    if mode == "mean":
        return ag.tmean(states, axis=1)
    if mode == "max":
        return ag.tmax(states, axis=1)
    if mode == "random-sample":
        if rng is None:
            raise ValueError("random-sample pooling needs an rng")
        t = int(rng.integers(states.shape[1]))
        return states[:, t, :]
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

    def _encode(self, perframe, cell, rng):
        states = gru_encode(cell, perframe) if self.use_gru else perframe
        return temporal_pool(states, self.pooling, rng)

    def __call__(self, fm, rng=None):
        """fm: (B, T, Cf, Hm, Wm) -> (global (B,d_g), parts list, logits list).

        Logits come as [global, part_1..part_H], each (B, G).
        """
        pooled_global = spatial_mean(fm)  # (B, T, Cf)
        g = ag.relu(self.global_reduce(pooled_global))
        g_clip = self._encode(g, self.global_gru, rng)
        parts = []
        for band in stripe_split(fm, self.n_stripes):
            p = ag.relu(self.part_reduce(spatial_mean(band)))
            parts.append(self._encode(p, self.local_gru, rng))
        logits = [self.global_head(g_clip)] + [h(p) for h, p in zip(self.part_heads, parts)]
        return g_clip, parts, logits

    def feature(self, g_clip, parts):
        """Retrieval vector: concat(global, parts) of length d_g + H * d_p."""
        return ag.concat([g_clip] + parts, axis=1)
