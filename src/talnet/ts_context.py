"""Temporal-semantic context block: two-axis gated recurrence over the
(attribute x time) lattice, context memory, attention scores, and the
attention-weighted second pass with per-attribute classification heads.

Both recurrent passes run as a wavefront: the cells of an anti-diagonal
a + t = k depend only on diagonal k - 1, so an N x T lattice takes N + T - 1
batched steps (the diagonal evaluation of multi-dimensional RNNs, Graves et
al. 2007). Each pass is one autograd node (op tag "ts_gru"): one GEMM gives
the input halves of the five gate maps for every cell, each diagonal
multiplies only the hidden states, and the backward walks the diagonals in
reverse (Appleyard, Kočiský & Blunsom 2016)."""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .nn import Linear, Module


class TSGRUCell(Module):
    """Gated cell with separate attribute and temporal update/reset gates.

    Gates are sigmoids of affine maps of [predecessor, input]; the candidate
    is tanh of an affine map of [rA . h_attr, rT . h_time, input]. Biases are
    included in every affine map. The lattice passes run it.
    """

    def __init__(self, input_dim, hidden_dim):
        d, din = hidden_dim, input_dim
        self.Wz_A = Linear(d + din, d)
        self.Wz_T = Linear(d + din, d)
        self.Wr_A = Linear(d + din, d)
        self.Wr_T = Linear(d + din, d)
        self.Wh = Linear(2 * d + din, d)
        self.hidden_dim = d


# gate maps in the row order of the fused arrays: the two that read h_attr,
# the two that read h_time, then the candidate
_GATES = ("Wz_A", "Wr_A", "Wz_T", "Wr_T", "Wh")


def _cell_arrays(cell):
    """(w_x, b_x, u_a, u_t, u_h): the input halves of the five gate maps as
    one (5d, din) matrix and (5d,) bias, the hidden halves [zA; rA] on h_attr
    and [zT; rT] on h_time, each (2d, d), and the candidate's (d, 2d) on
    [rA . h_attr, rT . h_time]."""
    d, lins = cell.hidden_dim, [getattr(cell, gate) for gate in _GATES]
    w = [lin.weight.data for lin in lins]
    w_x = np.concatenate([wk[:, d:] for wk in w[:4]] + [w[4][:, 2 * d:]])
    b_x = np.concatenate([lin.bias.data for lin in lins])
    u_a = np.concatenate([w[0][:, :d], w[1][:, :d]])
    u_t = np.concatenate([w[2][:, :d], w[3][:, :d]])
    return w_x, b_x, u_a, u_t, w[4][:, :2 * d]


def _step(x, h_attr, h_time, u_a, u_t, u_h, s_attr=None, s_time=None):
    """One batch of lattice cells in numpy: h = wA.h_attr + wT.h_time
    + (1 - wA - wT).h_cand with wA = sA.zA and wT = sT.zT.

    x holds the rows' input halves of the gate maps (bias included) in
    `_GATES` order; the scores sA, sT (rows, 1) default to one. Returns h,
    the activations [zA, rA, zT, rT, h_cand] and q = [rA.h_attr, rT.h_time].
    """
    d = h_attr.shape[1]
    act = np.empty_like(x)
    act[:, :2 * d] = x[:, :2 * d] + h_attr @ u_a.T
    act[:, 2 * d:4 * d] = x[:, 2 * d:4 * d] + h_time @ u_t.T
    act[:, :4 * d] = ag._sigmoid(act[:, :4 * d])
    q = np.concatenate([act[:, d:2 * d] * h_attr, act[:, 3 * d:4 * d] * h_time], axis=1)
    act[:, 4 * d:] = np.tanh(x[:, 4 * d:] + q @ u_h.T)
    z_a, z_t, h_cand = act[:, :d], act[:, 2 * d:3 * d], act[:, 4 * d:]
    if s_attr is not None:
        z_a, z_t = s_attr * z_a, s_time * z_t
    return z_a * h_attr + z_t * h_time + (1.0 - z_a - z_t) * h_cand, act, q


def _step_grad(dh, h_attr, h_time, act, u_a, u_t, u_h, s_attr=None, s_time=None):
    """Backward of `_step` for the output gradient dh. Returns the gradient
    of the gate pre-activations in `act`'s layout, those of h_attr and
    h_time, and those of the scores (None without scores)."""
    d = dh.shape[1]
    z_a, r_a, z_t, r_t, h_cand = (act[:, k * d:(k + 1) * d] for k in range(5))
    w_a, w_t = (z_a, z_t) if s_attr is None else (s_attr * z_a, s_time * z_t)
    dw_a, dw_t = dh * (h_attr - h_cand), dh * (h_time - h_cand)
    ds_a = ds_t = None
    if s_attr is not None:
        ds_a = (dw_a * z_a).sum(axis=1, keepdims=True)
        ds_t = (dw_t * z_t).sum(axis=1, keepdims=True)
        dw_a, dw_t = dw_a * s_attr, dw_t * s_time
    da = np.empty_like(act)
    da[:, 4 * d:] = dh * (1.0 - w_a - w_t) * (1.0 - h_cand * h_cand)
    dq = da[:, 4 * d:] @ u_h
    gates = act[:, :4 * d]
    da[:, :4 * d] = (np.concatenate([dw_a, dq[:, :d] * h_attr, dw_t, dq[:, d:] * h_time], axis=1)
                     * gates * (1.0 - gates))
    dh_attr = dh * w_a + dq[:, :d] * r_a + da[:, :2 * d] @ u_a
    dh_time = dh * w_t + dq[:, d:] * r_t + da[:, 2 * d:4 * d] @ u_t
    return da, dh_attr, dh_time, ds_a, ds_t


def ts_gru_step(cell, v, h_attr, h_time):
    """One lattice step: h = zA.h_attr + zT.h_time + (1 - zA - zT).h_cand.

    The (1 - zA - zT) coefficient is kept exactly as written (it may go
    negative). Runs the passes' own step function and returns the value
    only, as a leaf: the lattice passes carry the gradient.
    """
    w_x, b_x, u_a, u_t, u_h = _cell_arrays(cell)
    h, _, _ = _step(v.data @ w_x.T + b_x, h_attr.data, h_time.data, u_a, u_t, u_h)
    if not np.all(np.isfinite(h)):
        raise ag.NonFiniteError("ts_gru_step")
    return ag.Tensor(h)


def _diagonals(N, T):
    """Anti-diagonals k = a + t of the N x T lattice as (k, a_lo, a_hi), plus
    the raster cell index a*T + t of every cell in diagonal-major order."""
    diags, order = [], []
    for k in range(N + T - 1):
        lo, hi = max(0, k - T + 1), min(N - 1, k)
        diags.append((k, lo, hi))
        order.extend(a * T + k - a for a in range(lo, hi + 1))
    return diags, np.array(order)


def _wavefront(cell, v, name, a_s=None, a_t=None):
    """Run the lattice recurrence one anti-diagonal at a time, as one node
    (op tag "ts_gru").

    Cell (a, t) reads only (a-1, t) and (a, t-1), both on diagonal a+t-1, so
    the m cells of a diagonal are one batched step over m*B rows. Boundary
    predecessors are zero vectors. The input halves of the gate maps are one
    GEMM over every cell first, and the backward walks the diagonals in
    reverse. Returns the hidden grid (B, N, T, d).
    """
    B, N, T, din = v.shape
    d = cell.hidden_dim
    diags, order = _diagonals(N, T)

    def to_rows(x):  # (B, N, T, k) -> (N*T*B, k), cell-major in diagonal order
        k = x.shape[-1]
        return x.transpose(1, 2, 0, 3).reshape(N * T, B, k)[order].reshape(N * T * B, k)

    def from_rows(rows):  # the inverse of to_rows
        cells = np.empty((N * T, B, rows.shape[-1]), dtype=rows.dtype)
        cells[order] = rows.reshape(N * T, B, -1)
        return cells.reshape(N, T, B, -1).transpose(2, 0, 1, 3)

    w_x, b_x, u_a, u_t, u_h = _cell_arrays(cell)
    xin = to_rows(v.data)
    x = xin @ w_x.T + b_x
    inputs = (v,) if a_s is None else (v, a_s, a_t)
    scores = () if a_s is None else (to_rows(a_s.data[..., None]), to_rows(a_t.data[..., None]))
    lins = [getattr(cell, gate) for gate in _GATES]
    params = tuple(p for lin in lins for p in (lin.weight, lin.bias))
    keep = ag._records(inputs + params)
    rows_all = N * T * B
    states = np.empty((rows_all, d), dtype=v.dtype)
    if keep:
        h_attrs, h_times = np.empty_like(states), np.empty_like(states)
        acts = np.empty((rows_all, 5 * d), dtype=v.dtype)
        qs = np.empty((rows_all, 2 * d), dtype=v.dtype)
    zero = np.zeros((B, d), dtype=v.dtype)
    blocks, start, prev, prev_lo = [], 0, zero[:0], 0
    for k, lo, hi in diags:
        m = hi - lo + 1
        # diagonal k-1 with a zero state on each side holds cells prev_lo-1
        # .. prev_hi+1; the predecessors (a-1, t) and (a, t-1) sit at a-1 and a
        padded = np.concatenate([zero, prev, zero])
        off = lo - prev_lo
        h_attr, h_time = padded[off * B:(off + m) * B], padded[(off + 1) * B:(off + m + 1) * B]
        rows = slice(start * B, (start + m) * B)
        h, act, q = _step(x[rows], h_attr, h_time, u_a, u_t, u_h, *(s[rows] for s in scores))
        bad = ~np.isfinite(h).all(axis=1)
        if bad.any():
            a = lo + int(np.argmax(bad)) // B
            raise ag.NonFiniteError(f"{name} step (a={a}, t={k - a})")
        states[rows] = h
        if keep:
            h_attrs[rows], h_times[rows], acts[rows], qs[rows] = h_attr, h_time, act, q
        blocks.append((rows, off))
        start, prev, prev_lo = start + m, states[rows], lo
    out = np.ascontiguousarray(from_rows(states))

    def bwd(g):
        dstates = to_rows(g)
        da = np.empty((rows_all, 5 * d), dtype=g.dtype)
        dscores = [np.empty((rows_all, 1), dtype=g.dtype) for _ in scores]
        for k in reversed(range(len(blocks))):
            rows, off = blocks[k]
            da[rows], dh_attr, dh_time, *ds = _step_grad(
                dstates[rows], h_attrs[rows], h_times[rows], acts[rows], u_a, u_t, u_h,
                *(s[rows] for s in scores))
            for dst, src in zip(dscores, ds):
                dst[rows] = src
            if k:
                # back onto diagonal k-1, padded as in the forward
                prev_rows = blocks[k - 1][0]
                m = dh_attr.shape[0] // B
                dpad = np.zeros((prev_rows.stop - prev_rows.start + 2 * B, d), dtype=g.dtype)
                dpad[off * B:(off + m) * B] += dh_attr
                dpad[(off + 1) * B:(off + m + 1) * B] += dh_time
                dstates[prev_rows] += dpad[B:-B]
        dw_x = da.T @ xin
        du = np.concatenate([da[:, :2 * d].T @ h_attrs, da[:, 2 * d:4 * d].T @ h_times])
        for k, lin in enumerate(lins):
            block = slice(k * d, (k + 1) * d)
            hidden = du[block] if k < 4 else da[:, 4 * d:].T @ qs
            ag._accum_fresh(lin.weight, np.concatenate([hidden, dw_x[block]], axis=1))
            ag._accum_fresh(lin.bias, da[:, block].sum(axis=0))
        if v.requires_grad:
            ag._accum_fresh(v, from_rows(da @ w_x))
        for score, ds in zip(inputs[1:], dscores):
            if score.requires_grad:
                ag._accum_fresh(score, from_rows(ds)[..., 0])

    return ag._make(out, inputs + params, bwd, "ts_gru")


def first_pass(cell, v):
    """Fill the lattice; boundary states are zero vectors.

    v: (B, N, T, d_v) -> hidden grid (B, N, T, d). Any topological order
    gives the same result; the lattice runs as a wavefront over the
    anti-diagonals a + t = k.
    """
    return _wavefront(cell, v, "first_pass")


def build_context(h):
    """Semantic memory F_S (temporal mean per attribute) and temporal memory
    F_T (attribute mean per frame) from the hidden grid (B, N, T, d)."""
    f_s = ag.tmean(h, axis=2)  # (B, N, d)
    f_t = ag.tmean(h, axis=1)  # (B, T, d)
    return f_s, f_t


class AttentionScorer(Module):
    """Scalar energies from [h_at, memory] -> softmaxed scores.

    Semantic scores normalize over attributes per frame, temporal scores over
    frames per attribute.
    """

    def __init__(self, d, hidden):
        self.Wa2 = Linear(2 * d, hidden)
        self.Wa1 = Linear(hidden, 1)
        self.Wt2 = Linear(2 * d, hidden)
        self.Wt1 = Linear(hidden, 1)

    def __call__(self, h, f_s, f_t):
        B, N, T, d = h.shape
        fs_full = ag.stack([f_s] * T, axis=2)  # (B, N, T, d)
        ft_full = ag.stack([f_t] * N, axis=1)  # (B, N, T, d)
        e_s = self.Wa1(ag.relu(self.Wa2(ag.concat([h, fs_full], axis=3))))
        e_t = self.Wt1(ag.relu(self.Wt2(ag.concat([h, ft_full], axis=3))))
        e_s = e_s.reshape((B, N, T))
        e_t = e_t.reshape((B, N, T))
        a_s = ag.softmax(e_s, axis=1)  # over attributes, per frame
        a_t = ag.softmax(e_t, axis=2)  # over frames, per attribute
        return a_s, a_t, e_s, e_t


def second_pass(cell, v, a_s, a_t):
    """Attention-weighted lattice: h' = aS.zA.h'_attr + aT.zT.h'_time
    + (1 - aS.zA - aT.zT).h_cand, with gates computed from the second pass's
    own predecessor states. Runs as the same wavefront as `first_pass`.

    v: (B, N, T, din) input per step (the block feeds the first-pass hidden
    states); a_s, a_t: (B, N, T) scores.
    """
    return _wavefront(cell, v, "second_pass", a_s, a_t)


def attribute_readout(hgrid):
    """Last-frame hidden state per attribute: (B, N, T, d) -> (B, N, d)."""
    T = hgrid.shape[2]
    return hgrid[:, :, T - 1, :]


class AttributeHeads(Module):
    """One m_n-way linear classifier per attribute."""

    def __init__(self, d, category_counts):
        self.heads = [Linear(d, m) for m in category_counts]

    def __call__(self, readout):
        """readout: (B, N, d) -> list of (B, m_n) logits."""
        return [head(readout[:, n, :]) for n, head in enumerate(self.heads)]


class TemporalSemanticBlock(Module):
    """Two TS-GRUs around the context-memory attention scorer."""

    def __init__(self, d_v, d, attention_hidden, category_counts,
                 use_context_memory=True):
        self.cell1 = TSGRUCell(d_v, d)
        self.cell2 = TSGRUCell(d, d)  # input: the first-pass hidden states
        self.scorer = AttentionScorer(d, attention_hidden)
        self.heads = AttributeHeads(d, category_counts)
        self.use_context_memory = use_context_memory

    def __call__(self, v):
        """v: (B, N, T, d_v) -> (readout (B,N,d), attribute logits, scores)."""
        h1 = first_pass(self.cell1, v)
        if not self.use_context_memory:
            readout = attribute_readout(h1)
            return readout, self.heads(readout), None
        f_s, f_t = build_context(h1)
        a_s, a_t, e_s, e_t = self.scorer(h1, f_s, f_t)
        h2 = second_pass(self.cell2, h1, a_s, a_t)
        readout = attribute_readout(h2)
        return readout, self.heads(readout), (a_s, a_t, e_s, e_t)
