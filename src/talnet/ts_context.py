"""Temporal-semantic context block: two-axis gated recurrence over the
(attribute x time) lattice, context memory, attention scores, and the
attention-weighted second pass with per-attribute classification heads.

Both recurrent passes run as a wavefront: the cells of an anti-diagonal
a + t = k depend only on diagonal k - 1, so an N x T lattice takes N + T - 1
batched steps (the diagonal evaluation of multi-dimensional RNNs, Graves et
al. 2007)."""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .nn import Linear, Module


class TSGRUCell(Module):
    """Gated cell with separate attribute and temporal update/reset gates.

    Gates are sigmoids of affine maps of [predecessor, input]; the candidate
    is tanh of an affine map of [rA . h_attr, rT . h_time, input]. Biases are
    included in every affine map.
    """

    def __init__(self, input_dim, hidden_dim):
        d, din = hidden_dim, input_dim
        self.Wz_A = Linear(d + din, d)
        self.Wz_T = Linear(d + din, d)
        self.Wr_A = Linear(d + din, d)
        self.Wr_T = Linear(d + din, d)
        self.Wh = Linear(2 * d + din, d)
        self.hidden_dim = d

    def gates(self, v, h_attr, h_time):
        xa = ag.concat([h_attr, v], axis=1)
        xt = ag.concat([h_time, v], axis=1)
        z_a = ag.sigmoid(self.Wz_A(xa))
        z_t = ag.sigmoid(self.Wz_T(xt))
        r_a = ag.sigmoid(self.Wr_A(xa))
        r_t = ag.sigmoid(self.Wr_T(xt))
        h_cand = ag.tanh(self.Wh(ag.concat([r_a * h_attr, r_t * h_time, v], axis=1)))
        return z_a, z_t, r_a, r_t, h_cand


def ts_gru_step(cell, v, h_attr, h_time):
    """One lattice step: h = zA.h_attr + zT.h_time + (1 - zA - zT).h_cand.

    The (1 - zA - zT) coefficient is kept exactly as written (it may go
    negative).
    """
    h = _lattice_step(cell, v, h_attr, h_time)
    if not np.all(np.isfinite(h.data)):
        raise ag.NonFiniteError("ts_gru_step")
    return h


def _lattice_step(cell, v, h_attr, h_time, s_attr=None, s_time=None):
    """h = wA.h_attr + wT.h_time + (1 - wA - wT).h_cand with wA = sA.zA and
    wT = sT.zT; the scores sA, sT (rows, 1) default to one."""
    z_a, z_t, _, _, h_cand = cell.gates(v, h_attr, h_time)
    if s_attr is not None:
        z_a, z_t = s_attr * z_a, s_time * z_t
    return z_a * h_attr + z_t * h_time + (1.0 - z_a - z_t) * h_cand


def _diagonals(N, T):
    """Anti-diagonals k = a + t of the N x T lattice as (k, a_lo, a_hi), plus
    the raster cell index a*T + t of every cell in diagonal-major order."""
    diags, order = [], []
    for k in range(N + T - 1):
        lo, hi = max(0, k - T + 1), min(N - 1, k)
        diags.append((k, lo, hi))
        order.extend(a * T + k - a for a in range(lo, hi + 1))
    return diags, np.array(order)


def _to_diagonal_rows(x, order):
    """(B, N, T, ...) -> (N*T*B, ...): rows cell-major in diagonal order."""
    B, N, T = x.shape[:3]
    rest = tuple(x.shape[3:])
    cells = ag.transpose(x, (1, 2, 0) + tuple(range(3, x.data.ndim)))
    return cells.reshape((N * T, B) + rest)[order].reshape((N * T * B,) + rest)


def _wavefront(cell, v, name, a_s=None, a_t=None):
    """Run the lattice recurrence one anti-diagonal at a time.

    Cell (a, t) reads only (a-1, t) and (a, t-1), both on diagonal a+t-1, so
    the m cells of a diagonal are one batched step over m*B rows. Boundary
    predecessors are zero vectors. Returns the hidden grid (B, N, T, d).
    """
    B, N, T, _ = v.shape
    d = cell.hidden_dim
    diags, order = _diagonals(N, T)
    x = _to_diagonal_rows(v, order)
    if a_s is not None:
        s_rows = _to_diagonal_rows(a_s.reshape((B, N, T, 1)), order)
        t_rows = _to_diagonal_rows(a_t.reshape((B, N, T, 1)), order)
    zero = ag.zeros((B, d), dtype=v.dtype)
    states, start, prev, prev_lo = [], 0, ag.zeros((0, d), dtype=v.dtype), 0
    for k, lo, hi in diags:
        m = hi - lo + 1
        # diagonal k-1 with a zero state on each side holds cells prev_lo-1
        # .. prev_hi+1; the predecessors (a-1, t) and (a, t-1) sit at a-1 and a
        padded = ag.concat([zero, prev, zero], axis=0)
        off = lo - prev_lo
        h_attr = padded[off * B:(off + m) * B]
        h_time = padded[(off + 1) * B:(off + m + 1) * B]
        rows = slice(start * B, (start + m) * B)
        scores = (s_rows[rows], t_rows[rows]) if a_s is not None else ()
        h = _lattice_step(cell, x[rows], h_attr, h_time, *scores)
        bad = ~np.isfinite(h.data).all(axis=1)
        if bad.any():
            a = lo + int(np.argmax(bad)) // B
            raise ag.NonFiniteError(f"{name} step (a={a}, t={k - a})")
        states.append(h)
        start, prev, prev_lo = start + m, h, lo
    grid = ag.concat(states, axis=0).reshape((N * T, B, d))[np.argsort(order)]
    return ag.transpose(grid.reshape((N, T, B, d)), (2, 0, 1, 3))


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
