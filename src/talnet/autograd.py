"""Minimal reverse-mode autodiff on dense numpy arrays.

Covers exactly the primitive set the network needs: matmul, elementwise
arithmetic with broadcasting, concat/slice/reshape, sigmoid/tanh/relu,
softmax / mean / max over an axis, means over non-overlapping windows
(`avg_pool`), and stride-1 conv2d. conv2d is row-lowered (MEC, Cho & Brand
2017): width-only patch rows (H, B*Wo, kw*C), one GEMM per kernel row, and
a width-only col2im for its input gradient. conv2d runs on every usable
core: `_run` hands its copies and GEMMs to the calling thread and a small
thread pool, split only along axes that no sum crosses (batch entries, output
rows, kernel rows), so each output is summed in the same order whatever the
number of parts. The elementwise ops share two helpers, `_binary` and
`_unary`, driven by tables of forward and gradient functions. A backward that
builds a fresh gradient array (the unary ops, sum, mean, max, softmax, a
slice's scatter buffer, the conv2d input gradient) hands it over as the first
`.grad` instead of copying it into zeros (`_accum_fresh`). A graph runs in
the dtype its parameters were initialised in: float32 for training, float64
for the gradient checks. conv2d refuses a weight or bias whose dtype is not
its input's, so a stray promotion fails loudly instead of mixing dtypes.

Layer-level fused nodes live in their own modules and are built with
`_make`: the batch-hard triplet loss in `losses`, the GRU recurrence
(`gru`) in `appearance` and each TS-GRU lattice pass (`ts_gru`) in
`ts_context`.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import functools
import os
import threading

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "set_check_finite",
    "no_grad",
    "tensor",
    "zeros",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "concat",
    "stack",
    "reshape",
    "transpose",
    "sigmoid",
    "tanh",
    "relu",
    "log",
    "square",
    "softmax",
    "tsum",
    "tmean",
    "tmax",
    "avg_pool",
    "conv2d",
]


class ShapeError(ValueError):
    """Raised when an op receives incompatible shapes."""

    def __init__(self, op, *shapes):
        self.op = op
        self.shapes = shapes
        super().__init__(f"{op}: incompatible shapes {' vs '.join(str(s) for s in shapes)}")


class NonFiniteError(FloatingPointError):
    """Raised in finite-checking mode when an op produces nan/inf."""

    def __init__(self, op):
        self.op = op
        super().__init__(f"non-finite value produced by op '{op}'")


_CHECK_FINITE = False


def set_check_finite(flag):
    """Globally toggle per-op nan/inf detection (used by gradcheck)."""
    global _CHECK_FINITE
    _CHECK_FINITE = bool(flag)


_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block: every op returns a plain leaf, so
    inference keeps no parents and no backward closures alive."""
    global _GRAD_ENABLED
    saved = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = saved


class Tensor:
    """A dense array node in the reverse-mode graph.

    Graph nodes are immutable once created; `backward()` walks the graph in
    reverse topological order and accumulates additively into `.grad`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None, op="leaf"):
        if isinstance(data, (np.ndarray, np.generic)):
            self.data = np.asarray(data)
        else:
            self.data = np.asarray(data, dtype=np.float32)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = parents
        self._backward = backward_fn
        self._op = op
        if _CHECK_FINITE and not np.all(np.isfinite(self.data)):
            raise NonFiniteError(op)

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.data.size != 1:
            raise ShapeError("item", self.shape)
        return float(self.data.reshape(()).item())

    def zero_grad(self):
        self.grad = None

    def backward(self):
        if self.data.size != 1:
            raise ShapeError("backward", self.shape)
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # --- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return _slice(self, idx)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad=False, dtype=np.float32):
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=requires_grad)


def zeros(shape, dtype=np.float32, requires_grad=False):
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def _as_tensor(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float32))


def _accum(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _accum_fresh(t, g):
    """`_accum` for a gradient array the backward has just built and keeps
    no other reference to: the first one is adopted, not copied into zeros.
    Views of an upstream gradient must go through `_accum`, or two tensors'
    `.grad` would alias."""
    if t.requires_grad and t.grad is None:
        t.grad = g
    else:
        _accum(t, g)


def _unbroadcast(grad, shape):
    """Reduce `grad` back down to `shape` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _records(parents):
    """True when `_make` would record a node over `parents`. A fused op saves
    the arrays its backward needs only then."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _make(data, parents, backward_fn, op):
    if not _records(parents):
        return Tensor(data, op=op)
    return Tensor(data, requires_grad=True, parents=parents, backward_fn=backward_fn, op=op)


# --- arithmetic ---------------------------------------------------------

# Forward and gradient functions of the elementwise ops, made once: a graph
# node keeps its op's gradient functions alive, so lambdas made per call
# would add function objects to every node.
_BINARY = {
    "add": (np.add, lambda g, x, y: g, lambda g, x, y: g),
    "sub": (np.subtract, lambda g, x, y: g, lambda g, x, y: -g),
    "mul": (np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x),
    "div": (np.true_divide, lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y)),
}


def _binary(op, a, b):
    """Broadcasting elementwise op; its gradient functions map (g, a, b)
    arrays to the unreduced gradient of each operand. A Python int or float
    goes to numpy as it is, so the result keeps the Tensor's dtype (NEP 50);
    it is no graph node and takes no gradient."""
    fwd, grad_a, grad_b = _BINARY[op]
    a_node, b_node = type(a) not in (int, float), type(b) not in (int, float)
    if a_node:
        a = _as_tensor(a)
    if b_node:
        b = _as_tensor(b)
    x, y = a.data if a_node else a, b.data if b_node else b
    try:
        out = fwd(x, y)
    except ValueError:
        raise ShapeError(op, np.shape(x), np.shape(y)) from None

    def bwd(g):
        # add and sub hand back g itself, so these are copied in, never adopted
        if a_node and a.requires_grad:
            _accum(a, _unbroadcast(grad_a(g, x, y), a.shape))
        if b_node and b.requires_grad:
            _accum(b, _unbroadcast(grad_b(g, x, y), b.shape))

    return _make(out, (a, b) if a_node and b_node else (a,) if a_node else (b,), bwd, op)


def add(a, b):
    return _binary("add", a, b)


def sub(a, b):
    return _binary("sub", a, b)


def mul(a, b):
    return _binary("mul", a, b)


def div(a, b):
    return _binary("div", a, b)


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError("matmul", a.shape, b.shape)
    out = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _make(out, (a, b), bwd, "matmul")


# --- shape ops ----------------------------------------------------------

def concat(parts, axis=0):
    parts = [_as_tensor(p) for p in parts]
    try:
        out = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        raise ShapeError("concat", *[p.shape for p in parts]) from None
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(p, g[tuple(idx)])

    return _make(out, tuple(parts), bwd, "concat")


def stack(parts, axis=0):
    parts = [_as_tensor(p) for p in parts]
    out = np.stack([p.data for p in parts], axis=axis)

    def bwd(g):
        slabs = np.moveaxis(g, axis, 0)
        for p, slab in zip(parts, slabs):
            _accum(p, slab)

    return _make(out, tuple(parts), bwd, "stack")


def reshape(a, shape):
    a = _as_tensor(a)
    out = a.data.reshape(shape)

    def bwd(g):
        _accum(a, g.reshape(a.shape))

    return _make(out, (a,), bwd, "reshape")


def transpose(a, axes):
    a = _as_tensor(a)
    out = np.transpose(a.data, axes)
    inverse = np.argsort(axes)

    def bwd(g):
        _accum(a, np.transpose(g, inverse))

    return _make(out, (a,), bwd, "transpose")


def _is_basic_index(idx):
    """True for ints, slices, None and Ellipsis, or a tuple of these."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(p is None or p is Ellipsis or isinstance(p, (int, np.integer, slice))
               for p in parts)


def _slice(a, idx):
    a = _as_tensor(a)
    out = a.data[idx]
    basic = _is_basic_index(idx)

    def bwd(g):
        # a basic index hits each target once, so assignment and in-place
        # addition are exact; a fancy one may repeat targets (np.add.at)
        if basic and a.grad is not None:
            a.grad[idx] += g
            return
        full = np.zeros_like(a.data)
        if basic:
            full[idx] = g
        else:
            np.add.at(full, idx, g)
        _accum_fresh(a, full)

    return _make(out, (a,), bwd, "slice")


# --- nonlinearities -----------------------------------------------------

def _sigmoid(x):
    # float32 exp(-x) overflows to inf for x < -88, and 1 / (1 + inf) is
    # exactly the 0 wanted there, so the warning is silenced, not the value
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


# (forward, gradient) per op; each gradient maps (g, a, out) arrays to a
# fresh array. relu's is a mask multiply, not np.where.
_UNARY = {
    "sigmoid": (_sigmoid, lambda g, x, y: g * y * (1.0 - y)),
    "tanh": (np.tanh, lambda g, x, y: g * (1.0 - y * y)),
    "relu": (lambda x: np.maximum(x, 0.0), lambda g, x, y: g * (x > 0)),
    "log": (np.log, lambda g, x, y: g / x),
    "square": (lambda x: x * x, lambda g, x, y: 2.0 * g * x),
}


def _unary(op, a):
    """Elementwise op; the fresh gradient array is adopted, not copied."""
    fwd, grad = _UNARY[op]
    a = _as_tensor(a)
    out = fwd(a.data)

    def bwd(g):
        _accum_fresh(a, grad(g, a.data, out))

    return _make(out, (a,), bwd, op)


def sigmoid(a):
    return _unary("sigmoid", a)


def tanh(a):
    return _unary("tanh", a)


def relu(a):
    return _unary("relu", a)


def log(a):
    return _unary("log", a)


def square(a):
    return _unary("square", a)


# --- reductions ---------------------------------------------------------

def tsum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum_fresh(a, np.broadcast_to(g, a.shape).copy())

    return _make(out, (a,), bwd, "sum")


def tmean(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.data.size if axis is None else a.shape[axis]

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum_fresh(a, np.broadcast_to(g, a.shape) / n)

    return _make(out, (a,), bwd, "mean")


def tmax(a, axis):
    """Max over one axis; ties send the gradient to the first maximizer."""
    a = _as_tensor(a)
    out = a.data.max(axis=axis)
    arg = a.data.argmax(axis=axis)

    def bwd(g):
        full = np.zeros_like(a.data)
        idx = list(np.indices(out.shape))
        idx.insert(axis % a.data.ndim, arg)
        full[tuple(idx)] = g
        _accum_fresh(a, full)

    return _make(out, (a,), bwd, "max")


def softmax(a, axis):
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        _accum_fresh(a, out * (g - dot))

    return _make(out, (a,), bwd, "softmax")


# --- pooling and conv2d ------------------------------------------------

def avg_pool(a, fh, fw):
    """Means over non-overlapping fh x fw windows of (B, C, H, W).

    H and W must be multiples of the window. The forward sums the window's
    columns, divides by fw, then sums its rows and divides by fh, which is
    the float order of a mean over the width axis followed by one over the
    height axis. The first gradient is written as g / fh / fw straight into
    a fresh buffer, so no intermediate node or gradient is kept.
    """
    a = _as_tensor(a)
    B, C, H, W = a.shape
    if H % fh or W % fw:
        raise ShapeError("avg_pool", a.shape, (fh, fw))
    windows = (B, C, H // fh, fh, W // fw, fw)
    x = a.data.reshape(windows)
    rows = x[..., 0]
    for j in range(1, fw):
        rows = rows + x[..., j]
    rows = rows / fw
    out = rows[:, :, :, 0]
    for i in range(1, fh):
        out = out + rows[:, :, :, i]
    out = out / fh

    def bwd(g):
        # repeated along the width first, so each window row is one
        # contiguous run of W floats when broadcast over the fh rows
        row = np.repeat(g / fh / fw, fw, axis=3)[:, :, :, None, :]
        rows_shape = (B, C, H // fh, fh, W)
        if a.grad is None:
            a.grad = np.empty(a.shape, dtype=a.dtype)
            a.grad.reshape(rows_shape)[...] = row
        else:
            a.grad += np.broadcast_to(row, rows_shape).reshape(a.shape)

    return _make(out, (a,), bwd, "mean")


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# conv2d splits its work over this many threads: the caller and a pool of
# _WORKERS - 1 helpers, made on the first call that has more than one part.
# numpy releases the GIL inside its copies and GEMMs.
_WORKERS = _usable_cores()
# floats of patch rows and output that each part of a conv2d must have: on a
# 2-core guest a split phase costs about 0.15 ms more than it saves below it
_GRAIN = 1 << 18
_POOL = None
_POOL_LOCK = threading.Lock()


def _forget_pool():
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


# a forked child has none of its parent's helper threads
os.register_at_fork(after_in_child=_forget_pool)


def _run(tasks):
    """Run the zero-argument callables `tasks`, which write disjoint outputs:
    the calling thread and up to _WORKERS - 1 helpers take them in list order
    until none is left. Returns once every task has finished and raises the
    first error. A helper that wakes after the caller has taken the last task
    finds nothing to do, and nobody waits for it."""
    global _POOL
    todo = collections.deque(tasks)  # popleft is atomic
    count, helpers = len(todo), min(_WORKERS, len(todo)) - 1
    if helpers <= 0:
        for task in todo:
            task()
        return
    finished, errors = threading.Semaphore(0), []

    def drain():
        while True:
            try:
                task = todo.popleft()
            except IndexError:
                return
            try:
                task()
            except BaseException as exc:
                errors.append(exc)
            finally:
                finished.release()

    with _POOL_LOCK:
        if _POOL is None:
            _POOL = concurrent.futures.ThreadPoolExecutor(_WORKERS - 1, "talnet-conv2d")
    for _ in range(helpers):
        _POOL.submit(drain)
    drain()
    for _ in range(count):
        finished.acquire()
    if errors:
        raise errors[0]


def _bounds(n, parts):
    """(lo, hi) of `parts` near-equal contiguous pieces of range(n)."""
    return [(n * k // parts, n * (k + 1) // parts) for k in range(parts)]


def _row_gemms(dst, tmp, blocks, lo, hi):
    """Rows [lo, hi) of dst = the sum of lhs @ rhs over the (start, lhs, rhs)
    row blocks, where block rows lhs[r] land on dst[start + r]; all arrays are
    2-D, and each GEMM covers the block's rows inside [lo, hi). The first
    block is the widest: it is written, the rows it misses start at zero, and
    the others are added, each product going through the same rows of the
    caller's scratch tmp. Every array has dst's dtype."""
    (start, lhs, rhs), *rest = blocks
    a, b = max(lo, start), min(hi, start + len(lhs))
    if a >= b:
        a = b = lo
    dst[lo:a], dst[b:hi] = 0, 0
    np.matmul(lhs[a - start:b - start], rhs, out=dst[a:b])
    for start, lhs, rhs in rest:
        a, b = max(lo, start), min(hi, start + len(lhs))
        if a < b:
            np.matmul(lhs[a - start:b - start], rhs, out=tmp[a:b])
            dst[a:b] += tmp[a:b]


def conv2d(x, weight, bias=None, pad=0):
    """Stride-1 2-D convolution (cross-correlation): x (B,C,H,W), weight (Co,C,kh,kw).

    Row-lowered as in MEC (Cho & Brand 2017): the input, padded along the
    width only into (H, B, W+2*pad, C), gives width-only patch rows
    cw (H, B*Wo, kw*C), 1/kh the size of an im2col matrix. Kernel row i is one
    GEMM over the block of output rows whose input rows lie in the map, so
    height padding is never multiplied. Each output sums the kernel rows in
    span order (the widest span, then ascending i), each over (kw, C).

    The work is split into up to min(cores, B) parts, each with at least
    `_GRAIN` floats of patch rows and output, run by `_run` along axes that
    no sum crosses:
    - batch entries: the padding, the patch-row copy, the transposes of the
      output and of its gradient;
    - contiguous runs of (row, batch entry) pairs: the forward and
      patch-row-gradient GEMMs, each part going through the kernel rows in
      the same order, and the col2im;
    - kernel rows: the weight gradient, one whole GEMM each, as before.
    The calling thread allocates every buffer and the parts write disjoint
    slices of them. So each output is summed in the same order whatever the
    part count, and is byte-identical as long as the BLAS rounds a GEMM's
    rows alike when they are cut into row pieces. OpenBLAS does so for every
    float32 shape of the model; some narrow float64 GEMMs differ in the last
    bit (see the tests). weight and bias must have x's dtype (TypeError
    otherwise), and every buffer and GEMM is in that dtype.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    B, C, H, W = x.shape
    Co, Ci, kh, kw = weight.shape
    if Ci != C:
        raise ShapeError("conv2d", x.shape, weight.shape)
    Ho, Wo = H + 2 * pad - kh + 1, W + 2 * pad - kw + 1
    if Ho < 1 or Wo < 1:
        raise ShapeError("conv2d", x.shape, weight.shape)
    for name, p in (("weight", weight), ("bias", bias)):
        if p is not None and p.dtype != x.dtype:
            raise TypeError(f"conv2d: {name} dtype {p.dtype} differs from input dtype {x.dtype}")
    dtype, BWo, kC = x.dtype, B * Wo, kw * C
    parts = max(1, min(_WORKERS, B, (H * BWo * kC + Ho * BWo * Co) // _GRAIN))
    batches = _bounds(B, parts)
    xp = np.empty((H, B, W + 2 * pad, C), dtype=dtype)
    windows = np.lib.stride_tricks.sliding_window_view(xp, kw, axis=2)  # (H, B, Wo, C, kw)
    cw = np.empty((H, B, Wo, kw, C), dtype=dtype)

    def lower(b0, b1):
        xp[:, b0:b1, :pad], xp[:, b0:b1, pad + W:] = 0, 0
        xp[:, b0:b1, pad:pad + W] = x.data[b0:b1].transpose(2, 0, 3, 1)
        cw[:, b0:b1] = windows[:, b0:b1].transpose(0, 1, 2, 4, 3)

    _run([functools.partial(lower, b0, b1) for b0, b1 in batches])
    del xp, windows
    cw = cw.reshape(H * BWo, kC)
    wrows = weight.data.transpose(2, 3, 1, 0).reshape(kh, kC, Co)
    # kernel row i serves output rows o = [lo, hi), which read input rows
    # s = [lo+i-pad, hi+i-pad); sorted widest first, then by i
    spans = []
    for i in range(kh):
        lo, hi = max(0, pad - i), min(Ho, H + pad - i)
        if lo < hi:
            spans.append((lo - hi, i, slice(lo * BWo, hi * BWo),
                          slice((lo + i - pad) * BWo, (hi + i - pad) * BWo)))
    spans.sort()
    rows = np.empty((Ho * BWo, Co), dtype=dtype)
    tmp = np.empty((Ho * BWo, Co), dtype=dtype)
    blocks = [(o.start, cw[s], wrows[i]) for _, i, o, s in spans]
    _run([functools.partial(_row_gemms, rows, tmp, blocks, lo * Wo, hi * Wo)
          for lo, hi in _bounds(Ho * B, parts)])
    del tmp, blocks
    # to NCHW in two copies: moving whole (Wo, Co) rows first beats one
    # 4-axis transpose
    rows, nhwc = rows.reshape(Ho, B, Wo, Co), np.empty((B, Ho, Wo, Co), dtype=dtype)
    _run([functools.partial(np.copyto, nhwc[b0:b1], rows[:, b0:b1].transpose(1, 0, 2, 3))
          for b0, b1 in batches])
    del rows
    out = np.empty((B, Co, Ho, Wo), dtype=dtype)

    def to_nchw(b0, b1):
        out[b0:b1] = nhwc[b0:b1].transpose(0, 3, 1, 2)
        if bias is not None:
            out[b0:b1] += bias.data.reshape(1, Co, 1, 1)

    _run([functools.partial(to_nchw, b0, b1) for b0, b1 in batches])
    parents = (x, weight) if bias is None else (x, weight, bias)

    def bwd(g):
        grows = np.empty((Ho, B, Wo, Co), dtype=dtype)
        _run([functools.partial(np.copyto, grows[:, b0:b1], g[b0:b1].transpose(2, 0, 3, 1))
              for b0, b1 in batches])
        grows = grows.reshape(Ho * BWo, Co)
        tasks = []
        if x.requires_grad:
            # width-only col2im: each of the kw slabs adds into the padded rows
            dcw = np.empty((H * BWo, kC), dtype=dtype)
            tmp = np.empty((H * BWo, kC), dtype=dtype)
            dx = np.empty((H, B, W + 2 * pad, C), dtype=dtype)
            blocks = [(s.start, grows[o], wrows[i].T) for _, i, o, s in spans]
            slabs, dx_rows = dcw.reshape(H * B, Wo, kw, C), dx.reshape(H * B, -1, C)

            def input_grad(lo, hi):
                _row_gemms(dcw, tmp, blocks, lo * Wo, hi * Wo)
                dx_rows[lo:hi] = 0
                for j in range(kw):
                    dx_rows[lo:hi, j:j + Wo] += slabs[lo:hi, :, j]

            tasks += [functools.partial(input_grad, lo, hi) for lo, hi in _bounds(H * B, parts)]
        if weight.requires_grad:
            gw = np.zeros((kh, kC, Co), dtype=dtype)
            tasks += [functools.partial(np.matmul, cw[s].T, grows[o], out=gw[i])
                      for _, i, o, s in spans]
        _run(tasks)
        if weight.requires_grad:
            _accum(weight, gw.reshape(kh, kw, C, Co).transpose(3, 2, 0, 1))
        if bias is not None and bias.requires_grad:
            _accum(bias, g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            _accum_fresh(x, dx[:, :, pad:pad + W].transpose(1, 3, 0, 2))

    return _make(out, parents, bwd, "conv2d")
