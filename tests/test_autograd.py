import functools
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talnet import autograd as ag
from talnet.gradcheck import grad_check
from talnet.nn import Module, Parameter


def test_sigmoid_at_zero():
    assert ag.sigmoid(ag.tensor(0.0)).item() == pytest.approx(0.5)


def test_sigmoid_saturates_in_float32_without_warning():
    x = ag.tensor([-100.0, 100.0], requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ag.sigmoid(x)
        ag.tsum(out).backward()
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out.data, [0.0, 1.0])
    assert np.all(np.isfinite(x.grad))


def test_sigmoid_saturates_in_float64_without_warning():
    # float64 exp(-x) overflows for x < -709
    x = ag.tensor([-1000.0, 1000.0], requires_grad=True, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ag.sigmoid(x)
        ag.tsum(out).backward()
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out.data, [0.0, 1.0])
    assert np.all(np.isfinite(x.grad))


def test_softmax_equal_logits():
    out = ag.softmax(ag.tensor([2.0, 2.0, 2.0, 2.0]), axis=0)
    np.testing.assert_allclose(out.data, 0.25)


def test_mean_over_axis():
    out = ag.tmean(ag.tensor([[1.0, 3.0], [5.0, 7.0]]), axis=0)
    np.testing.assert_allclose(out.data, [3.0, 5.0])


def test_square_gradient_analytic():
    w = ag.tensor(3.0, dtype=np.float64, requires_grad=True)
    ag.square(w).backward()
    eps = 1e-6
    fd = ((3 + eps) ** 2 - (3 - eps) ** 2) / (2 * eps)
    assert abs(w.grad - 6.0) < 1e-12
    assert abs(w.grad - fd) < 1e-8


def test_shape_mismatch_names_op():
    with pytest.raises(ag.ShapeError) as exc:
        ag.matmul(ag.tensor(np.ones((2, 3))), ag.tensor(np.ones((4, 2))))
    assert exc.value.op == "matmul"
    assert (2, 3) in exc.value.shapes


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_python_numbers_are_operands_in_the_tensor_dtype(dtype):
    x = np.array([0.5, -1.25, 2.0], dtype=dtype)
    for build, slope in ((lambda t: 1.0 - t, -1.0), (lambda t: 2 * t, 2.0),
                         (lambda t: t * 0.3, 0.3)):
        t = ag.tensor(x, requires_grad=True, dtype=dtype)
        out = build(t)
        assert out.dtype == dtype
        np.testing.assert_array_equal(out.data, build(x))
        # the number is no graph node, so only the tensor takes a gradient
        assert len(out._parents) == 1 and out._parents[0] is t
        ag.tsum(out).backward()
        assert t.grad.dtype == dtype
        np.testing.assert_array_equal(t.grad, np.full(3, slope, dtype=dtype))


def test_matmul_refuses_a_vector_right_operand():
    with pytest.raises(ag.ShapeError) as exc:
        ag.matmul(ag.tensor(np.ones((2, 3))), ag.tensor(np.ones(3)))
    assert exc.value.op == "matmul" and (3,) in exc.value.shapes


def test_conv2d_identity_kernel():
    x = ag.tensor(np.random.default_rng(0).normal(size=(2, 1, 5, 4)))
    w = ag.tensor(np.ones((1, 1, 1, 1)))
    np.testing.assert_allclose(ag.conv2d(x, w).data, x.data)


def _conv2d_oracle(x, w, b, pad, g):
    """Direct nested sums: conv output and the gradients of sum(out * g)."""
    B, C, H, W = x.shape
    Co, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    Ho, Wo = H + 2 * pad - kh + 1, W + 2 * pad - kw + 1
    out = np.zeros((B, Co, Ho, Wo))
    dxp, dw, db = np.zeros_like(xp), np.zeros_like(w), np.zeros(Co)
    for n in range(B):
        for o in range(Co):
            for r in range(Ho):
                for c in range(Wo):
                    out[n, o, r, c] = b[o]
                    db[o] += g[n, o, r, c]
                    for ci in range(C):
                        for i in range(kh):
                            for j in range(kw):
                                out[n, o, r, c] += xp[n, ci, r + i, c + j] * w[o, ci, i, j]
                                dw[o, ci, i, j] += g[n, o, r, c] * xp[n, ci, r + i, c + j]
                                dxp[n, ci, r + i, c + j] += g[n, o, r, c] * w[o, ci, i, j]
    return out, dxp[:, :, pad:pad + H, pad:pad + W], dw, db


@pytest.mark.parametrize("channels", [(3, 2), (2, 4)])
@pytest.mark.parametrize("pad", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv2d_matches_nested_sum_oracle(k, pad, channels):
    C, Co = channels
    _check_conv2d_oracle(np.random.default_rng(100 * k + 10 * pad + C), C, Co, k, k, pad)


# the last three cases: the 8x4 region-head map under a 5x5 kernel wider
# than it, a 3x2 map smaller than the kernel both ways, and a batch of one
@pytest.mark.parametrize("kernel,pad,channels,size", [
    ((1, 3), 0, (1, 2), (2, 6, 5)), ((3, 1), 1, (2, 3), (2, 6, 5)),
    ((5, 3), 2, (1, 1), (2, 6, 5)), ((2, 4), 1, (3, 2), (2, 6, 5)),
    ((3, 5), 2, (1, 4), (2, 6, 5)), ((5, 5), 2, (3, 2), (2, 8, 4)),
    ((5, 5), 2, (2, 3), (2, 3, 2)), ((3, 3), 1, (2, 2), (1, 4, 3)),
])
def test_conv2d_rectangular_and_single_channel_match_oracle(kernel, pad, channels, size):
    (kh, kw), (C, Co) = kernel, channels
    rng = np.random.default_rng(1000 * kh + 100 * kw + 10 * pad + C)
    _check_conv2d_oracle(rng, C, Co, kh, kw, pad, size)


_np_empty = np.empty


def _nan_empty(*args, **kwargs):
    out = _np_empty(*args, **kwargs)
    if out.dtype.kind in "fc":
        out.fill(np.nan)
    return out


def _check_conv2d_oracle(rng, C, Co, kh, kw, pad, size=(2, 6, 5)):
    B, H, W = size
    x = ag.tensor(rng.normal(size=(B, C, H, W)), dtype=np.float64, requires_grad=True)
    w = ag.tensor(rng.normal(size=(Co, C, kh, kw)), dtype=np.float64, requires_grad=True)
    b = ag.tensor(rng.normal(size=(Co,)), dtype=np.float64, requires_grad=True)
    g = rng.normal(size=(B, Co, H + 2 * pad - kh + 1, W + 2 * pad - kw + 1))
    with pytest.MonkeyPatch.context() as mp:
        # NaN-filled scratch buffers: an entry the kernel never writes shows
        # up in the result instead of depending on what the allocator reused
        mp.setattr(np, "empty", _nan_empty)
        out = ag.conv2d(x, w, b, pad=pad)
        ag.tsum(ag.mul(out, ag.tensor(g, dtype=np.float64))).backward()
    want_out, want_dx, want_dw, want_db = _conv2d_oracle(x.data, w.data, b.data, pad, g)
    np.testing.assert_allclose(out.data, want_out, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(x.grad, want_dx, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(w.grad, want_dw, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(b.grad, want_db, rtol=1e-12, atol=1e-12)


def _serial_conv2d(x, w, b, pad, g):
    """The serial row lowering, written out once in plain numpy: conv2d's
    output and the gradients of sum(out * g). One GEMM per kernel row over
    the whole batch; the widest span is assigned, every other product is made
    fresh and added in span order; the weight gradient is one GEMM per
    kernel row."""
    B, C, H, W = x.shape
    Co, _, kh, kw = w.shape
    Ho, Wo, K = H + 2 * pad - kh + 1, W + 2 * pad - kw + 1, kw * C
    xp = np.zeros((H, B, W + 2 * pad, C), dtype=x.dtype)
    xp[:, :, pad:pad + W] = x.transpose(2, 0, 3, 1)
    windows = np.lib.stride_tricks.sliding_window_view(xp, kw, axis=2)
    cw = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 3)).reshape(H, B * Wo, K)
    wrows = w.transpose(2, 3, 1, 0).reshape(kh, K, Co)
    spans = sorted((lo - hi, i, slice(lo, hi), slice(lo + i - pad, hi + i - pad))
                   for i in range(kh)
                   for lo, hi in [(max(0, pad - i), min(Ho, H + pad - i))] if lo < hi)

    def row_sums(n_rows, width, blocks):
        dst = np.zeros((n_rows, B * Wo, width), dtype=x.dtype)
        for k, (rows, lhs, rhs) in enumerate(blocks):
            prod = (lhs.reshape(-1, lhs.shape[-1]) @ rhs).reshape(dst[rows].shape)
            if k == 0:
                dst[rows] = prod
            else:
                dst[rows] += prod
        return dst

    rows = row_sums(Ho, Co, [(o, cw[s], wrows[i]) for _, i, o, s in spans])
    out = np.ascontiguousarray(rows.reshape(Ho, B, Wo, Co).transpose(1, 3, 0, 2))
    out += b.reshape(1, Co, 1, 1)
    grows = np.ascontiguousarray(g.transpose(2, 0, 3, 1)).reshape(Ho, B * Wo, Co)
    gw = np.zeros((kh, K, Co), dtype=x.dtype)
    for _, i, o, s in spans:
        gw[i] = cw[s].reshape(-1, K).T @ grows[o].reshape(-1, Co)
    dcw = row_sums(H, K, [(s, grows[o], wrows[i].T) for _, i, o, s in spans])
    dx = np.zeros((H, B, W + 2 * pad, C), dtype=x.dtype)
    for j in range(kw):
        dx[:, :, j:j + Wo] += dcw.reshape(H, B, Wo, kw, C)[:, :, :, j]
    return (out, dx[:, :, pad:pad + W].transpose(1, 3, 0, 2),
            gw.reshape(kh, kw, C, Co).transpose(3, 2, 0, 1), g.sum(axis=(0, 2, 3)))


# a batch of one, a batch smaller than three parts and an odd batch; the
# shapes of the region heads, the first backbone conv and two odd kernels;
# all float32 and all float64
@pytest.mark.parametrize("B", [1, 2, 5])
@pytest.mark.parametrize("kernel,pad,channels,size", [
    ((5, 5), 2, (6, 4), (8, 4)), ((3, 3), 1, (3, 16), (32, 16)),
    ((1, 3), 0, (2, 3), (6, 5)), ((3, 5), 2, (4, 2), (3, 2)),
])
@pytest.mark.parametrize("x_dtype,w_dtype", [(np.float32, np.float32),
                                             (np.float64, np.float64)])
def test_conv2d_bytes_match_the_serial_lowering_for_every_part_count(
        monkeypatch, B, kernel, pad, channels, size, x_dtype, w_dtype):
    (kh, kw), (C, Co), (H, W) = kernel, channels, size
    rng = np.random.default_rng(B + kh)
    x = rng.normal(size=(B, C, H, W)).astype(x_dtype)
    w, b = rng.normal(size=(Co, C, kh, kw)).astype(w_dtype), rng.normal(size=Co).astype(w_dtype)
    g = rng.normal(size=(B, Co, H + 2 * pad - kh + 1, W + 2 * pad - kw + 1)).astype(x_dtype)
    want = _serial_conv2d(x, w, b, pad, g)
    real_run, parts = ag._run, []

    def counting_run(tasks):
        parts.append(len(tasks))
        real_run(tasks)

    monkeypatch.setattr(ag, "_run", counting_run)
    monkeypatch.setattr(ag, "_GRAIN", 1)  # split even these small maps
    for workers in (1, 2, 3):
        monkeypatch.setattr(ag, "_WORKERS", workers)
        parts.clear()
        xt, wt, bt = (ag.Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
        out = ag.conv2d(xt, wt, bt, pad=pad)
        out._backward(g)
        assert parts[0] == min(workers, B)  # the first call lowers the batch
        for got, ref in zip((out.data, xt.grad, wt.grad, bt.grad), want):
            ref = np.asarray(ref, dtype=got.dtype)
            if workers == 1 or x_dtype == np.float32:
                assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(ref).tobytes()
            else:
                # all-float64 convs serve gradient checks only; OpenBLAS's
                # small dgemm kernels may round a narrow GEMM's rows otherwise
                # once it is cut into row pieces (Co = 2 with kw*C = 20 here)
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("wide", ["weight", "bias"])
def test_conv2d_refuses_a_parameter_of_another_dtype(wide):
    rng = np.random.default_rng(0)
    x = ag.tensor(rng.normal(size=(1, 2, 4, 4)))
    w, b = ag.tensor(rng.normal(size=(3, 2, 3, 3))), ag.tensor(np.zeros(3))
    if wide == "weight":
        w = ag.tensor(w.data, dtype=np.float64)
    else:
        b = ag.tensor(b.data, dtype=np.float64)
    with pytest.raises(TypeError, match=f"{wide} dtype float64 .* input dtype float32"):
        ag.conv2d(x, w, b, pad=1)


@pytest.mark.parametrize("narrow", ["weight", "bias"])
def test_conv2d_refuses_a_parameter_narrower_than_its_input(narrow):
    rng = np.random.default_rng(0)
    x = ag.tensor(rng.normal(size=(1, 2, 4, 4)), dtype=np.float64)
    w = ag.tensor(rng.normal(size=(3, 2, 3, 3)), dtype=np.float64)
    b = ag.tensor(np.zeros(3), dtype=np.float64)
    if narrow == "weight":
        w = ag.tensor(w.data, dtype=np.float32)
    else:
        b = ag.tensor(b.data, dtype=np.float32)
    with pytest.raises(TypeError, match=f"{narrow} dtype float32 .* input dtype float64"):
        ag.conv2d(x, w, b, pad=1)


def test_error_in_a_helper_part_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(ag, "_WORKERS", 2)
    helper_done = threading.Event()

    def part(k):
        if threading.current_thread() is threading.main_thread():
            assert helper_done.wait(10)
        else:
            helper_done.set()
            raise ValueError(f"part {k} failed")

    with pytest.raises(ValueError, match="failed"):
        ag._run([functools.partial(part, k) for k in range(2)])
    assert helper_done.is_set()  # the error came from a helper


def test_run_takes_every_task_once_under_contention(monkeypatch):
    # more threads than cores, switching as often as the interpreter allows,
    # and three callers sharing one pool: a task taken twice or lost shows
    monkeypatch.setattr(ag, "_WORKERS", 4)
    counts = np.zeros((3, 500), dtype=int)

    def bump(row, k):
        counts[row, k] += 1

    def caller(row):
        for lo in range(0, 500, 50):
            ag._run([functools.partial(bump, row, k) for k in range(lo, lo + 50)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(row,)) for row in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert (counts == 1).all()


def test_conv2d_error_in_a_part_reaches_the_caller_and_the_pool_recovers(monkeypatch):
    monkeypatch.setattr(ag, "_WORKERS", 3)
    monkeypatch.setattr(ag, "_GRAIN", 1)
    real = ag._row_gemms

    def failing_after_first_part(dst, tmp, blocks, lo, hi):
        if lo > 0:
            raise RuntimeError("row block failed")
        real(dst, tmp, blocks, lo, hi)

    x = ag.tensor(np.random.default_rng(3).normal(size=(3, 2, 5, 4)))
    w = ag.tensor(np.random.default_rng(4).normal(size=(2, 2, 3, 3)))
    with monkeypatch.context() as mp:
        mp.setattr(ag, "_row_gemms", failing_after_first_part)
        with pytest.raises(RuntimeError, match="row block failed"):
            ag.conv2d(x, w, pad=1)
    monkeypatch.setattr(ag, "_WORKERS", 1)
    serial = ag.conv2d(x, w, pad=1).data
    monkeypatch.setattr(ag, "_WORKERS", 3)
    assert ag.conv2d(x, w, pad=1).data.tobytes() == serial.tobytes()


def _window_mean_chain(x, fh, fw):
    B, C, H, W = x.shape
    x = x.reshape((B, C, H // fh, fh, W // fw, fw))
    return ag.tmean(ag.tmean(x, axis=5), axis=3)


@pytest.mark.parametrize("prior_grad", ["none", "contiguous", "strided"])
@pytest.mark.parametrize("window", [(2, 2), (2, 1), (1, 3), (3, 2), (2, 3)])
def test_avg_pool_bitwise_equals_mean_chain(window, prior_grad):
    fh, fw = window
    rng = np.random.default_rng(10 * fh + fw)
    data = rng.normal(size=(2, 3, 4 * fh, 3 * fw)).astype(np.float32)
    if prior_grad == "strided":
        # a transposed view, so a gradient laid out like it is not C-contiguous
        data = np.ascontiguousarray(data.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
    g = rng.normal(size=(2, 3, 4, 3)).astype(np.float32)
    prior = rng.normal(size=data.shape).astype(np.float32)
    got = []
    for pool in (_window_mean_chain, ag.avg_pool):
        x = ag.tensor(data, requires_grad=True)
        if prior_grad != "none":
            x.grad = np.zeros_like(x.data)  # keeps the data's memory layout
            x.grad += prior
            assert x.grad.flags.c_contiguous == (prior_grad == "contiguous")
        out = pool(x, fh, fw)
        ag.tsum(ag.mul(out, ag.tensor(g))).backward()
        got.append((out.data, x.grad))
    (want_out, want_grad), (out, grad) = got
    assert out.dtype == grad.dtype == np.float32
    np.testing.assert_array_equal(out, want_out)
    np.testing.assert_array_equal(grad, want_grad)


def test_avg_pool_is_one_mean_node_and_checks_divisibility():
    x = ag.tensor(np.ones((1, 2, 4, 6)), requires_grad=True)
    out = ag.avg_pool(x, 2, 3)
    assert out.shape == (1, 2, 2, 2) and out._op == "mean" and out._parents == (x,)
    with pytest.raises(ag.ShapeError) as exc:
        ag.avg_pool(x, 3, 2)
    assert exc.value.op == "avg_pool"


def test_item_on_size_one_tensor_of_any_rank():
    assert ag.tensor(np.full((1, 1, 1), 2.5)).item() == 2.5
    assert ag.tsum(ag.tensor(np.ones((2, 3)))).item() == 6.0
    with pytest.raises(ag.ShapeError):
        ag.tensor(np.ones(2)).item()


def test_backward_accumulates_additively():
    w = ag.tensor(2.0, dtype=np.float64, requires_grad=True)
    loss = ag.square(w) + ag.square(w)  # 2w^2 -> grad 4w
    loss.backward()
    assert w.grad == pytest.approx(8.0)


def test_grad_zeroing_between_steps():
    w = ag.tensor(2.0, dtype=np.float64, requires_grad=True)
    ag.square(w).backward()
    first = float(w.grad)
    ag.square(w).backward()
    assert w.grad == pytest.approx(2 * first)  # without zeroing it doubles
    w.zero_grad()
    ag.square(w).backward()
    assert w.grad == pytest.approx(first)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_softmax_normalized_and_nonnegative(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=5.0, size=(3, 7))
    out = ag.softmax(ag.tensor(x), axis=1).data
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)


class _Probe(Module):
    def __init__(self):
        self.w1 = Parameter((6, 8))
        self.w2 = Parameter((8, 3))
        self.b = Parameter((3,), init="zeros")


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=10, deadline=None)
def test_composed_graph_matches_finite_differences(seed):
    probe = _Probe().initialize(seed % 1000, dtype=np.float64)
    rng = np.random.default_rng(seed)
    x = ag.tensor(rng.normal(size=(4, 6)), dtype=np.float64)

    def f():
        h = ag.tanh(ag.matmul(x, probe.w1))
        logits = ag.matmul(h, probe.w2) + probe.b
        p = ag.softmax(logits, axis=1)
        return ag.tmean(ag.square(p - ag.tensor(0.3, dtype=np.float64)))

    report = grad_check(f, probe.parameters(), eps=1e-5, tol=1e-4)
    assert report.passed, report.summary()


def test_gradcheck_report_worst_offenders():
    probe = _Probe().initialize(5, dtype=np.float64)
    x = ag.tensor(np.random.default_rng(5).normal(size=(2, 6)), dtype=np.float64)

    def f():
        return ag.tmean(ag.square(ag.matmul(x, probe.w1)))

    report = grad_check(f, probe.parameters(), eps=1e-5, tol=1e-4)
    assert report.passed
    assert report.worst[0].rel_err >= report.worst[-1].rel_err
    assert "PASS" in report.summary()


def test_gradcheck_flags_nonfinite():
    class Bad(Module):
        def __init__(self):
            self.w = Parameter((2,))

    bad = Bad().initialize(0, dtype=np.float64)

    def f():
        return ag.tsum(ag.log(bad.w * ag.tensor(0.0, dtype=np.float64)))

    with pytest.raises(ag.NonFiniteError) as exc:
        grad_check(f, bad.parameters())
    assert exc.value.op == "log"


def test_max_tie_break_first_index():
    x = ag.tensor([[1.0, 3.0, 3.0]], dtype=np.float64, requires_grad=True)
    ag.tsum(ag.tmax(x, axis=1)).backward()
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0]])


def test_concat_and_slice_roundtrip():
    a = ag.tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = ag.tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
    cat = ag.concat([a, b], axis=1)
    np.testing.assert_array_equal(cat.data[:, :3], a.data)
    ag.tsum(cat[:, 3:]).backward()
    np.testing.assert_array_equal(a.grad, np.zeros((2, 3)))
    np.testing.assert_array_equal(b.grad, np.ones((2, 2)))


# --- no_grad ---------------------------------------------------------------


def test_no_grad_outputs_are_plain_leaves():
    w = ag.tensor(np.ones((3, 2)), dtype=np.float64, requires_grad=True)
    x = ag.tensor(np.arange(6.0).reshape(2, 3), dtype=np.float64)
    with ag.no_grad():
        y = ag.tanh(ag.matmul(x, w))[0:1]
    assert y._parents == () and y._backward is None and not y.requires_grad
    np.testing.assert_array_equal(y.data, np.tanh(x.data @ w.data)[0:1])


def test_no_grad_restores_flag_after_nesting_and_exceptions():
    w = ag.tensor(np.ones(3), dtype=np.float64, requires_grad=True)
    with ag.no_grad():
        with ag.no_grad():
            pass
        assert not ag.tsum(w).requires_grad  # the inner exit keeps it off
    with pytest.raises(RuntimeError):
        with ag.no_grad():
            raise RuntimeError("boom")
    loss = ag.tsum(ag.square(w))
    assert loss.requires_grad
    loss.backward()
    np.testing.assert_array_equal(w.grad, 2.0 * w.data)


# --- slice backward ---------------------------------------------------------


@pytest.mark.parametrize("idx", [
    (slice(None), 2),  # basic
    (slice(1, None, 2), Ellipsis, None),  # basic, strided, new axis
    np.int64(1),  # basic, numpy integer
    np.array([2, 0]),  # fancy
    (slice(None), np.array([1, 1, 3, 1])),  # fancy, repeated
])
def test_slice_backward_matches_add_at(idx):
    rng = np.random.default_rng(5)
    x = ag.tensor(rng.normal(size=(3, 4, 5)), dtype=np.float64, requires_grad=True)
    out = x[idx]
    g = rng.normal(size=out.shape)
    prior = rng.normal(size=x.shape)  # backward adds into an existing grad
    x.grad = prior.copy()
    ag.tsum(ag.mul(out, ag.tensor(g, dtype=np.float64))).backward()
    scattered = np.zeros(x.shape)
    np.add.at(scattered, idx, g)
    np.testing.assert_array_equal(x.grad, prior + scattered)


# --- first-gradient adoption ------------------------------------------------


@pytest.mark.parametrize("order", [("relu", "tanh", "conv", "mean", "sum"),
                                   ("conv", "tanh", "relu", "sum", "mean"),
                                   ("tanh", "relu", "conv", "mean", "sum"),
                                   ("mean", "conv", "sum", "relu", "tanh"),
                                   ("sum", "mean", "tanh", "conv", "relu")])
def test_adopted_first_gradient_sums_every_consumer(order):
    # x feeds relu (adopts its mask product), tanh (accumulates a copy), a
    # conv2d (adopts its col2im buffer), a mean and a sum (each adopts its
    # broadcast gradient); the relu output also feeds an add whose backward
    # passes the same upstream array to both of its operands
    rng = np.random.default_rng(21)
    x = ag.tensor(rng.normal(size=(2, 3, 5, 4)), dtype=np.float64, requires_grad=True)
    w = ag.tensor(rng.normal(size=(2, 3, 3, 3)), dtype=np.float64)
    g_relu, g_tanh = rng.normal(size=x.shape), rng.normal(size=x.shape)
    g_conv = rng.normal(size=(2, 2, 5, 4))
    g_mean, g_sum = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 5, 1))
    nodes = {}

    def term(name):
        if name == "relu":
            r = nodes["relu"] = ag.relu(x)
            s = nodes["add"] = r + r
            return ag.tsum(ag.mul(s, ag.tensor(g_relu, dtype=np.float64)))
        if name == "tanh":
            t = nodes["tanh"] = ag.tanh(x)
            return ag.tsum(ag.mul(t, ag.tensor(g_tanh, dtype=np.float64)))
        if name == "mean":
            m = nodes["mean"] = ag.tmean(x, axis=2)
            return ag.tsum(ag.mul(m, ag.tensor(g_mean, dtype=np.float64)))
        if name == "sum":
            s = nodes["sum"] = ag.tsum(x, axis=3, keepdims=True)
            return ag.tsum(ag.mul(s, ag.tensor(g_sum, dtype=np.float64)))
        c = nodes["conv"] = ag.conv2d(x, w, pad=1)
        return ag.tsum(ag.mul(c, ag.tensor(g_conv, dtype=np.float64)))

    loss = term(order[0])
    for name in order[1:]:
        loss = loss + term(name)
    loss.backward()
    _, conv_dx, _, _ = _conv2d_oracle(x.data, w.data, np.zeros(2), 1, g_conv)
    want = (2 * g_relu * (x.data > 0) + g_tanh * (1 - np.tanh(x.data) ** 2)
            + conv_dx + g_mean[:, :, None, :] / 5 + g_sum)
    np.testing.assert_allclose(x.grad, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(nodes["relu"].grad, 2 * g_relu)
    np.testing.assert_array_equal(nodes["add"].grad, g_relu)
    grads = [t.grad for t in (x, *nodes.values())]
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("first", ["softmax", "max"])
def test_softmax_and_max_adopt_their_fresh_gradient_without_aliasing(first):
    # x feeds a softmax and a max; whichever backward runs first adopts its
    # fresh array as x.grad and the other adds into it
    rng = np.random.default_rng(22)
    x = ag.tensor(rng.normal(size=(3, 4)), dtype=np.float64, requires_grad=True)
    g_soft, g_max = rng.normal(size=(3, 4)), rng.normal(size=(3,))
    nodes = {}

    def term(name):
        if name == "softmax":
            s = nodes["softmax"] = ag.softmax(x, axis=1)
            return ag.tsum(ag.mul(s, ag.tensor(g_soft, dtype=np.float64)))
        m = nodes["max"] = ag.tmax(x, axis=1)
        return ag.tsum(ag.mul(m, ag.tensor(g_max, dtype=np.float64)))

    second = "max" if first == "softmax" else "softmax"
    (term(first) + term(second)).backward()
    s = nodes["softmax"].data
    want = s * (g_soft - (g_soft * s).sum(axis=1, keepdims=True))
    want[np.arange(3), x.data.argmax(axis=1)] += g_max
    np.testing.assert_allclose(x.grad, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(nodes["softmax"].grad, g_soft)
    np.testing.assert_array_equal(nodes["max"].grad, g_max)
    grads = [x.grad, nodes["softmax"].grad, nodes["max"].grad]
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)
