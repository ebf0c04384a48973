"""Spans recorded from outside the program, and the layer metrics built on them.

Every span is timed by the benchmark's own wrappers around the public
functions of `talnet`; nothing inside `src/` is instrumented. A wrapper is
installed where the name is looked up at call time: a class attribute for
methods (`SpatialAttentionBlock.__call__`, `SGD.step`, `Tensor.backward`) and
the importing module's global for names bound with `from ... import`
(`trainer.pk_sample`, `trainer.save_checkpoint`).
"""

from __future__ import annotations

import collections
import contextlib
import json
from time import perf_counter

from talnet import appearance, attention, backbone, losses, nn, retrieval, trainer, ts_context
from talnet import autograd as ag
from talnet.model import TALNet

OP_TAGS = ("add", "sub", "mul", "div", "matmul", "concat", "stack", "reshape",
           "transpose", "slice", "sigmoid", "tanh", "relu", "exp", "log", "square",
           "sum", "mean", "max", "softmax", "conv2d", "grid_sample")

FORWARD_LAYERS = ("backbone.fwd", "attention.fwd", "ts_context.fwd", "appearance.fwd",
                  "losses.fwd")
PER_OP_TIMES = (FORWARD_LAYERS + ("autograd.bwd",)
                + tuple(f"autograd.bwd.{op}" for op in OP_TAGS)
                + ("trainer.sgd_step", "data.batch", "retrieval.embed",
                   "retrieval.distance_matrix", "retrieval.evaluate"))
PER_CALL_TIMES = ("nn.checkpoint_save", "nn.checkpoint_load")
GRAPH_COUNTS = ("autograd.graph_nodes",) + tuple(f"autograd.nodes.{op}" for op in OP_TAGS)


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace_id")

    def __init__(self, name, start, end, parent, trace_id):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index into the span list, -1 for a root
        self.trace_id = trace_id  # shared by every span of one step or call


class Tracer:
    """Spans kept in memory, plus counts taken at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.trace_id = 0
        self._stack = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), None, parent, self.trace_id))
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()].end = perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def new_trace(self):
        self.trace_id += 1

    def wrap(self, fn, name, new_trace=False):
        def traced(*args, **kwargs):
            if new_trace:
                self.new_trace()
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "trace_id": s.trace_id}) + "\n")


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for lo, hi in sorted((max(spans[k].start, s.start), min(spans[k].end, s.end))
                             for k in kids):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def layer_times(spans):
    """Summed self time per metric name. A span counts towards its own name
    and every dotted prefix of it, so `autograd.bwd` includes the per-op
    `autograd.bwd.<op>` spans while `retrieval.evaluate` excludes its
    `retrieval.distance_matrix` child."""
    totals = collections.Counter()
    calls = collections.Counter()
    for s, t in zip(spans, self_times(spans)):
        parts = s.name.split(".")
        for k in range(1, len(parts) + 1):
            totals[".".join(parts[:k])] += t
        calls[s.name] += 1
    return totals, calls


def graph_nodes(roots):
    """Every node reachable from `roots` through `_parents`, each once."""
    seen, stack, nodes = set(), list(roots), []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


def count_graph(tracer, nodes):
    """Op-node count per tag and the bytes those nodes hold; leaves
    (parameters and inputs) are not counted."""
    for node in nodes:
        if node._op == "leaf":
            continue
        tracer.counts["autograd.graph_nodes"] += 1
        tracer.counts[f"autograd.nodes.{node._op}"] += 1
        tracer.counts["autograd.graph_bytes"] += node.data.nbytes


def _traced_backward(tracer, backward):
    def traced(loss):
        with tracer.span("autograd.bwd"):
            with tracer.span("trace.graph_walk"):
                nodes = graph_nodes([loss])
                count_graph(tracer, nodes)
                for node in nodes:
                    if node._backward is not None:
                        node._backward = tracer.wrap(node._backward, f"autograd.bwd.{node._op}")
            return backward(loss)

    return traced


def _graph_counting_forward(tracer, forward):
    """Counts the graph an inference forward builds (no backward runs then)."""
    def traced(model, *args, **kwargs):
        out = forward(model, *args, **kwargs)
        with tracer.span("trace.graph_walk"):
            roots = []
            for v in out.values():
                roots.extend(v if isinstance(v, (list, tuple)) else [v])
            count_graph(tracer, graph_nodes(r for r in roots if isinstance(r, ag.Tensor)))
        return out

    return traced


def layer_patches(tracer, count_forward_graph=False):
    """(owner, attribute, replacement) for every layer boundary traced."""
    w = tracer.wrap
    patches = [
        (backbone.ConvBackbone, "__call__", w(backbone.ConvBackbone.__call__, "backbone.fwd")),
        (attention.SpatialAttentionBlock, "__call__",
         w(attention.SpatialAttentionBlock.__call__, "attention.fwd")),
        (ts_context.TemporalSemanticBlock, "__call__",
         w(ts_context.TemporalSemanticBlock.__call__, "ts_context.fwd")),
        (appearance.AppearanceBranch, "__call__",
         w(appearance.AppearanceBranch.__call__, "appearance.fwd")),
        (ag.Tensor, "backward", _traced_backward(tracer, ag.Tensor.backward)),
        (trainer.SGD, "step", w(trainer.SGD.step, "trainer.sgd_step")),
        (trainer, "pk_sample", w(trainer.pk_sample, "data.batch", new_trace=True)),
        (trainer, "random_erase", w(trainer.random_erase, "data.batch")),
        (trainer, "batch_arrays", w(trainer.batch_arrays, "data.batch")),
        (trainer, "save_checkpoint", w(trainer.save_checkpoint, "nn.checkpoint_save")),
        (nn, "save_checkpoint", w(nn.save_checkpoint, "nn.checkpoint_save")),
        (nn, "load_checkpoint", w(nn.load_checkpoint, "nn.checkpoint_load")),
        (retrieval, "distance_matrix", w(retrieval.distance_matrix, "retrieval.distance_matrix")),
    ]
    for name in ("triplet_batch_hard", "ce_label_smooth", "attribute_loss"):
        patches.append((losses, name, w(getattr(losses, name), "losses.fwd")))
    if count_forward_graph:
        patches.append((TALNet, "forward_clips",
                        _graph_counting_forward(tracer, TALNet.forward_clips)))
    return patches


@contextlib.contextmanager
def instrumented(patches):
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, repl in patches:
            setattr(owner, attr, repl)
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def per_layer_metrics(tracer, n_ops):
    """Per-layer figures normalised per operation (step, sequence or query);
    checkpoint times are per save or load call."""
    totals, calls = layer_times(tracer.spans)
    out = {}
    for name in PER_OP_TIMES:
        out[f"{name}_s"] = (totals[name] / n_ops, "s")
    for name in PER_CALL_TIMES:
        out[f"{name}_s"] = (totals[name] / calls[name] if calls[name] else 0.0, "s")
    for name in GRAPH_COUNTS:
        out[name] = (tracer.counts[name] / n_ops, "count")
    out["autograd.graph_mb"] = (tracer.counts["autograd.graph_bytes"] / n_ops / 2**20, "MiB")
    return out
