"""Tests of the benchmark itself: `python3 -m pytest -q perfbench`."""

import numpy as np
import pytest

from talnet import autograd as ag
from talnet import retrieval
from talnet.config import DataConfig
from tracing import Span, Tracer, instrumented, layer_patches, layer_times, self_times
from workloads import (EMBED_LENGTHS, embed_dataset, generate, rank_oracle, rank_records,
                       check_ranking)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span("retrieval.evaluate", 0.0, 10.0, -1, 1),
        Span("retrieval.distance_matrix", 1.0, 4.0, 0, 1),
        Span("autograd.bwd", 3.0, 6.0, 0, 1),  # overlaps its sibling by 1
        Span("autograd.bwd.conv2d", 4.0, 5.5, 2, 1),
        Span("losses.fwd", 8.0, 12.0, 0, 1),  # runs past its parent's end
        Span("losses.fwd", 9.0, 9.5, 4, 1),
    ]
    assert self_times(spans) == pytest.approx([10 - (5 + 2), 3, 1.5, 1.5, 3.5, 0.5])
    totals, calls = layer_times(spans)
    assert totals["retrieval.evaluate"] == pytest.approx(3)  # excludes distance_matrix
    assert totals["autograd.bwd"] == pytest.approx(3)  # includes its per-op child
    assert totals["losses.fwd"] == pytest.approx(4)  # nested same-name calls once
    assert calls["losses.fwd"] == 2


def test_traced_backward_times_each_op_and_leaves_gradients_unchanged():
    x = np.arange(6, dtype=np.float32).reshape(2, 3) / 7

    def grads():
        w = ag.Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        ag.tsum(ag.relu(ag.matmul(ag.Tensor(x), w))).backward()
        return w.grad

    plain = grads()
    tracer = Tracer()
    original = ag.Tensor.backward
    with instrumented(layer_patches(tracer)):
        traced = grads()
    assert ag.Tensor.backward is original
    np.testing.assert_array_equal(traced, plain)
    names = {s.name for s in tracer.spans}
    assert {"autograd.bwd", "autograd.bwd.matmul", "autograd.bwd.relu",
            "autograd.bwd.sum"} <= names
    assert tracer.counts["autograd.graph_nodes"] == 3
    assert tracer.counts["autograd.nodes.matmul"] == 1


def test_rank_oracle_accepts_evaluate_and_rejects_a_permuted_ranking():
    data = rank_records(0)
    result = retrieval.evaluate(data.queries, data.gallery, lambda_sim=0.3)
    oracle = rank_oracle(data.queries, data.gallery, 0.3)
    assert not any(check_ranking(result, oracle, data.duplicates))

    sid, ranked, dist = result.per_query[5]
    swapped = ranked[:]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    result.per_query[5] = (sid, swapped, dist)
    failed = check_ranking(result, oracle, data.duplicates)
    assert failed[5] and sum(failed) == 1

    result.mean_ap += 1e-6
    assert all(check_ranking(result, oracle, data.duplicates))


def test_rank_duplicates_tie_and_come_out_in_gallery_order():
    data = rank_records(1)
    oracle = rank_oracle(data.queries, data.gallery, 0.3)
    by_sid = {g.sequence_id: g for g in data.gallery}
    seen = 0
    for group in data.duplicates:
        a, b = (by_sid[s] for s in group)
        assert np.array_equal(a.f_app, b.f_app) and np.array_equal(a.f_att, b.f_att)
        for order in oracle.orders:
            if group[0] in order:
                assert order.index(group[0]) < order.index(group[1])
                seen += 1
    assert seen > 0


@pytest.mark.parametrize("make", [
    lambda seed: [s.frames for s in generate(DataConfig(seed=seed)).sequences],
    lambda seed: [s.frames for s in embed_dataset(seed).sequences],
    lambda seed: [r.f_app for r in rank_records(seed).gallery],
])
def test_generators_are_deterministic_per_seed_and_differ_across_seeds(make):
    first, again, other = make(3), make(3), make(4)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(first, other))


def test_embed_sequences_span_one_to_four_clips_and_include_padded_ones():
    lengths = sorted(len(s.frames) for s in embed_dataset(0).sequences)
    assert lengths == sorted(EMBED_LENGTHS * 2)
    assert min(lengths) < 8 and max(lengths) // 8 == 4
