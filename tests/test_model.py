"""Whole-network wiring: shapes, branch gating, and config validation."""

from dataclasses import replace

import numpy as np
import pytest

from talnet.config import ModelConfig
from talnet.model import TALNet

CFG = ModelConfig(frame_height=16, frame_width=8, backbone_channels=(4, 8),
                  clip_len=4, d_v=8, d=8, attention_hidden=8, d_g=8, d_p=8,
                  num_classes=5, category_counts=(3, 4, 2))


def _clips(B=2, T=4):
    return np.random.default_rng(0).uniform(size=(B, T, 3, 16, 8)).astype(np.float32)


def test_full_forward_shapes():
    model = TALNet(CFG).initialize(0)
    out = model.forward_clips(_clips())
    assert out["f_app"].shape == (2, CFG.d_g + CFG.n_stripes * CFG.d_p)
    assert out["f_att"].shape == (2, 3 * CFG.d)
    assert len(out["app_logits"]) == 1 + CFG.n_stripes
    assert all(lg.shape == (2, 5) for lg in out["app_logits"])
    assert [lg.shape[1] for lg in out["attr_logits"]] == [3, 4, 2]
    a_s, a_t, _, _ = out["attention_scores"]
    assert a_s.shape == (2, 3, 4) and a_t.shape == (2, 3, 4)
    np.testing.assert_allclose(a_s.data.sum(axis=1), 1.0, atol=1e-5)
    np.testing.assert_allclose(a_t.data.sum(axis=2), 1.0, atol=1e-5)


def test_branch_gating_arguments():
    model = TALNet(CFG).initialize(0)
    out = model.forward_clips(_clips(), att=False)
    assert "f_app" in out and "f_att" not in out and "regions" not in out


def test_forward_hands_out_squashed_regions_per_frame():
    model = TALNet(CFG).initialize(0)
    out = model.forward_clips(_clips(B=2, T=4))
    assert len(out["regions"]) == 3
    for s_x, s_y, t_x, t_y in out["regions"]:
        assert all(v.shape == (8,) for v in (s_x, s_y, t_x, t_y))  # B*T frames
        assert np.all((s_x.data > 0) & (s_x.data <= 1) & (s_y.data > 0) & (s_y.data <= 1))
        assert np.all((t_x.data >= 0) & (t_x.data <= 16 * (1 - s_x.data) + 1e-5))


def test_ablated_configs_drop_outputs():
    app_only = TALNet(replace(CFG, use_att=False)).initialize(0)
    out = app_only.forward_clips(_clips())
    assert "f_att" not in out
    att_only = TALNet(replace(CFG, use_app=False)).initialize(0)
    out = att_only.forward_clips(_clips())
    assert "f_app" not in out


def test_no_ts_context_still_classifies():
    model = TALNet(replace(CFG, use_ts_context=False)).initialize(0)
    out = model.forward_clips(_clips())
    assert out.get("attention_scores") is None
    assert [lg.shape[1] for lg in out["attr_logits"]] == [3, 4, 2]
    assert out["f_att"].shape == (2, 3 * CFG.d_v)


def test_no_spatial_attention_path_runs():
    model = TALNet(replace(CFG, use_spatial_attention=False)).initialize(0)
    assert not any(name.startswith("attention.heads") for name, _ in model.named_parameters())
    out = model.forward_clips(_clips())
    assert out["f_att"].shape == (2, 3 * CFG.d)
    assert out["regions"] == []


def test_descriptors_are_numpy():
    model = TALNet(CFG).initialize(0)
    f_app, f_att = model.descriptors(_clips())
    assert isinstance(f_app, np.ndarray) and isinstance(f_att, np.ndarray)
    assert f_app.shape == (2, CFG.d_g + CFG.n_stripes * CFG.d_p)


def test_stripe_divisibility_validated():
    with pytest.raises(ValueError):
        TALNet(replace(CFG, n_stripes=3))


def test_too_deep_backbone_rejected():
    with pytest.raises(ValueError):
        TALNet(replace(CFG, backbone_channels=(4, 4, 4, 4, 4, 8)))


def test_identical_clips_identical_outputs():
    model = TALNet(CFG).initialize(0)
    clip = _clips(B=1)
    batch = np.concatenate([clip, clip])
    out = model.forward_clips(batch)
    np.testing.assert_array_equal(out["f_app"].data[0], out["f_app"].data[1])
    np.testing.assert_array_equal(out["f_att"].data[0], out["f_att"].data[1])
