"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
TALNET_OUT_DIR overrides the default output directory.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


def _out_dir(args):
    return os.environ.get("TALNET_OUT_DIR", args.out)


def _load_run_config(args):
    from .config import RunConfig, apply_overrides, load_config

    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = []
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        overrides.append((key.strip(), val.strip()))
    return apply_overrides(cfg, overrides)


def cmd_synth(args):
    from .data import generate_from_config, save_dataset

    cfg = _load_run_config(args)
    dataset = generate_from_config(cfg.data)
    out = _out_dir(args)
    save_dataset(out, dataset)
    print(f"wrote {len(dataset.sequences)} sequences to {out}")
    return EXIT_OK


def _dataset(args, cfg):
    from .data import generate_from_config, load_dataset

    if args.data_dir:
        return load_dataset(args.data_dir)
    return generate_from_config(cfg.data)


def cmd_train(args):
    from .data import train_test_split
    from .trainer import DivergenceError, train

    cfg = _load_run_config(args)
    dataset = _dataset(args, cfg)
    train_set, _ = train_test_split(dataset, cfg.data.test_seqs_per_id)
    out = _out_dir(args)
    try:
        _, ckpt, log = train(cfg.model, cfg.train, train_set, out, quiet=args.quiet)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"checkpoint: {ckpt}\nloss log: {log}")
    return EXIT_OK


def _load_model(args, cfg, dataset):
    """The run's model with `--checkpoint` loaded; a checkpoint saved under
    another model config is a data error, even when every shape matches."""
    from .nn import load_checkpoint
    from .trainer import build_model, model_config_hash

    model = build_model(cfg.model, dataset, cfg.train.seed)
    saved = load_checkpoint(args.checkpoint, model)["model_config_hash"]
    expected = model_config_hash(model)
    if saved != expected:
        raise ValueError(f"checkpoint {args.checkpoint} has model config hash {saved}, "
                         f"but this run's model config hashes to {expected}")
    return model


def cmd_eval(args):
    from .data import train_test_split
    from .retrieval import (embed_sequences, evaluate, metrics_report, query_gallery_split,
                            raw_pixel_record, write_embeddings)

    cfg = _load_run_config(args)
    dataset = _dataset(args, cfg)
    _, test_set = train_test_split(dataset, cfg.data.test_seqs_per_id)
    model = _load_model(args, cfg, dataset)
    records = embed_sequences(test_set.sequences, model, cfg.model.clip_len)
    queries, gallery = query_gallery_split(records)
    result = evaluate(queries, gallery, lambda_sim=cfg.train.lambda_sim)
    out = _out_dir(args)
    os.makedirs(out, exist_ok=True)
    write_embeddings(os.path.join(out, "embeddings.tsv"), records)
    report = metrics_report(result)
    with open(os.path.join(out, "metrics.tsv"), "w") as fh:
        fh.write(report)
    # the untrained reference: frame-averaged raw pixels on the same split
    queries, gallery = query_gallery_split([raw_pixel_record(s) for s in test_set.sequences])
    with open(os.path.join(out, "baseline.tsv"), "w") as fh:
        fh.write(metrics_report(evaluate(queries, gallery)))
    print(report, end="")
    return EXIT_OK


def cmd_ablate(args):
    from .trainer import ablate, write_ablation_table

    cfg = _load_run_config(args)
    dataset = _dataset(args, cfg)
    out = _out_dir(args)
    os.makedirs(out, exist_ok=True)
    seeds = tuple(int(s) for s in args.seeds.split(","))
    variants = args.variants.split(",") if args.variants else None
    rows = ablate(cfg.model, cfg.train, dataset, out, variants=variants,
                  seeds=seeds, quiet=args.quiet,
                  test_seqs_per_id=cfg.data.test_seqs_per_id)
    table = os.path.join(out, "ablation.csv")
    write_ablation_table(table, rows)
    print(f"{'variant':<16} rank-1  mAP")
    for name, r1, m in rows:
        print(f"{name:<16} {r1:.4f}  {m:.4f}")
    print(f"table: {table}")
    return EXIT_OK


def cmd_gradcheck(args):
    from .checks import run_all

    reports = run_all(tol=args.tol, eps=args.eps)
    ok = True
    for name, rep in reports.items():
        status = "PASS" if rep.passed else "FAIL"
        worst = rep.worst[0].rel_err if rep.worst else 0.0
        print(f"{status} {name}: worst rel err {worst:.3e} ({rep.checked} coords)")
        ok &= rep.passed
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_dump_attention(args):
    from . import autograd as ag
    from .attention import AffineParams, region_vertices
    from .data import split_clips

    cfg = _load_run_config(args)
    dataset = _dataset(args, cfg)
    model = _load_model(args, cfg, dataset)
    for enabled, branch in ((model.cfg.use_att, "attribute branch"),
                            (model.cfg.use_spatial_attention, "spatial attention")):
        if not enabled:
            print(f"error: {branch} is disabled in this config", file=sys.stderr)
            return EXIT_USAGE
    seq = next((s for s in dataset.sequences if s.sequence_id == args.sequence), None)
    if seq is None:
        print(f"error: sequence {args.sequence} not found", file=sys.stderr)
        return EXIT_DATA
    clip = split_clips(seq, model.cfg.clip_len)[0]
    with ag.no_grad():  # a single-clip batch, so region row t is frame t
        out = model.forward_clips(clip.frames[None], rng=np.random.default_rng(0))
    H, W = model.attention.frame_hw
    lines = ["attribute\tframe\ttop\tleft\tbottom\tright"]
    for name, region in zip(dataset.schema.names, out["regions"]):
        for t, params in enumerate(zip(*(v.data.tolist() for v in region))):
            bounds = region_vertices(AffineParams(*params), H, W).normalized_bounds
            lines.append("\t".join([name, str(t)] + [f"{x:.4f}" for x in bounds]))
    outdir = _out_dir(args)
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "regions.tsv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    scores = out.get("attention_scores")
    if scores is not None:
        a_s, a_t = scores[0].data[0], scores[1].data[0]
        np.savetxt(os.path.join(outdir, "semantic_scores.tsv"), a_s, delimiter="\t", fmt="%.6f")
        np.savetxt(os.path.join(outdir, "temporal_scores.tsv"), a_t, delimiter="\t", fmt="%.6f")
    print(f"wrote attention dumps to {outdir}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="talnet", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def run_config(p, data_dir=True):
        p.add_argument("--config", help="plain key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry, e.g. model.d=32")
        p.add_argument("--out", default="out", help="output directory")
        if data_dir:
            p.add_argument("--data-dir",
                           help="load a dataset written by `synth` instead of regenerating")

    p = sub.add_parser("synth", help="generate a synthetic dataset on disk")
    run_config(p, data_dir=False)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="two-stage training run")
    run_config(p)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="CMC/mAP evaluation of a checkpoint")
    run_config(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="train and compare ablation variants")
    run_config(p)
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--variants", help="comma-separated variant names (default: all)")
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--eps", type=float, default=1e-5)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("dump-attention", help="region and score tables for one sequence")
    run_config(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sequence", type=int, default=0)
    p.set_defaults(fn=cmd_dump_attention)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage; remap
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    if not getattr(args, "fn", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except (FileNotFoundError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
