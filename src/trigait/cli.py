"""Command-line entry point: synth | train | eval | check.

`--threads N` (else a `threads` line of the `--config` file) pins the
BLAS/OpenMP pool size and must take effect before numpy loads, so this module
defers heavy imports into the subcommand handlers. `--threads 1` is the fully
deterministic mode. Only synth and train draw random numbers; their seed comes
from `--seed`, else (train only) the config file, else TRIGAIT_SEED, else 0.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import FIELD_NAMES, MIN_FRAMES, RunConfig, load_config, parse_config_values

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _apply_thread_env(args) -> None:
    """Pin the BLAS/OpenMP pools to `--threads`, else to the `--config` file's
    `threads`. A file that cannot be read or parsed is left to the subcommand,
    which reports it."""
    threads = args.threads
    if threads is None and getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                threads = parse_config_values(fh.read(), source=args.config).get("threads")
        except (OSError, ValueError):
            pass
    if threads and threads >= 1:
        for var in _THREAD_VARS:
            os.environ[var] = str(threads)


def _env_seed() -> int:
    raw = os.environ.get("TRIGAIT_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"TRIGAIT_SEED must be an integer, got {raw!r}") from None


def _derive_seed(*parts: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence(parts).generate_state(1, dtype=np.uint64)[0])


def _view_list(count: int) -> list[int]:
    import numpy as np

    return sorted({int(round(v)) for v in np.linspace(0, 180, count)})


def _condition_plan(seqs_per_view: int) -> list[tuple[str, int]]:
    """(condition, seq_index) per slot; 6/2/2 NM/BG/CL at the default 10."""
    nm = max(int(round(0.6 * seqs_per_view)), 1)
    bg = max(int(round(0.2 * seqs_per_view)), 1) if seqs_per_view >= 3 else 0
    cl = seqs_per_view - nm - bg
    plan = [("NM", i) for i in range(nm)]
    plan += [("BG", i) for i in range(bg)]
    plan += [("CL", i) for i in range(max(cl, 0))]
    return plan[:seqs_per_view]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    from .data import write_dataset
    from .synth import render_sequence, synth_subject

    if args.subjects < 2:
        raise ValueError(f"need at least 2 subjects, got {args.subjects}")
    if args.frames < MIN_FRAMES:
        raise ValueError(
            f"--frames {args.frames} < {MIN_FRAMES}: the temporal stream needs T >= {MIN_FRAMES}"
        )
    out = args.out
    seed = args.seed if args.seed is not None else _env_seed()
    views = _view_list(args.views)
    plan = _condition_plan(args.seqs_per_view)

    def pairs():
        for sid in range(args.subjects):
            subject = synth_subject(_derive_seed(seed, sid))
            for view in views:
                for slot, (condition, qi) in enumerate(plan):
                    render_seed = _derive_seed(seed, sid, view, slot)
                    ske, sil = render_sequence(
                        subject, condition, view, args.frames, render_seed,
                        subject_id=sid, seq_index=qi,
                    )
                    yield ske, sil

    ds = write_dataset(out, pairs())
    print(f"wrote {len(ds)} sequences for {args.subjects} subjects "
          f"x {len(views)} views under {out}")
    return 0


def _config_from_args(args) -> RunConfig:
    """The `--config` file's values, then TRIGAIT_SEED when neither `--seed`
    nor the file sets a seed, then every flag given: a flag's dest is the
    field it sets."""
    values = {}
    if args.config:
        with open(args.config) as fh:
            values = parse_config_values(fh.read(), source=args.config)
    if args.seed is None and "seed" not in values:
        values["seed"] = _env_seed()
    values.update((k, v) for k, v in vars(args).items() if k in FIELD_NAMES and v is not None)
    return RunConfig(**values)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file; flags here override it")
    p.add_argument("--iterations", type=int, default=None, help="total training iterations")
    p.add_argument("--miniature", action="store_true", default=None,
                   help="desk-scale shape set (16x16 input, small channels)")
    p.add_argument("--partition-mode", choices=["motion", "uniform"], default=None,
                   help="fusion silhouette partitioning (uniform = ablation wiring)")
    p.add_argument("--lr", type=float, default=None, help="initial learning rate")
    p.add_argument("--margin", type=float, default=None, help="triplet margin")
    p.add_argument("--log-every", type=int, default=None)
    p.add_argument("--checkpoint-every", type=int, default=None)
    p.add_argument("--batch-subjects", type=int, default=None)
    p.add_argument("--batch-sequences", type=int, default=None)
    p.add_argument("--batch-frames", type=int, default=None)
    p.add_argument("--eval-max-frames", type=int, default=None,
                   help="cap frames per sequence at embedding time (0 = all)")


def cmd_train(args) -> int:
    from .data import read_dataset
    from .train import Trainer

    cfg = _config_from_args(args)
    dataset = read_dataset(args.data)
    trainer = Trainer(dataset, cfg, args.out, resume=args.resume)

    def progress(s):
        print(
            f"iter {s['iteration']:>6}  lr {s['lr']:.2e}  "
            f"L_tri {s['l_tri']:.4f}  L_ce {s['l_ce']:.4f}  L {s['l']:.4f}  "
            f"active {s['active_triplet_fraction']:.3f}"
        )

    path = trainer.run(progress=progress)
    print(f"checkpoint: {path}")
    print(f"log: {trainer.log_path}")
    return 0


def cmd_eval(args) -> int:
    import numpy as np

    from .data import read_dataset
    from .evaluate import GALLERY_NM_COUNT, embed_all, emit_report, rank1, split_gallery_probe
    from .fusion import PARTS, part_rows
    from .model import preprocess_silhouettes
    from .train import load_training_checkpoint

    expect = load_config(args.config) if args.config else None
    loaded = load_training_checkpoint(args.checkpoint, expect_config=expect)
    cfg = loaded.config.resolved()
    dataset = read_dataset(args.data)

    records = dataset.records()
    split = split_gallery_probe(records)
    if not split.gallery:
        raise ValueError(
            f"eval: gallery is empty (no NM sequences with seq_index < {GALLERY_NM_COUNT})"
        )
    emb, labels, views, conditions, _ = embed_all(
        loaded.net,
        dataset,
        preprocess=lambda f: preprocess_silhouettes(f, cfg.input_size),
        max_frames=cfg.eval_max_frames,
    )
    stem_index = {r.stem: i for i, r in enumerate(records)}
    gal = np.array([stem_index[r.stem] for r in split.gallery])
    prb = np.array([stem_index[r.stem] for r in split.probes])
    report = rank1(
        emb[gal], labels[gal], views[gal],
        emb[prb], labels[prb], views[prb], conditions[prb],
    )

    os.makedirs(args.out, exist_ok=True)
    paths = [os.path.join(args.out, name) for name in ("report.tsv", "report.md")]
    for path, fmt in zip(paths, ("tsv", "markdown")):
        with open(path, "w") as fh:
            fh.write(emit_report(report, fmt))

    if args.dump_ranges:
        h_feat = cfg.input_size // 2
        with open(args.dump_ranges, "w") as fh:
            fh.write("stem\tpart\th_f\th_e\trow_lo\trow_hi\n")
            for rec in records:
                joints = dataset.load_pair(rec)[1][: cfg.eval_max_frames or None]
                rows, extents = part_rows(joints[None], h_feat, cfg.partition_mode)
                for (name, _), (lo, hi), (h_f, h_e) in zip(
                    PARTS, rows[0].tolist(), extents[0].tolist()
                ):
                    fh.write(f"{rec.stem}\t{name}\t{h_f!r}\t{h_e!r}\t{lo}\t{hi}\n")

    probed = {r.condition for r in split.probes}
    unprobed = [c for c in report.conditions if c not in probed]
    if unprobed:
        print(f"warning: no probes for {', '.join(unprobed)}; "
              "the mean covers the other conditions", file=sys.stderr)
    for cond in report.conditions:
        print(f"{cond} {100.0 * report.condition_mean(cond):.1f}")
    print(f"Mean {100.0 * report.grand_mean():.1f}")
    print("reports: " + " ".join(paths))
    return 0


def cmd_check(args) -> int:
    from .checks import run_checks

    return run_checks(only=args.only)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigait",
        description="Tri-branch gait embedding: synthesize data, train, "
        "evaluate rank-1 accuracy, and run the property suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic gait dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--subjects", type=int, default=8, help="number of subjects (>= 2)")
    p.add_argument("--views", type=int, default=11, help="number of azimuth views")
    p.add_argument("--seqs-per-view", type=int, default=10,
                   help="sequences per view (6 NM / 2 BG / 2 CL at the default 10)")
    p.add_argument("--frames", type=int, default=40, help=f"frames per sequence (>= {MIN_FRAMES})")
    p.add_argument("--seed", type=int, default=None, help="default: TRIGAIT_SEED, else 0")
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--data", required=True, help="dataset directory (from synth)")
    p.add_argument("--out", required=True, help="output directory for checkpoint + log")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--seed", type=int, default=None,
                   help="default: the config file's seed, else TRIGAIT_SEED, else 0")
    p.add_argument("--threads", type=int, default=None)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="rank-1 gallery/probe evaluation")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--checkpoint", required=True, help="model checkpoint (.tgck)")
    p.add_argument("--out", required=True, help="directory for report.tsv / report.md")
    p.add_argument("--config", help="reject the checkpoint unless it matches this config")
    p.add_argument("--dump-ranges", help="write per-sequence part ranges TSV to this path")
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check", help="run the property/oracle suite")
    p.add_argument("--only", help="run a single check group (e.g. gem, grad, rank1)")
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _apply_thread_env(args)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
