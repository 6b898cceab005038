"""The benchmark's three closed-loop workloads and their correctness checks.

Each workload has a set-up, a timed window and checks:

- train-mini: `Trainer.run` on the miniature recipe (8 subjects x 8
  sequences x 5 frames, lr 3e-3), one step after another, checkpoint saved
  at the end. One operation is one training step.
- eval-mini: `load_training_checkpoint` -> `embed_all` -> `split_gallery_probe`
  -> `rank1` over an 8 x 11 x 10 dataset. One operation is one embed batch.
- synth-io: `render_sequence` + `write_dataset`, warm `load_pair` passes and
  TGCK save/load round trips. One operation is one round: 16 sequences
  rendered and written by one `write_dataset` call, read back by
  `read_dataset` and LOAD_PASSES warm `load_pair` passes, then
  CHECKPOINT_TRIPS save/load round trips of the training state.

Inputs come only from the workload seed. A window runs operations until
`seconds` have passed and at least MIN_SAMPLES operations were timed, so
the median has ten samples on either side. Datasets and training states that
a set-up needs are made by the `trigait` command line in a child process, so
the workload process's peak RSS is that of its timed path.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from trigait import checkpoint, data, evaluate, model, synth
from trigait import train as train_mod
from trigait.config import RunConfig

from tracing import TARGETS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE_PATH = HERE / "reference.json"
CHILD_TIMEOUT_S = 150

clock = time.perf_counter

VIEWS = tuple(range(0, 181, 18))
CONDITIONS = ("NM", "BG", "CL")


@dataclass(frozen=True)
class Sizes:
    subjects: int = 8
    views: int = 4
    seqs_per_view: int = 4
    frames: int = 10
    batch_subjects: int = 8
    batch_sequences: int = 8
    setup_iterations: int = 2       # steps of the set-up's `trigait train`


EMBED_BATCH = 16        # eval-mini: sequences per embed batch
# synth-io: per round of 16 sequences (2 per subject, about 0.3 s of
# rendering), warm read passes and TGCK round trips sized so that reads and
# checkpoints each take about a quarter of the round.
ROUND_SEQS = 2
LOAD_PASSES = 200
CHECKPOINT_TRIPS = 25

MIN_SAMPLES = 20

SIZES = {
    "train-mini": Sizes(),
    "eval-mini": Sizes(views=11, seqs_per_view=10, frames=30),
    # the state dataset only feeds the one step that creates momentum buffers
    "synth-io": Sizes(views=1, seqs_per_view=2, frames=30, batch_sequences=2, setup_iterations=1),
}

# Canonical problem whose loss trajectory is recorded in reference.json.
REFERENCE_SIZES = Sizes(subjects=4, views=1, seqs_per_view=2, frames=8,
                        batch_subjects=4, batch_sequences=2)
REFERENCE_SEED = 0
REFERENCE_STEPS = 4
# Reordering float64 sums moves these losses by ~1e-15 relative; a gradient
# off by 1% in a single conv bias moves them by ~1e-8 within four steps.
REFERENCE_RTOL = 1e-10


class Enough(Exception):
    """Raised from the progress callback to end a time-bounded `Trainer.run`."""


@dataclass
class Window:
    """What one timed window measured."""

    op_s: list[float] = field(default_factory=list)   # per closed-loop operation
    seqs: int = 0                # sequences through the measured path
    busy_s: float = 0.0          # wall time those sequences took
    named: dict = field(default_factory=dict)          # name -> (value, unit, n)
    fingerprint: list = field(default_factory=list)    # exact outputs
    checks: list = field(default_factory=list)         # (name, ok, detail)


def percentile(samples, q: float):
    """The q-quantile, or None unless at least ten samples lie beyond it."""
    if len(samples) * (1.0 - q) < 10:
        return None
    return float(np.quantile(np.asarray(samples), q))


def op_percentiles(prefix: str, op_s: list[float]) -> dict:
    out = {}
    for q in (0.5, 0.9):
        v = percentile(op_s, q)
        out[f"{prefix}_ms_p{int(q * 100)}"] = (None if v is None else 1e3 * v, "ms", len(op_s))
    return out


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def trigait(*argv) -> str:
    """Run the `trigait` command line in a child process; returns its output."""
    proc = subprocess.run(
        [sys.executable, "-m", "trigait.cli", *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"trigait {argv[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def synthesize(out: Path, seed: int, sizes: Sizes) -> data.GaitDataset:
    """The `trigait synth` path."""
    trigait("synth", "--out", out, "--subjects", sizes.subjects, "--views", sizes.views,
            "--seqs-per-view", sizes.seqs_per_view, "--frames", sizes.frames, "--seed", seed)
    return data.read_dataset(out)


def train_settings(seed: int, sizes: Sizes) -> dict:
    """The `trigait train --miniature --lr 3e-3 --threads 1` settings."""
    return dict(
        miniature=True, lr=3e-3, seed=seed, threads=1,
        batch_subjects=sizes.batch_subjects, batch_sequences=sizes.batch_sequences,
        log_every=1, checkpoint_every=10**9, eval_max_frames=30,
    )


def train_config(seed: int, sizes: Sizes) -> RunConfig:
    return RunConfig(**train_settings(seed, sizes))


def train_checkpoint(dataset: data.GaitDataset, out: Path, seed: int, sizes: Sizes) -> Path:
    """`trigait train` for `sizes.setup_iterations` steps; returns the checkpoint."""
    flags = ["--iterations", sizes.setup_iterations]
    for key, value in train_settings(seed, sizes).items():
        flag = "--" + key.replace("_", "-")
        flags += [flag] if value is True else [flag, value]
    stdout = trigait("train", "--data", dataset.root, "--out", out, *flags)
    lines = [ln for ln in stdout.splitlines() if ln.startswith("checkpoint: ")]
    return Path(lines[-1].split(": ", 1)[1])


def run_training(trainer, seconds: float):
    """Closed-loop `Trainer.run` until the window is over; returns
    (step durations, loss triples, window seconds). Saves the checkpoint."""
    stamps = [clock()]
    losses = []

    def progress(s):
        stamps.append(clock())
        losses.append((s["l_tri"], s["l_ce"], s["l"]))
        if stamps[-1] - stamps[0] >= seconds and len(losses) >= MIN_SAMPLES:
            raise Enough

    with contextlib.suppress(Enough):
        trainer.run(iterations=trainer.iteration + 10**9, progress=progress)
    trainer.save()
    return list(np.diff(stamps)), losses, clock() - stamps[0]


def evaluate_once(net, dataset, input_size: int, max_frames: int, stamps=None):
    """The `trigait eval` path from a loaded net to the rank-1 report.

    `stamps` collects the start time of every embed batch."""

    def preprocess(frames):
        if stamps is not None:
            stamps.append(clock())
        return model.preprocess_silhouettes(frames, input_size)

    emb, labels, views, conditions, records = evaluate.embed_all(
        net, dataset, preprocess=preprocess, batch_size=EMBED_BATCH, max_frames=max_frames
    )
    if stamps is not None:
        stamps.append(clock())
    split = evaluate.split_gallery_probe(records)
    index = {r.stem: i for i, r in enumerate(records)}
    gal = np.array([index[r.stem] for r in split.gallery], dtype=np.int64)
    prb = np.array([index[r.stem] for r in split.probes], dtype=np.int64)
    report = evaluate.rank1(
        emb[gal], labels[gal], views[gal],
        emb[prb], labels[prb], views[prb], conditions[prb],
    )
    return emb, labels, views, conditions, gal, prb, report


def rank1_matches_oracle(emb, labels, views, conditions, gal, prb, report) -> tuple[bool, str]:
    """Exhaustive nearest-neighbour oracle over direct part-wise differences.

    A cell may differ from the oracle only by probes whose two nearest
    gallery entries are tied to 1e-9 relative."""
    for cond in report.conditions:
        for pi, pv in enumerate(report.views):
            sel_p = prb[(conditions[prb] == cond) & (views[prb] == pv)]
            for gi, gv in enumerate(report.views):
                sel_g = gal[views[gal] == gv]
                cell = report.rank1[cond][pi, gi]
                if sel_p.size == 0 or sel_g.size == 0:
                    if not np.isnan(cell):
                        return False, f"{cond} {pv}->{gv}: expected no value, got {cell}"
                    continue
                correct = ties = 0
                for i in sel_p:
                    d = np.linalg.norm(emb[sel_g] - emb[i], axis=1).sum(axis=1)
                    correct += int(labels[sel_g[int(np.argmin(d))]] == labels[i])
                    if d.size > 1:
                        lo, nxt = np.partition(d, 1)[:2]
                        ties += int(nxt - lo <= 1e-9 * lo)
                oracle = correct / sel_p.size
                if abs(cell - oracle) > ties / sel_p.size + 1e-12:
                    return False, f"{cond} {pv}->{gv}: rank1 {cell} vs oracle {oracle}"
    return True, ""


def arrays_identical(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def render_pairs(subjects, seed: int, round_index: int, per_subject: int, frames: int, keep=None):
    """Rendered (skeleton, silhouette) pairs; `keep` gets every pair."""
    for sid, subject in enumerate(subjects):
        for q in range(per_subject):
            render_seed = int(np.random.SeedSequence((seed, round_index, sid, q)).generate_state(1)[0])
            pair = synth.render_sequence(
                subject, CONDITIONS[(sid + q) % 3], VIEWS[(sid + q) % len(VIEWS)], frames,
                render_seed, subject_id=sid, seq_index=q,
            )
            if keep is not None:
                keep.append(pair)
            yield pair


def checkpoint_roundtrip(path: Path, state: dict) -> tuple[float, float, bool]:
    t0 = clock()
    checkpoint.save_checkpoint(path, state)
    t1 = clock()
    got = checkpoint.load_checkpoint(path)
    t2 = clock()
    same = sorted(got) == sorted(state) and all(
        arrays_identical(got[k], np.asarray(state[k], dtype=np.float64)) for k in state
    )
    return t1 - t0, t2 - t1, same


def reference_losses(work: Path) -> list[tuple[float, float, float]]:
    """Loss trajectory of the canonical problem (fixed seed, small batch)."""
    sizes = REFERENCE_SIZES
    dataset = synthesize(work / "reference-data", REFERENCE_SEED, sizes)
    trainer = train_mod.Trainer(dataset, train_config(REFERENCE_SEED, sizes), work / "reference-run")
    out = []
    for _ in range(REFERENCE_STEPS):
        s = trainer.step()
        out.append((s["l_tri"], s["l_ce"], s["l"]))
    return out


def reference_check(work: Path) -> tuple[str, bool, str]:
    want = json.loads(REFERENCE_PATH.read_text())["losses"]
    got = reference_losses(work)
    for step, (g, w) in enumerate(zip(got, want)):
        for name, a, b in zip(("l_tri", "l_ce", "l"), g, w):
            if not abs(a - b) <= REFERENCE_RTOL * abs(b):
                return "loss_trajectory", False, f"step {step} {name}: {a!r} vs reference {b!r}"
    ok = len(got) == len(want)
    return "loss_trajectory", ok, "" if ok else "trajectory length differs"


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""

    def final_checks(self, ctx) -> list:
        """Checks made once, after every window of the run."""
        return []


class TrainMini(Workload):
    name = "train-mini"

    def setup(self, work: Path, seed: int, sizes: Sizes):
        dataset = synthesize(work / "data", seed, sizes)
        cfg = train_config(seed, sizes)
        trainer = train_mod.Trainer(dataset, cfg, work / "run")
        return {"work": work, "seed": seed, "sizes": sizes, "dataset": dataset,
                "cfg": cfg, "trainer": trainer, "runs": 0}

    def window(self, ctx, seconds: float) -> Window:
        sizes = ctx["sizes"]
        trainer = ctx.pop("trainer", None)
        if trainer is None:     # a later window starts again from iteration 0
            ctx["runs"] += 1
            trainer = train_mod.Trainer(ctx["dataset"], ctx["cfg"], ctx["work"] / f"run{ctx['runs']}")
        step_s, losses, wall = run_training(trainer, seconds)
        n = sizes.batch_subjects * sizes.batch_sequences
        w = Window(op_s=step_s, seqs=n * len(step_s), busy_s=wall, fingerprint=losses)
        finite = all(np.isfinite(v) for triple in losses for v in triple)
        w.checks.append(("losses_finite", finite, "" if finite else "non-finite loss"))
        w.named.update(op_percentiles("train_step", step_s))
        w.named["train_seq_per_s"] = (w.seqs / wall, "seq/s", len(step_s))
        w.named["train_loss_final"] = (losses[-1][2], "loss", len(losses))
        return w

    def final_checks(self, ctx):
        return [reference_check(ctx["work"])]


class EvalMini(Workload):
    name = "eval-mini"

    def setup(self, work: Path, seed: int, sizes: Sizes):
        dataset = synthesize(work / "data", seed, sizes)
        ckpt = train_checkpoint(dataset, work / "run", seed, sizes)
        return {"work": work, "seed": seed, "sizes": sizes, "dataset": dataset, "checkpoint": ckpt}

    def window(self, ctx, seconds: float) -> Window:
        dataset = ctx["dataset"]
        w = Window()
        t_start = clock()
        while True:
            t0 = clock()
            stamps = []
            loaded = train_mod.load_training_checkpoint(ctx["checkpoint"])
            cfg = loaded.config.resolved()
            out = evaluate_once(loaded.net, dataset, cfg.input_size, cfg.eval_max_frames, stamps)
            w.busy_s += clock() - t0
            w.seqs += len(dataset)
            w.op_s.extend(np.diff(stamps))
            w.checks.extend(self._checks(out, loaded.config))
            if clock() - t_start >= seconds and len(w.op_s) >= MIN_SAMPLES:
                break
        emb, *_, report = out
        w.fingerprint = [emb.tobytes()]
        w.named.update(op_percentiles("eval_batch", w.op_s))
        w.named["eval_seq_per_s"] = (w.seqs / w.busy_s, "seq/s", w.seqs)
        w.named["rank1_mean_pct"] = (100.0 * report.grand_mean(), "%", len(out[5]))
        return w

    @staticmethod
    def _checks(out, config):
        emb = out[0]
        cfg = config.resolved()
        want = (len(out[1]), cfg.embed_dim, cfg.input_size // 4 + 7)
        shape_ok = emb.shape == want and bool(np.isfinite(emb).all())
        oracle_ok, detail = rank1_matches_oracle(*out)
        return [
            ("embeddings_finite_shape", shape_ok, "" if shape_ok else f"{emb.shape} vs {want}"),
            ("rank1_oracle", oracle_ok, detail),
        ]


class SynthIO(Workload):
    name = "synth-io"

    def setup(self, work: Path, seed: int, sizes: Sizes):
        dataset = synthesize(work / "state-data", seed, sizes)
        # one training step, so that the state carries momentum buffers
        state = checkpoint.load_checkpoint(train_checkpoint(dataset, work / "state-run", seed, sizes))
        subjects = [
            synth.synth_subject(int(np.random.SeedSequence((seed, sid)).generate_state(1)[0]))
            for sid in range(sizes.subjects)
        ]
        return {"work": work, "seed": seed, "sizes": sizes, "dataset": dataset,
                "state": state, "subjects": subjects}

    def window(self, ctx, seconds: float) -> Window:
        """Rounds of render + write, read-back and TGCK round trips. The
        round's time is the operation; byte comparisons are left out of it."""
        sizes, work = ctx["sizes"], ctx["work"]
        w = Window()
        synth_s = load_s = 0.0
        loads = 0
        save_times, load_times = [], []
        t_start = clock()
        r = 0
        while True:
            # A round, not a sequence, is the operation: render times differ
            # by pose and condition (14-16 ms vs 22-26 ms per sequence), so a
            # per-sequence median would flip between the two modes.
            rendered = []
            pairs = render_pairs(ctx["subjects"], ctx["seed"], r, ROUND_SEQS, sizes.frames, rendered)
            t0 = clock()
            written = data.write_dataset(work / "round", pairs)
            t1 = clock()
            dataset = data.read_dataset(written.root)
            records = dataset.records()
            op_s = clock() - t0
            synth_s += t1 - t0

            bad = set()
            for _ in range(LOAD_PASSES):
                t0 = clock()
                got = [dataset.load_pair(rec) for rec in records]
                dt = clock() - t0
                load_s += dt
                op_s += dt
                loads += len(got)
                bad.update(
                    rec.stem for rec, (frames, joints), (ske, sil) in zip(records, got, rendered)
                    if not (arrays_identical(frames, sil.frames) and arrays_identical(joints, ske.joints))
                )
            w.checks.append(("tgsl_tgkt_roundtrip", not bad, f"differs: {sorted(bad)[:3]}" if bad else ""))
            same = True
            for _ in range(CHECKPOINT_TRIPS):
                save, load, ok = checkpoint_roundtrip(work / "state.tgck", ctx["state"])
                save_times.append(save)
                load_times.append(load)
                op_s += save + load
                same &= ok
            w.checks.append(("tgck_roundtrip", same, "" if same else "loaded state differs"))

            w.op_s.append(op_s)
            w.busy_s += op_s
            w.seqs += len(rendered)
            if r == 0:
                w.fingerprint = [sil.frames.tobytes() + ske.joints.tobytes() for ske, sil in rendered]
            r += 1
            if clock() - t_start >= seconds and len(w.op_s) >= MIN_SAMPLES:
                break
        w.named.update(op_percentiles("synth_round", w.op_s))
        w.named["synth_seq_per_s"] = (w.seqs / synth_s, "seq/s", w.seqs)
        w.named["load_seq_per_s"] = (loads / load_s, "seq/s", loads)
        w.named["checkpoint_save_ms_p50"] = (1e3 * float(np.median(save_times)), "ms", len(save_times))
        w.named["checkpoint_load_ms_p50"] = (1e3 * float(np.median(load_times)), "ms", len(load_times))
        return w


WORKLOADS = {w.name: w for w in (TrainMini(), EvalMini(), SynthIO())}


# ---------------------------------------------------------------------------
# coverage for the traced run
# ---------------------------------------------------------------------------

MODEL_LAYERS = ("tensor", "nn", "silhouette", "skeleton", "fusion", "model", "losses", "optim", "train")
STEP_SPANS = {name for name, *_ in TARGETS if name.split(".")[0] in MODEL_LAYERS}
STEP_SPANS.add("data.sample_batch")


def cover(tracer, ctx) -> list[str]:
    """Run once, traced, every traced call the workload's own window did not
    make, on the workload's own dataset, so each layer metric exists on every
    workload. Returns the span names covered this way."""
    missing = {name for name, *_ in TARGETS if not tracer.durations(name)}
    if not missing:
        return []
    sizes, seed, work = ctx["sizes"], ctx["seed"], ctx["work"]
    cfg = train_config(seed, sizes)
    trainer = train_mod.Trainer(ctx["dataset"], cfg, work / "cover")
    saves = {"checkpoint.save", "checkpoint.load"} & missing
    if saves or STEP_SPANS & missing:
        trainer.step()      # a saved training state carries momentum buffers
    if saves:
        train_mod.load_training_checkpoint(trainer.save())
    if {"evaluate.embed_all", "evaluate.rank1"} & missing:
        subset = data.GaitDataset(ctx["dataset"].root, ctx["dataset"].records()[:EMBED_BATCH])
        evaluate_once(trainer.net, subset, cfg.resolved().input_size, 30)
    if {"synth.render", "data.write", "data.read_dataset", "data.load_pair"} & missing:
        subject = synth.synth_subject(seed)
        written = data.write_dataset(work / "cover-synth", render_pairs([subject], seed, 0, 2, sizes.frames))
        ds = data.read_dataset(written.root)
        for rec in ds.records():
            ds.load_pair(rec)
    return sorted(missing)


def clean(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
