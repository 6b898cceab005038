"""Training loop: batch sampling, combined loss, SGD schedule, checkpoints.

Every iteration draws its batch from a generator seeded by (seed, iteration),
so training is deterministic given the seed and resuming from a checkpoint
continues the exact same trajectory. The training state is the module tree:
a checkpoint stores each parameter under its `named_parameters` name, with
its SGD momentum buffer as `opt.<name>`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, parse_config_text
from .data import GaitDataset, sample_batch
from .model import TriGaitNet, preprocess_silhouettes
from .optim import SGD

LOG_COLUMNS = ("iteration", "lr", "l_tri", "l_ce", "l", "active_triplet_fraction")
LOG_HEADER = "\t".join(LOG_COLUMNS)

_INIT_TAG = 0x1A17
_BATCH_TAG = 0xB47C
_META_KEYS = ("__meta__.config_text", "__meta__.iteration", "__meta__.num_subjects")


def _text_to_floats(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.float64)


def _floats_to_text(arr: np.ndarray) -> str:
    return bytes(np.asarray(arr, dtype=np.float64).astype(np.uint8)).decode("utf-8")


def build_network(config: RunConfig, num_subjects: int) -> TriGaitNet:
    return TriGaitNet(config, num_subjects, np.random.default_rng((config.seed, _INIT_TAG)))


def save_training_checkpoint(path, net, iteration, config: RunConfig, num_subjects):
    """Write the training state to `path`, replacing any previous file only
    once the new one is complete: a crash mid-save leaves the old checkpoint."""
    tensors = {f"model.{k}": v for k, v in net.state_dict().items()}
    for name, p in net.named_parameters():
        if p.momentum_buffer is not None:
            tensors[f"opt.{name}"] = p.momentum_buffer
    tensors["__meta__.iteration"] = np.array(float(iteration))
    tensors["__meta__.num_subjects"] = np.array(float(num_subjects))
    tensors["__meta__.config_text"] = _text_to_floats(config.to_text())
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        save_checkpoint(tmp, tensors)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class LoadedCheckpoint:
    net: TriGaitNet
    config: RunConfig
    iteration: int
    num_subjects: int


def load_training_checkpoint(path, expect_config: RunConfig | None = None) -> LoadedCheckpoint:
    """Rebuild the network a checkpoint was saved from, momentum buffers
    included.

    When `expect_config` is given and its hash differs from the stored
    config's, the checkpoint is rejected and both hashes are reported.
    """
    tensors = load_checkpoint(path)
    for key in _META_KEYS:
        if key not in tensors:
            raise ValueError(f"{path}: not a training checkpoint, no {key!r} record")
    config = parse_config_text(_floats_to_text(tensors["__meta__.config_text"]), source=str(path))
    if expect_config is not None and expect_config.hash_hex() != config.hash_hex():
        raise ValueError(
            f"{path}: config mismatch (checkpoint {config.hash_hex()}, "
            f"requested {expect_config.hash_hex()})"
        )
    num_subjects = int(tensors["__meta__.num_subjects"])
    net = build_network(config, num_subjects)
    state = {
        k[len("model.") :]: v for k, v in tensors.items() if k.startswith("model.")
    }
    net.load_state_dict(state)
    params = dict(net.named_parameters())
    for key in [k for k in tensors if k.startswith("opt.")]:
        p = params.get(key[len("opt.") :])
        if p is None:
            raise ValueError(f"{path}: momentum record {key!r} names no parameter")
        if tensors[key].shape != p.data.shape:
            raise ValueError(
                f"{path}: momentum record {key!r} has shape {tensors[key].shape}, "
                f"its parameter {p.data.shape}"
            )
        p.momentum_buffer = tensors[key]
    return LoadedCheckpoint(
        net=net,
        config=config,
        iteration=int(tensors["__meta__.iteration"]),
        num_subjects=num_subjects,
    )


class Trainer:
    def __init__(self, dataset: GaitDataset, config: RunConfig, out_dir, resume=None):
        problems = config.validate()
        if problems:
            raise ValueError("invalid config:\n  " + "\n  ".join(problems))
        self.cfg = config.resolved()
        self.raw_config = config
        self.dataset = dataset
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        subjects = dataset.subjects()
        self.label_of = {s: i for i, s in enumerate(subjects)}
        self.num_subjects = len(subjects)
        self.iteration = 0
        if resume is not None:
            loaded = load_training_checkpoint(resume, expect_config=config)
            if loaded.num_subjects != self.num_subjects:
                raise ValueError(
                    f"{resume}: trained on {loaded.num_subjects} subjects, "
                    f"dataset has {self.num_subjects}"
                )
            self.net = loaded.net
            self.iteration = loaded.iteration
        else:
            self.net = build_network(config, self.num_subjects)
        self.optimizer = SGD(
            self.net.parameters(),
            lr=self.cfg.lr,
            momentum=self.cfg.momentum,
            weight_decay=self.cfg.weight_decay,
        )
        self.log_path = self.out_dir / "train_log.tsv"
        self.checkpoint_path = self.out_dir / "model.tgck"

    def lr_at(self, iteration: int) -> float:
        return self.cfg.lr if iteration < self.cfg.lr_drop_iteration else self.cfg.lr_after_drop

    def _batch(self, iteration: int):
        cfg = self.cfg
        rng = np.random.default_rng((cfg.seed, _BATCH_TAG, iteration))
        sil, ske, subjects = sample_batch(
            self.dataset, cfg.batch_subjects, cfg.batch_sequences, cfg.batch_frames, rng
        )
        labels = np.array([self.label_of[s] for s in subjects])
        return preprocess_silhouettes(sil, cfg.input_size), ske, labels

    def step(self) -> dict:
        """One optimization step; returns the logged scalars."""
        it = self.iteration
        lr = self.lr_at(it)
        self.optimizer.lr = lr
        sil, ske, labels = self._batch(it)
        self.net.train()
        self.net.zero_grad()
        emb = self.net.forward(sil, ske)
        total, report = self.net.loss(emb, labels)
        if not np.isfinite(report.total):
            raise RuntimeError(f"training diverged (non-finite loss) at iteration {it}")
        total.backward()
        self.optimizer.step()
        self.iteration = it + 1
        return {
            "iteration": it,
            "lr": lr,
            "l_tri": report.l_tri,
            "l_ce": report.l_ce,
            "l": report.total,
            "active_triplet_fraction": report.active_triplet_fraction,
        }

    def save(self, path=None) -> Path:
        path = Path(path) if path is not None else self.checkpoint_path
        save_training_checkpoint(path, self.net, self.iteration, self.raw_config, self.num_subjects)
        return path

    def _log_rows_before_iteration(self) -> list[str]:
        """The rows of an existing log for iterations the model has already
        run; rows a crashed run logged after its last checkpoint are dropped."""
        if self.iteration == 0 or not self.log_path.exists():
            return []
        lines = self.log_path.read_text().splitlines()
        if not lines or lines[0] != LOG_HEADER:
            raise ValueError(f"{self.log_path}: not a training log (bad header)")
        kept = []
        for lineno, line in enumerate(lines[1:], start=2):
            head = line.split("\t", 1)[0]
            if not head.isdigit():
                raise ValueError(f"{self.log_path}:{lineno}: bad iteration {head!r}")
            if int(head) < self.iteration:
                kept.append(line + "\n")
        return kept

    def run(self, iterations: int | None = None, progress=None) -> Path:
        """Train until `iterations` total steps have run; logs and checkpoints.

        The log is rewritten to its rows below the current iteration, so a
        resumed run logs each iteration once.
        """
        target = iterations if iterations is not None else self.cfg.iterations
        kept = self._log_rows_before_iteration()
        with open(self.log_path, "w") as log:
            log.write(LOG_HEADER + "\n" + "".join(kept))
            while self.iteration < target:
                scalars = self.step()
                it = scalars["iteration"]
                if it % self.cfg.log_every == 0 or it + 1 == target:
                    log.write("\t".join(repr(scalars[k]) for k in LOG_COLUMNS) + "\n")
                    log.flush()
                    if progress is not None:
                        progress(scalars)
                if (it + 1) % self.cfg.checkpoint_every == 0 and it + 1 < target:
                    self.save()
        return self.save()
