"""Library front door: `GaitEmbedder(config, work_dir)` trains with the
`trigait train` trainer and embeds with `evaluate.embed_batch`, the batch
function `trigait eval` runs; fitted state carries a trailing underscore."""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .data import GaitDataset, read_dataset
from .evaluate import embed_all, embed_batch
from .model import preprocess_silhouettes
from .synth import NUM_JOINTS
from .train import Trainer


def _check_pair(frames, joints) -> tuple[np.ndarray, np.ndarray]:
    """Validate (T, H, W) or (N, T, H, W) frames in [0, 1] and their
    (T, 17, 2) or (N, T, 17, 2) joints; returns the frames binarized at 0.5
    as uint8 and the joints as float, both 4-D."""
    sil = np.asarray(frames)
    if sil.ndim == 3:
        sil = sil[None]
    if sil.ndim != 4:
        raise ValueError(f"silhouettes: expected (T, H, W) or (N, T, H, W), got {sil.shape}")
    if 0 in sil.shape:
        raise ValueError(f"silhouettes: zero-size frames, got {sil.shape}")
    if sil.shape[2] != sil.shape[3]:
        raise ValueError(f"silhouettes: frames must be square, got {sil.shape}")
    sil = sil.astype(np.float64)
    if not np.isfinite(sil).all():
        raise ValueError("silhouettes: non-finite values")
    if sil.min() < 0 or sil.max() > 1:
        raise ValueError("silhouettes: values outside [0, 1]")
    ske = np.asarray(joints, dtype=np.float64)
    if ske.ndim == 3:
        ske = ske[None]
    if ske.ndim != 4 or ske.shape[2] != NUM_JOINTS or ske.shape[3] != 2:
        raise ValueError(
            f"joints: expected (T, {NUM_JOINTS}, 2) or (N, T, {NUM_JOINTS}, 2), got {ske.shape}"
        )
    if not np.isfinite(ske).all():
        raise ValueError("joints: non-finite values")
    if sil.shape[:2] != ske.shape[:2]:
        raise ValueError(
            f"paired inputs disagree: silhouettes {sil.shape[:2]} vs joints {ske.shape[:2]}"
        )
    return (sil > 0.5).astype(np.uint8), ske


class GaitEmbedder:
    """Trains the tri-branch network on `config` and embeds sequences as
    (C, parts) codes. `fit` writes `model.tgck` and `train_log.tsv` under
    `work_dir`, exactly as `trigait train --config ... --out work_dir` does."""

    def __init__(self, config: RunConfig, work_dir):
        self.config = config
        self.work_dir = work_dir

    def fit(self, dataset) -> "GaitEmbedder":
        """dataset: a GaitDataset or a dataset directory path."""
        if not isinstance(dataset, GaitDataset):
            dataset = read_dataset(dataset)
        trainer = Trainer(dataset, self.config, self.work_dir)
        trainer.run()
        self.net_ = trainer.net
        self.config_ = trainer.cfg
        self.checkpoint_path_ = trainer.checkpoint_path
        return self

    def _preprocess(self, frames: np.ndarray) -> np.ndarray:
        return preprocess_silhouettes(frames, self.config_.input_size)

    def transform(self, X) -> np.ndarray:
        """X: one (frames, joints) pair, or a list or tuple of per-sequence
        (frames, joints) tuples.

        Returns embeddings (n, channels, parts).
        """
        if not hasattr(self, "net_"):
            raise ValueError("GaitEmbedder is not fitted; call fit() first")
        if isinstance(X, tuple) and len(X) == 2 and not isinstance(X[0], tuple):
            X = [X]
        pairs = []
        for k, pair in enumerate(X):
            if len(pair) != 2:
                raise ValueError(f"X[{k}]: expected a (frames, joints) pair, got {len(pair)} items")
            pairs.append(_check_pair(*pair))
        return np.concatenate(
            [embed_batch(self.net_, f, j, self._preprocess) for f, j in pairs], axis=0
        )

    def fit_transform(self, dataset) -> np.ndarray:
        """Fit on the dataset, then embed every manifest sequence in order,
        one at a time as `transform` does, streaming them from disk."""
        if not isinstance(dataset, GaitDataset):
            dataset = read_dataset(dataset)
        self.fit(dataset)
        return embed_all(self.net_, dataset, self._preprocess, batch_size=1)[0]
