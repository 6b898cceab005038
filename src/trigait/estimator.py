"""Sklearn-style estimator facade: fit on a gait dataset, transform paired
sequences into part embeddings. Follows the get_params/set_params and
trailing-underscore conventions so it composes with sklearn tooling."""

from __future__ import annotations

import inspect
import tempfile

import numpy as np

from .config import RunConfig
from .data import GaitDataset, read_dataset
from .evaluate import embed_all
from .model import preprocess_silhouettes
from .tensor import no_grad
from .validation import check_joints, check_paired, check_silhouette_frames


class GaitEmbedder:
    """Trains the tri-branch network and embeds sequences as (C, parts) codes.

    Parameters mirror the training config; `miniature=True` (default) selects
    the desk-scale shape set so fitting stays CPU-friendly.
    """

    def __init__(
        self,
        iterations: int = 400,
        lr: float = 3e-3,
        margin: float = 0.2,
        miniature: bool = True,
        partition_mode: str = "motion",
        batch_subjects: int = 8,
        batch_sequences: int = 8,
        batch_frames: int = 30,
        seed: int = 0,
        work_dir: str | None = None,
    ):
        self.iterations = iterations
        self.lr = lr
        self.margin = margin
        self.miniature = miniature
        self.partition_mode = partition_mode
        self.batch_subjects = batch_subjects
        self.batch_sequences = batch_sequences
        self.batch_frames = batch_frames
        self.seed = seed
        self.work_dir = work_dir

    # -- sklearn plumbing ---------------------------------------------------

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [p for p in sig.parameters if p != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "GaitEmbedder":
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(
                    f"invalid parameter {key!r} for GaitEmbedder; valid: {sorted(valid)}"
                )
            setattr(self, key, value)
        return self

    def _run_config(self) -> RunConfig:
        return RunConfig(
            iterations=self.iterations,
            lr=self.lr,
            lr_drop_iteration=max(self.iterations // 2, 1),
            lr_after_drop=self.lr * 0.1,
            margin=self.margin,
            miniature=self.miniature,
            partition_mode=self.partition_mode,
            batch_subjects=self.batch_subjects,
            batch_sequences=self.batch_sequences,
            batch_frames=self.batch_frames,
            seed=self.seed,
        )

    # -- estimator API ---------------------------------------------------------

    def fit(self, dataset, y=None) -> "GaitEmbedder":
        """dataset: a GaitDataset or a dataset directory path."""
        from .train import Trainer

        if not isinstance(dataset, GaitDataset):
            dataset = read_dataset(dataset)
        out_dir = self.work_dir or tempfile.mkdtemp(prefix="trigait_fit_")
        trainer = Trainer(dataset, self._run_config(), out_dir)
        trainer.run()
        self.net_ = trainer.net
        self.config_ = trainer.cfg
        self.checkpoint_path_ = trainer.checkpoint_path
        return self

    def transform(self, X) -> np.ndarray:
        """X: (frames, joints) arrays or a list of per-sequence pairs.

        Returns embeddings (n, channels, parts).
        """
        if not hasattr(self, "net_"):
            raise ValueError("GaitEmbedder is not fitted; call fit() first")
        batches = []
        for pair in [X] if isinstance(X, tuple) and len(X) == 2 else X:
            frames = check_silhouette_frames(pair[0])
            joints = check_joints(pair[1])
            check_paired(frames, joints)
            batches.append((frames, joints))
        self.net_.eval()
        out = []
        with no_grad():
            for frames, joints in batches:
                sil = preprocess_silhouettes(
                    (frames > 0.5).astype(np.uint8), self.config_.input_size
                )
                out.append(self.net_.forward(sil, joints).data)
        return np.concatenate(out, axis=0)

    def fit_transform(self, dataset, y=None) -> np.ndarray:
        """Fit on the dataset, then embed every manifest sequence in order,
        one at a time as `transform` does, streaming them from disk."""
        if not isinstance(dataset, GaitDataset):
            dataset = read_dataset(dataset)
        self.fit(dataset)
        size = self.config_.input_size
        return embed_all(self.net_, dataset, lambda f: preprocess_silhouettes(f, size),
                         batch_size=1)[0]
