"""Metric-learning and classification losses."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, batch_all_triplet, pairwise_part_distances


@dataclass
class LossReport:
    l_tri: float
    l_ce: float
    total: float
    active_triplet_fraction: float


def triplet_ba_loss(embeddings: Tensor, labels: np.ndarray, margin: float = 0.2):
    """Batch-all triplet loss over part embeddings (N, C, P).

    Per part, every valid (anchor, positive, negative) triplet contributes
    max(0, margin + d_ap - d_an) with Euclidean distance over channels; the
    part loss averages the strictly positive terms only. Returns (loss Tensor,
    active fraction). Raises ValueError when no valid triplet exists: fewer
    than 2 labels, or no label with 2 or more samples.
    """
    return batch_all_triplet(pairwise_part_distances(embeddings), labels, margin)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross-entropy, mean over the batch. logits: (N, S)."""
    labels = np.asarray(labels)
    n, s = logits.shape
    if labels.min() < 0 or labels.max() >= s:
        raise ValueError(
            f"cross_entropy: label out of range for {s} classes: {labels.min()}..{labels.max()}"
        )
    shift = Tensor(logits.data.max(axis=1, keepdims=True))  # constant, keeps exp finite
    lse = (logits - shift).exp().sum(axis=1, keepdims=True).log() + shift
    onehot = np.zeros((n, s))
    onehot[np.arange(n), labels] = 1.0
    picked = (logits * Tensor(onehot)).sum(axis=1, keepdims=True)
    return (lse - picked).mean()
