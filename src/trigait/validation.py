"""Input validation helpers for the estimator-facing API."""

from __future__ import annotations

import numpy as np

from .synth import NUM_JOINTS


def check_silhouette_frames(frames, name: str = "silhouettes") -> np.ndarray:
    """Validate (T, H, W) or (N, T, H, W) frames in [0, 1]; returns 4-D float."""
    arr = np.asarray(frames)
    if arr.ndim == 3:
        arr = arr[None]
    if arr.ndim != 4:
        raise ValueError(f"{name}: expected (T, H, W) or (N, T, H, W), got {arr.shape}")
    if arr.shape[2] != arr.shape[3]:
        raise ValueError(f"{name}: frames must be square, got {arr.shape}")
    out = arr.astype(np.float64)
    if not np.isfinite(out).all():
        raise ValueError(f"{name}: non-finite values")
    if out.min() < 0 or out.max() > 1:
        raise ValueError(f"{name}: values outside [0, 1]")
    return out


def check_joints(joints, name: str = "joints") -> np.ndarray:
    """Validate (T, K, 2) or (N, T, K, 2) keypoints; returns 4-D float."""
    arr = np.asarray(joints, dtype=np.float64)
    if arr.ndim == 3:
        arr = arr[None]
    if arr.ndim != 4 or arr.shape[2] != NUM_JOINTS or arr.shape[3] != 2:
        raise ValueError(
            f"{name}: expected (T, {NUM_JOINTS}, 2) or (N, T, {NUM_JOINTS}, 2), got {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: non-finite values")
    return arr


def check_paired(frames: np.ndarray, joints: np.ndarray) -> None:
    if frames.shape[0] != joints.shape[0] or frames.shape[1] != joints.shape[1]:
        raise ValueError(
            f"paired inputs disagree: silhouettes {frames.shape[:2]} vs joints {joints.shape[:2]}"
        )
