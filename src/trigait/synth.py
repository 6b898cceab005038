"""Synthetic paired skeleton/silhouette gait sequences.

A 3D articulated walker (sinusoidal joint-angle trajectories, treadmill-style
in place) is posed and projected orthographically at a given azimuth onto a
64x64 image. All frames of a sequence are posed and rasterized in one pass,
with the same per-element arithmetic as drawing each frame on its own, so the
output is bit-identical to per-frame rendering. The 17 COCO keypoints land in
the same pixel space as the rasterized silhouette, so the two modalities are
frame- and geometry-aligned.

Identity is carried by limb proportions, gait frequency, phase offsets, and
posture, which both modalities can plausibly detect. Conditions perturb only
the rendering: CL inflates the torso/limb thickness, BG attaches a blob near
one hand. Skeletons are identical across conditions for the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

IMG = 64
NUM_JOINTS = 17

# COCO-17 keypoint order
NOSE = 0
L_EYE, R_EYE, L_EAR, R_EAR = 1, 2, 3, 4
L_SHO, R_SHO, L_ELB, R_ELB, L_WRI, R_WRI = 5, 6, 7, 8, 9, 10
L_HIP, R_HIP, L_KNE, R_KNE, L_ANK, R_ANK = 11, 12, 13, 14, 15, 16

# kinematic tree with the nose as root; parent of joint i is PARENTS[i]
PARENTS = np.array([0, 0, 0, 1, 2, 0, 0, 5, 6, 7, 8, 5, 6, 11, 12, 13, 14])

CONDITIONS = ("NM", "BG", "CL")


@dataclass
class SubjectParams:
    """Per-subject body geometry and walking style."""

    limb_lengths: dict[str, float]
    gait_frequency: float            # cycles per frame
    phase_offsets: np.ndarray        # (17,) radians
    posture_bias: np.ndarray         # (17,) radians
    amplitudes: dict[str, float]     # swing amplitudes, radians
    seed: int


@dataclass
class SkeletonSequence:
    joints: np.ndarray              # (T, 17, 2) float64 pixel coords, v down
    subject_id: int
    condition: str
    view: int                       # azimuth degrees in {0, 18, ..., 180}
    seq_index: int


@dataclass
class SilhouetteSequence:
    frames: np.ndarray              # (T, 64, 64) uint8 in {0, 1}
    subject_id: int
    condition: str
    view: int
    seq_index: int


def synth_subject(seed: int) -> SubjectParams:
    """Deterministically sample a subject's body proportions and gait style."""
    rng = np.random.default_rng(seed)
    limbs = {
        "thigh": rng.uniform(0.21, 0.27),
        "shin": rng.uniform(0.20, 0.26),
        "torso": rng.uniform(0.26, 0.33),
        "neck": rng.uniform(0.055, 0.08),
        "head_r": rng.uniform(0.05, 0.068),
        "shoulder_hw": rng.uniform(0.085, 0.125),
        "hip_hw": rng.uniform(0.05, 0.078),
        "upper_arm": rng.uniform(0.15, 0.19),
        "forearm": rng.uniform(0.13, 0.17),
    }
    amplitudes = {
        "hip": rng.uniform(0.32, 0.55),
        "knee": rng.uniform(0.55, 0.95),
        "arm": rng.uniform(0.20, 0.45),
        "elbow": rng.uniform(0.25, 0.55),
        "bob": rng.uniform(0.008, 0.02),
        "lean": rng.uniform(-0.04, 0.10),
    }
    return SubjectParams(
        limb_lengths=limbs,
        gait_frequency=rng.uniform(0.055, 0.13),
        phase_offsets=rng.uniform(-0.25, 0.25, NUM_JOINTS),
        posture_bias=rng.uniform(-0.06, 0.06, NUM_JOINTS),
        amplitudes=amplitudes,
        seed=int(seed),
    )


def _vec(x, y, z) -> np.ndarray:
    """Stack three broadcastable components into (..., 3) points."""
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


def _pose_3d(subject: SubjectParams, phase: np.ndarray) -> np.ndarray:
    """(T, 17, 3) joint positions at T gait phases: x forward, y up, z lateral-left."""
    L = subject.limb_lengths
    A = subject.amplitudes
    d = subject.phase_offsets
    b = subject.posture_bias

    leg_len = L["thigh"] + L["shin"]
    pelvis_y = leg_len - A["bob"] * (1.0 - np.cos(2.0 * phase)) * 0.5
    sway = 0.012 * np.sin(phase)

    pts = np.zeros((len(phase), NUM_JOINTS, 3))

    def leg(side, hip_idx, knee_idx, ank_idx, phase_side):
        hip_angle = A["hip"] * np.sin(phase_side + d[hip_idx]) + b[hip_idx]
        swing = 0.5 * (1.0 + np.cos(phase_side + d[knee_idx] - 1.0))
        # squared through the scalar path: libm pow, which differs from the
        # array x*x in the last bit for some values
        swing_sq = np.array([s**2 for s in swing.tolist()])
        knee_angle = A["knee"] * swing_sq + 0.08 + b[knee_idx]
        hip = _vec(0.0, pelvis_y - 0.015, side * L["hip_hw"] + sway)
        knee = hip + L["thigh"] * _vec(np.sin(hip_angle), -np.cos(hip_angle), 0.0)
        shin_angle = hip_angle - knee_angle
        ank = knee + L["shin"] * _vec(np.sin(shin_angle), -np.cos(shin_angle), 0.0)
        pts[:, hip_idx], pts[:, knee_idx], pts[:, ank_idx] = hip, knee, ank

    leg(+1, L_HIP, L_KNE, L_ANK, phase)
    leg(-1, R_HIP, R_KNE, R_ANK, phase + np.pi)

    lean = A["lean"]
    chest = _vec(L["torso"] * np.sin(lean), pelvis_y + L["torso"] * np.cos(lean), sway * 0.5)

    def arm(side, sho_idx, elb_idx, wri_idx, phase_side):
        sho = chest + np.array([0.0, -0.01, side * L["shoulder_hw"]])
        arm_angle = A["arm"] * np.sin(phase_side + d[sho_idx]) + b[sho_idx]
        elb = sho + L["upper_arm"] * _vec(np.sin(arm_angle), -np.cos(arm_angle), 0.0)
        elb_flex = 0.25 + A["elbow"] * 0.5 * (1.0 + np.sin(phase_side + d[elb_idx]))
        wri_angle = arm_angle + elb_flex
        wri = elb + L["forearm"] * _vec(np.sin(wri_angle), -np.cos(wri_angle), 0.0)
        pts[:, sho_idx], pts[:, elb_idx], pts[:, wri_idx] = sho, elb, wri

    # arms swing against the same-side leg
    arm(+1, L_SHO, L_ELB, L_WRI, phase + np.pi)
    arm(-1, R_SHO, R_ELB, R_WRI, phase)

    neck = chest + np.array([0.0, L["neck"], 0.0])
    head_c = neck + np.array([0.012, L["head_r"], 0.0])
    pts[:, NOSE] = head_c + np.array([0.55 * L["head_r"], -0.1 * L["head_r"], 0.0])
    for side, eye, ear in ((+1, L_EYE, L_EAR), (-1, R_EYE, R_EAR)):
        pts[:, eye] = head_c + np.array(
            [0.45 * L["head_r"], 0.15 * L["head_r"], side * 0.35 * L["head_r"]]
        )
        pts[:, ear] = head_c + np.array(
            [0.02 * L["head_r"], 0.05 * L["head_r"], side * 0.85 * L["head_r"]]
        )
    return pts


def _standing_height(subject: SubjectParams) -> float:
    L = subject.limb_lengths
    return L["thigh"] + L["shin"] + L["torso"] + L["neck"] + 2.2 * L["head_r"]


_PIXELS = np.arange(IMG, dtype=np.float64)


def _box(lo, hi, ru, rv) -> tuple[slice, slice] | None:
    """Row and column slices covering [lo - r - 1, hi + r + 1] per (u, v) axis,
    clipped to the image; None when nothing of it is on the image."""
    u0, u1 = max(int(np.floor(lo[0] - ru - 1)), 0), min(int(np.ceil(hi[0] + ru + 1)), IMG - 1)
    v0, v1 = max(int(np.floor(lo[1] - rv - 1)), 0), min(int(np.ceil(hi[1] + rv + 1)), IMG - 1)
    if u0 > u1 or v0 > v1:
        return None
    return slice(v0, v1 + 1), slice(u0, u1 + 1)


def _capsule(masks, p0, p1, r):
    """Set pixels of each frame within distance r of its segment p0-p1.

    p0, p1 are (T, 2) pixel coords (u, v). All frames are drawn in one block,
    the union of the per-frame boxes padded by r + 1; a pixel outside its own
    frame's box is farther than r + 1 from that segment and stays False.
    """
    box = _box(np.minimum(p0, p1).min(axis=0), np.maximum(p0, p1).max(axis=0), r, r)
    if box is None:
        return
    rows, cols = box
    x, y = _PIXELS[cols], _PIXELS[rows, None]
    p0u, p0v = p0[:, 0, None, None], p0[:, 1, None, None]
    du, dv = p1[:, 0, None, None] - p0u, p1[:, 1, None, None] - p0v
    denom = du * du + dv * dv
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(((x - p0u) * du + (y - p0v) * dv) / denom, 0.0, 1.0)
    # a zero-length segment is its start point
    t = np.where(denom < 1e-18, 0.0, t)
    dist2 = (x - (p0u + t * du)) ** 2 + (y - (p0v + t * dv)) ** 2
    masks[:, rows, cols] |= dist2 <= r * r


def _ellipse(masks, center, ru, rv):
    """Set pixels of each frame inside the axis-aligned ellipse at its (T, 2) center."""
    box = _box(center.min(axis=0), center.max(axis=0), ru, rv)
    if box is None:
        return
    rows, cols = box
    x, y = _PIXELS[cols], _PIXELS[rows, None]
    val = ((x - center[:, 0, None, None]) / ru) ** 2 + ((y - center[:, 1, None, None]) / rv) ** 2
    masks[:, rows, cols] |= val <= 1.0


def _rasterize(joints: np.ndarray, scale: float, subject: SubjectParams, condition: str,
               bag_side: int, bag_size: float) -> np.ndarray:
    """Draw (T, 64, 64) silhouette frames from (T, 17, 2) projected keypoints."""
    L = subject.limb_lengths
    masks = np.zeros((len(joints), IMG, IMG), dtype=bool)
    kps = joints.swapaxes(0, 1)  # kps[j] is joint j in every frame

    cl = condition == "CL"
    limb_mul = 1.3 if cl else 1.0
    torso_mul = 1.65 if cl else 1.0

    radii = {
        "thigh": 0.034 * limb_mul, "shin": 0.026 * limb_mul,
        "upper_arm": 0.026 * limb_mul, "forearm": 0.020 * limb_mul,
    }
    bone_r = {
        (L_HIP, L_KNE): radii["thigh"], (R_HIP, R_KNE): radii["thigh"],
        (L_KNE, L_ANK): radii["shin"], (R_KNE, R_ANK): radii["shin"],
        (L_SHO, L_ELB): radii["upper_arm"], (R_SHO, R_ELB): radii["upper_arm"],
        (L_ELB, L_WRI): radii["forearm"], (R_ELB, R_WRI): radii["forearm"],
    }
    for (a, b), r in bone_r.items():
        _capsule(masks, kps[a], kps[b], r * scale)

    # torso: side seams plus a wide center column between chest and pelvis
    sho_mid = 0.5 * (kps[L_SHO] + kps[R_SHO])
    hip_mid = 0.5 * (kps[L_HIP] + kps[R_HIP])
    seam_r = 0.035 * torso_mul * scale
    _capsule(masks, kps[L_SHO], kps[L_HIP], seam_r)
    _capsule(masks, kps[R_SHO], kps[R_HIP], seam_r)
    _capsule(masks, sho_mid, hip_mid, 0.055 * torso_mul * scale)
    _capsule(masks, kps[L_SHO], kps[R_SHO], 0.03 * torso_mul * scale)
    _capsule(masks, kps[L_HIP], kps[R_HIP], 0.04 * torso_mul * scale)
    if cl:
        # coat skirt reaching over the upper thighs
        knee_mid = 0.5 * (kps[L_KNE] + kps[R_KNE])
        skirt_end = hip_mid + 0.45 * (knee_mid - hip_mid)
        _capsule(masks, hip_mid, skirt_end, 0.075 * scale)

    # neck and head
    _capsule(masks, sho_mid, kps[NOSE], 0.024 * scale)
    ear_mid = 0.5 * (kps[L_EAR] + kps[R_EAR])
    hr = L["head_r"] * 1.12 * scale
    _ellipse(masks, ear_mid, hr, 1.12 * hr)

    if condition == "BG":
        wrist = kps[L_WRI] if bag_side > 0 else kps[R_WRI]
        center = wrist + np.array([0.02 * scale, 0.055 * scale])
        _ellipse(masks, center, bag_size * scale, 1.25 * bag_size * scale)
        _capsule(masks, wrist, center, 0.012 * scale)

    return masks.astype(np.uint8)


def render_sequence(
    subject: SubjectParams,
    condition: str,
    view: int,
    T: int,
    seed: int,
    subject_id: int = 0,
    seq_index: int = 0,
) -> tuple[SkeletonSequence, SilhouetteSequence]:
    """Pose, project, and rasterize one walking sequence.

    The kinematics depend only on (subject, T, seed), never on the condition,
    so NM/BG/CL with equal seeds share identical skeletons.
    """
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}")
    if T < 2:
        raise ValueError(f"render_sequence: T must be >= 2, got {T}")
    height = _standing_height(subject)
    if height <= 1e-6:
        raise ValueError("render_sequence: degenerate projection (zero body height)")

    rng = np.random.default_rng(seed)
    phase0 = rng.uniform(0.0, 2.0 * np.pi)
    freq = subject.gait_frequency * rng.uniform(0.97, 1.03)
    # condition extras are drawn after the kinematic draws so that skeletons
    # stay identical across conditions for one seed
    bag_side = 1 if rng.uniform() < 0.5 else -1
    bag_size = rng.uniform(0.042, 0.06)

    theta = np.deg2rad(view)
    scale = 56.0 / height
    base_v = 61.0

    phase = phase0 + 2.0 * np.pi * freq * np.arange(T)
    p3 = _pose_3d(subject, phase)
    u = p3[:, :, 0] * np.sin(theta) + p3[:, :, 2] * np.cos(theta)
    v = p3[:, :, 1]
    hip_u = 0.5 * (u[:, L_HIP] + u[:, R_HIP])
    joints = np.stack([(IMG / 2) + (u - hip_u[:, None]) * scale, base_v - v * scale], axis=-1)
    frames = _rasterize(joints, scale, subject, condition, bag_side, bag_size)
    empty = np.flatnonzero(~frames.any(axis=(1, 2)))
    if empty.size:
        raise ValueError(f"render_sequence: empty silhouette at frame {empty[0]}")

    ske = SkeletonSequence(joints, subject_id, condition, int(view), seq_index)
    sil = SilhouetteSequence(frames, subject_id, condition, int(view), seq_index)
    return ske, sil
