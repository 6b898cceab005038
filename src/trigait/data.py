"""Dataset persistence and batch sampling.

On disk a dataset is a directory with `manifest.tsv` (subject, condition,
view, seq_index, stem) plus one `.tgsl` (bit-packed silhouette frames) and one
`.tgkt` (float64 keypoints) file per sequence. Round trips are bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .checkpoint import read_header, write_header
from .synth import CONDITIONS, SilhouetteSequence, SkeletonSequence

SIL_MAGIC = b"TGSL"
KPT_MAGIC = b"TGKT"


def write_silhouette(path, seq: SilhouetteSequence) -> None:
    t, h, w = seq.frames.shape
    with open(path, "wb") as fh:
        write_header(fh, SIL_MAGIC, t, h, w)
        fh.write(np.packbits(seq.frames.reshape(-1)).tobytes())


def _check_length(path, payload: memoryview, expected: int, kind: str) -> None:
    if len(payload) != expected:
        raise ValueError(f"{path}: {kind} payload is {len(payload)} bytes, expected {expected}")


def read_silhouette_frames(path) -> np.ndarray:
    (t, h, w), payload = read_header(path, SIL_MAGIC, 3, "silhouette")
    total = t * h * w
    _check_length(path, payload, (total + 7) // 8, "silhouette")
    return np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=total).reshape(t, h, w)


def write_keypoints(path, seq: SkeletonSequence) -> None:
    t, k, _ = seq.joints.shape
    with open(path, "wb") as fh:
        write_header(fh, KPT_MAGIC, t, k)
        fh.write(np.asarray(seq.joints, dtype="<f8").tobytes())


def read_keypoints(path) -> np.ndarray:
    (t, k), payload = read_header(path, KPT_MAGIC, 2, "keypoint")
    _check_length(path, payload, t * k * 16, "keypoint")
    arr = np.frombuffer(payload, dtype="<f8").reshape(t, k, 2).astype(np.float64)
    if not np.isfinite(arr).all():
        frame = int(np.argwhere(~np.isfinite(arr))[0, 0])
        raise ValueError(f"{path}: non-finite keypoint at frame {frame}")
    return arr


@dataclass(frozen=True)
class SequenceRecord:
    subject: int
    condition: str
    view: int
    seq_index: int
    stem: str


class GaitDataset:
    """Read-only handle over a dataset directory; safe to share once loaded."""

    def __init__(self, root, records: list[SequenceRecord]):
        self.root = Path(root)
        self._records = records
        self._by_subject: dict[int, list[SequenceRecord]] = {}
        for r in records:
            self._by_subject.setdefault(r.subject, []).append(r)

    def subjects(self) -> list[int]:
        return sorted(self._by_subject)

    def records(self) -> list[SequenceRecord]:
        return list(self._records)

    def records_for(self, subject: int) -> list[SequenceRecord]:
        return list(self._by_subject[subject])

    def load_pair(self, rec: SequenceRecord) -> tuple[np.ndarray, np.ndarray]:
        frames = read_silhouette_frames(self.root / f"{rec.stem}.tgsl")
        joints = read_keypoints(self.root / f"{rec.stem}.tgkt")
        return frames, joints

    def __len__(self) -> int:
        return len(self._records)


def write_dataset(root, pairs: Iterable[tuple[SkeletonSequence, SilhouetteSequence]]) -> GaitDataset:
    """Persist sequences and the manifest under `root`."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    records = []
    for ske, sil in pairs:
        stem = f"s{ske.subject_id:04d}_{ske.condition}_v{ske.view:03d}_q{ske.seq_index:02d}"
        write_silhouette(root / f"{stem}.tgsl", sil)
        write_keypoints(root / f"{stem}.tgkt", ske)
        records.append(
            SequenceRecord(ske.subject_id, ske.condition, ske.view, ske.seq_index, stem)
        )
    with open(root / "manifest.tsv", "w") as fh:
        fh.write("subject\tcondition\tview\tseq_index\tstem\n")
        for r in records:
            fh.write(f"{r.subject}\t{r.condition}\t{r.view}\t{r.seq_index}\t{r.stem}\n")
    return GaitDataset(root, records)


def _parse_manifest_row(cols: list[str], stems: set, where: str) -> SequenceRecord:
    """One manifest row; `stems` holds the stems of the rows above it."""
    if len(cols) != 5:
        raise ValueError(f"{where}: expected 5 tab-separated columns, got {len(cols)}")
    try:
        rec = SequenceRecord(int(cols[0]), cols[1], int(cols[2]), int(cols[3]), cols[4])
    except ValueError:
        raise ValueError(f"{where}: non-integer subject, view or seq_index: {cols}") from None
    if rec.condition not in CONDITIONS:
        raise ValueError(f"{where}: condition {rec.condition!r} not in {'/'.join(CONDITIONS)}")
    if min(rec.subject, rec.view, rec.seq_index) < 0:
        raise ValueError(f"{where}: negative subject, view or seq_index: {cols}")
    if rec.stem in stems:
        raise ValueError(f"{where}: duplicate stem {rec.stem!r}")
    return rec


def read_dataset(root) -> GaitDataset:
    root = Path(root)
    manifest = root / "manifest.tsv"
    if not manifest.exists():
        raise FileNotFoundError(f"no manifest.tsv under {root}")
    records = []
    stems = set()
    with open(manifest) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header != ["subject", "condition", "view", "seq_index", "stem"]:
            raise ValueError(f"{manifest}: unexpected manifest header {header}")
        for ln, line in enumerate(fh, start=2):
            rec = _parse_manifest_row(line.rstrip("\n").split("\t"), stems, f"{manifest}:{ln}")
            stems.add(rec.stem)
            records.append(rec)
    for r in records:
        for ext in (".tgsl", ".tgkt"):
            if not (root / (r.stem + ext)).exists():
                raise FileNotFoundError(f"manifest lists {r.stem}{ext} but file is missing")
    return GaitDataset(root, records)


def _crop_frames(n_frames: int, want: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of `want` contiguous frames (tiled if the sequence is shorter)."""
    if n_frames >= want:
        start = int(rng.integers(0, n_frames - want + 1))
        return np.arange(start, start + want)
    reps = int(np.ceil(want / n_frames))
    return np.tile(np.arange(n_frames), reps)[:want]


def sample_batch(
    dataset: GaitDataset, subjects: int, sequences: int, frames: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`subjects` distinct subjects x `sequences` sequences each, every one
    cropped to the same `frames`-frame window in both modalities.

    Returns silhouettes (N, T, H, W) uint8, skeletons (N, T, 17, 2) float64
    and the subject id of each row (N,), N = subjects * sequences.
    """
    available = dataset.subjects()
    if len(available) < subjects:
        raise ValueError(f"sample_batch: need {subjects} subjects, dataset has {len(available)}")
    chosen = rng.choice(available, size=subjects, replace=False)
    sils, skes, labels = [], [], []
    for subj in chosen:
        recs = dataset.records_for(int(subj))
        idx = rng.choice(len(recs), size=sequences, replace=len(recs) < sequences)
        for i in idx:
            sil, joints = dataset.load_pair(recs[int(i)])
            window = _crop_frames(sil.shape[0], frames, rng)
            sils.append(sil[window])
            skes.append(joints[window])
            labels.append(int(subj))
    return np.stack(sils), np.stack(skes), np.array(labels, dtype=np.int64)
