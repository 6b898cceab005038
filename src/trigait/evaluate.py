"""Gallery/probe rank-1 evaluation and report emission.

The gallery holds the first four NM sequences of each subject (per view);
remaining sequences are probes grouped by condition. A probe at view pv is
correct in cell (condition, pv, gv) iff its nearest gallery embedding among
view-gv entries shares its subject, with distance summed over part-wise
Euclidean distances. Means exclude the identical-view cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import GaitDataset, SequenceRecord
from .synth import CONDITIONS
from .tensor import no_grad

GALLERY_NM_COUNT = 4


@dataclass
class EvalSplit:
    gallery: list[SequenceRecord]
    probes: list[SequenceRecord]


def split_gallery_probe(records: list[SequenceRecord]) -> EvalSplit:
    """First 4 NM sequences per (subject, view) form the gallery."""
    gallery, probes = [], []
    for r in records:
        if r.condition == "NM" and r.seq_index < GALLERY_NM_COUNT:
            gallery.append(r)
        else:
            probes.append(r)
    return EvalSplit(gallery, probes)


def part_summed_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, C, P) x (m, C, P) -> (n, m): sum over parts of Euclidean distance."""
    n, _, parts = a.shape
    total = np.zeros((n, b.shape[0]))
    for p in range(parts):
        x, y = a[:, :, p], b[:, :, p]
        d2 = (
            (x * x).sum(1)[:, None]
            + (y * y).sum(1)[None, :]
            - 2.0 * (x @ y.T)
        )
        total += np.sqrt(np.maximum(d2, 0.0))
    return total


def _scored(grid: np.ndarray) -> np.ndarray:
    """Cells that enter a mean: scored (not NaN) and not the identical view."""
    return ~np.isnan(grid) & ~np.eye(len(grid), dtype=bool)


@dataclass
class EvalReport:
    """rank1[condition] is a (V, V) grid indexed by [probe_view, gallery_view],
    NaN where a cell has no probes or no gallery."""

    views: list[int]
    rank1: dict[str, np.ndarray]

    @property
    def conditions(self) -> tuple[str, ...]:
        return tuple(self.rank1)

    def probe_view_means(self, condition: str) -> np.ndarray:
        """Per probe view: mean over gallery views, identical view excluded."""
        grid = self.rank1[condition]
        return np.array([
            row[keep].mean() if keep.any() else np.nan
            for row, keep in zip(grid, _scored(grid))
        ])

    def condition_mean(self, condition: str) -> float:
        grid = self.rank1[condition]
        cells = grid[_scored(grid)]
        return float(cells.mean()) if cells.size else float("nan")

    def grand_mean(self) -> float:
        """Mean over the conditions with a scored cell; NaN only if none has one."""
        means = [m for m in map(self.condition_mean, self.conditions) if not np.isnan(m)]
        return float(np.mean(means)) if means else float("nan")


def rank1(
    gallery_emb: np.ndarray,
    gallery_labels: np.ndarray,
    gallery_views: np.ndarray,
    probe_emb: np.ndarray,
    probe_labels: np.ndarray,
    probe_views: np.ndarray,
    probe_conditions: np.ndarray,
) -> EvalReport:
    """Nearest-neighbour rank-1 accuracy per (condition, probe view, gallery
    view) cell, for every condition in `synth.CONDITIONS`.

    hits[i, gi] is 1.0 when probe i's nearest view-gi gallery entry (ties to
    the lowest gallery index) shares its label, NaN when view gi has no
    gallery entry; a grid row is the mean of its probes' hit rows."""
    views = sorted(set(np.asarray(gallery_views).tolist()) | set(np.asarray(probe_views).tolist()))
    if gallery_emb.shape[0] == 0:
        raise ValueError("rank1: empty gallery")
    dist = part_summed_distances(probe_emb, gallery_emb)
    hits = np.full((len(probe_emb), len(views)), np.nan)
    for gi, gv in enumerate(views):
        gal_sel = np.flatnonzero(gallery_views == gv)
        if gal_sel.size:
            nearest = gal_sel[np.argmin(dist[:, gal_sel], axis=1)]
            hits[:, gi] = gallery_labels[nearest] == probe_labels
    grids = {}
    for cond in CONDITIONS:
        grid = grids[cond] = np.full((len(views), len(views)), np.nan)
        for pi, pv in enumerate(views):
            sel = (probe_conditions == cond) & (probe_views == pv)
            if sel.any():
                grid[pi] = hits[sel].mean(axis=0)
    return EvalReport(views=views, rank1=grids)


def embed_batch(net, frames: np.ndarray, joints: np.ndarray, preprocess) -> np.ndarray:
    """Eval-mode embeddings (N, C, P) of uint8 frames (N, T, H, W) and their
    joints (N, T, 17, 2); preprocess(frames) -> float input for the net."""
    net.eval()
    with no_grad():
        return net.forward(preprocess(frames), joints).data


def embed_all(net, dataset: GaitDataset, preprocess, batch_size: int = 16, max_frames: int = 0):
    """Embed every sequence of the dataset through `embed_batch`.

    Returns (embeddings (n, C, P), labels, views, conditions, records).

    Sequences stream into one bucket per frame count, in record order; a
    bucket is embedded as one batch when it holds `batch_size` sequences, and
    the partial buckets last, by frame count. So at most ``batch_size`` pairs
    per frame count are in memory, and each batch holds the same sequences
    as chunking every frame count's records in order would give.
    """
    records = dataset.records()
    out: dict[int, np.ndarray] = {}
    buckets: dict[int, list] = {}  # frame count -> [(record index, frames, joints)]

    def embed(batch):
        index = [i for i, _, _ in batch]
        frames = np.stack([f for _, f, _ in batch])
        joints = np.stack([j for _, _, j in batch])
        batch.clear()  # the per-sequence arrays are not needed through the forward
        for i, row in zip(index, embed_batch(net, frames, joints, preprocess)):
            out[i] = row

    for i, rec in enumerate(records):
        frames, joints = dataset.load_pair(rec)
        if max_frames and frames.shape[0] > max_frames:
            frames, joints = frames[:max_frames], joints[:max_frames]
        t = frames.shape[0]
        buckets.setdefault(t, []).append((i, frames, joints))
        if len(buckets[t]) == batch_size:
            embed(buckets.pop(t))
    for t in sorted(buckets):
        embed(buckets[t])
    emb = np.stack([out[i] for i in range(len(records))])
    labels = np.array([r.subject for r in records])
    views = np.array([r.view for r in records])
    conditions = np.array([r.condition for r in records])
    return emb, labels, views, conditions, records


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _fmt_pct(x: float, full: bool) -> str:
    if np.isnan(x):
        return "nan"
    pct = 100.0 * float(x)
    return repr(pct) if full else f"{pct:.1f}"


def emit_report(report: EvalReport, fmt: str = "tsv") -> str:
    """Render per-condition view rows plus the condition summary.

    tsv carries full-precision percentages (round-trippable); markdown uses
    one decimal, eleven view columns plus the mean.
    """
    if fmt not in ("tsv", "markdown"):
        raise ValueError(f"unknown report format {fmt!r}")
    full = fmt == "tsv"
    views = report.views
    # (condition, probe-view means, condition mean), formatted once for both tables
    rows = [(c, [_fmt_pct(m, full) for m in report.probe_view_means(c)],
             _fmt_pct(report.condition_mean(c), full)) for c in report.conditions]
    grand = _fmt_pct(report.grand_mean(), full)
    if fmt == "markdown":
        lines = ["## Rank-1 accuracy (%) by probe view, identical-view cells excluded", "",
                 "| Probe | " + " | ".join(str(v) for v in views) + " | Mean |",
                 "|" + "---|" * (len(views) + 2)]
        lines += ["| " + " | ".join([cond, *cells, mean]) + " |" for cond, cells, mean in rows]
        lines += ["", "## Condition summary", "", "| Condition | Rank-1 (%) |", "|---|---|"]
        lines += [f"| {cond} | {mean} |" for cond, _, mean in rows]
        lines.append(f"| Mean | {grand} |")
    else:
        pad = "\t" * len(views)
        lines = ["table\tcondition\t" + "\t".join(f"v{v:03d}" for v in views) + "\tmean"]
        lines += [f"views\t{cond}\t" + "\t".join(cells) + f"\t{mean}" for cond, cells, mean in rows]
        lines += [f"summary\t{cond}{pad}\t{mean}" for cond, _, mean in rows]
        lines.append(f"summary\tMEAN{pad}\t{grand}")
    return "\n".join(lines) + "\n"
