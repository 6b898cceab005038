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


@dataclass
class EvalReport:
    """rank1[condition] is a (V, V) grid indexed by [probe_view, gallery_view],
    NaN where a cell has no probes or no gallery."""

    views: list[int]
    rank1: dict[str, np.ndarray]
    conditions: tuple[str, ...] = CONDITIONS

    def probe_view_means(self, condition: str) -> np.ndarray:
        """Per probe view: mean over gallery views, identical view excluded."""
        grid = self.rank1[condition]
        v = len(self.views)
        out = np.full(v, np.nan)
        for pi in range(v):
            vals = [grid[pi, gi] for gi in range(v) if gi != pi and not np.isnan(grid[pi, gi])]
            if vals:
                out[pi] = float(np.mean(vals))
        return out

    def condition_mean(self, condition: str) -> float:
        grid = self.rank1[condition]
        v = len(self.views)
        vals = [
            grid[pi, gi]
            for pi in range(v)
            for gi in range(v)
            if gi != pi and not np.isnan(grid[pi, gi])
        ]
        return float(np.mean(vals)) if vals else float("nan")

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
    conditions: tuple[str, ...] = CONDITIONS,
) -> EvalReport:
    """Nearest-neighbour rank-1 accuracy per (condition, probe view, gallery
    view) cell. Ties break toward the lowest gallery index."""
    views = sorted(set(np.asarray(gallery_views).tolist()) | set(np.asarray(probe_views).tolist()))
    v = len(views)
    if gallery_emb.shape[0] == 0:
        raise ValueError("rank1: empty gallery")
    dist = part_summed_distances(probe_emb, gallery_emb)
    report = EvalReport(views=views, rank1={}, conditions=tuple(conditions))
    for cond in conditions:
        grid = np.full((v, v), np.nan)
        for pi, pv in enumerate(views):
            probe_sel = np.flatnonzero(
                (probe_conditions == cond) & (probe_views == pv)
            )
            if probe_sel.size == 0:
                continue
            for gi, gv in enumerate(views):
                gal_sel = np.flatnonzero(gallery_views == gv)
                if gal_sel.size == 0:
                    continue
                sub = dist[np.ix_(probe_sel, gal_sel)]
                nearest = gal_sel[np.argmin(sub, axis=1)]
                correct = gallery_labels[nearest] == probe_labels[probe_sel]
                grid[pi, gi] = float(np.mean(correct))
        report.rank1[cond] = grid
    return report


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
    lines = []
    if fmt == "markdown":
        header = "| Probe | " + " | ".join(str(v) for v in views) + " | Mean |"
        sep = "|" + "---|" * (len(views) + 2)
        lines += ["## Rank-1 accuracy (%) by probe view, identical-view cells excluded", "", header, sep]
        for cond in report.conditions:
            means = report.probe_view_means(cond)
            row = [cond] + [_fmt_pct(m, full) for m in means]
            row.append(_fmt_pct(report.condition_mean(cond), full))
            lines.append("| " + " | ".join(row) + " |")
        lines += ["", "## Condition summary", "", "| Condition | Rank-1 (%) |", "|---|---|"]
        for cond in report.conditions:
            lines.append(f"| {cond} | {_fmt_pct(report.condition_mean(cond), full)} |")
        lines.append(f"| Mean | {_fmt_pct(report.grand_mean(), full)} |")
    else:
        lines.append("table\tcondition\t" + "\t".join(f"v{v:03d}" for v in views) + "\tmean")
        for cond in report.conditions:
            means = report.probe_view_means(cond)
            cells = "\t".join(_fmt_pct(m, full) for m in means)
            lines.append(
                f"views\t{cond}\t{cells}\t{_fmt_pct(report.condition_mean(cond), full)}"
            )
        for cond in report.conditions:
            pad = "\t" * len(views)
            lines.append(
                f"summary\t{cond}{pad}\t{_fmt_pct(report.condition_mean(cond), full)}"
            )
        lines.append(
            "summary\tMEAN" + "\t" * len(views) + f"\t{_fmt_pct(report.grand_mean(), full)}"
        )
    return "\n".join(lines) + "\n"
