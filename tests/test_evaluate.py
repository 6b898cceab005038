"""Rank-1 protocol, report layout, gallery/probe split."""

import numpy as np
import pytest

from trigait.data import SequenceRecord
from trigait.evaluate import (
    EvalReport,
    embed_all,
    emit_report,
    part_summed_distances,
    rank1,
    split_gallery_probe,
)
from trigait.tensor import Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


def rec(subject, condition, view, seq_index):
    return SequenceRecord(subject, condition, view, seq_index,
                          f"s{subject:04d}_{condition}_v{view:03d}_q{seq_index:02d}")


class TestSplit:
    def test_first_four_nm_in_gallery(self):
        records = [rec(0, "NM", 0, q) for q in range(6)]
        records += [rec(0, "BG", 0, q) for q in range(2)]
        records += [rec(0, "CL", 0, q) for q in range(2)]
        split = split_gallery_probe(records)
        assert len(split.gallery) == 4
        assert all(r.condition == "NM" and r.seq_index < 4 for r in split.gallery)
        assert len(split.probes) == 6
        assert not set(r.stem for r in split.gallery) & set(r.stem for r in split.probes)


class TestDistances:
    def test_part_summed_matches_loops(self):
        r = rng(1)
        a, b = r.standard_normal((4, 5, 3)), r.standard_normal((6, 5, 3))
        d = part_summed_distances(a, b)
        for i in range(4):
            for j in range(6):
                expected = sum(
                    np.linalg.norm(a[i, :, p] - b[j, :, p]) for p in range(3)
                )
                assert abs(d[i, j] - expected) < 1e-9


class TestRank1:
    def test_probes_equal_gallery_give_perfect_scores(self):
        # per-subject constant embeddings: every probe has a zero-distance
        # gallery twin at every view, so all cells including cross-view hit 1.0
        r = rng(2)
        per_subject = r.standard_normal((4, 6, 2))
        labels = np.repeat(np.arange(4), 3)
        views = np.tile([0, 90, 0], 4)
        emb = per_subject[labels]
        conds = np.array(["NM"] * 12)
        report = rank1(emb, labels, views, emb, labels, views, conds)
        grid = report.rank1["NM"]
        assert np.nanmin(grid) == 1.0

    def test_handmade_wrong_neighbour(self):
        # 2 subjects; probe 0 sits nearer the wrong subject's gallery entry
        gal = np.array([[[0.0]], [[1.0]]])          # (2, 1, 1)
        gal_labels = np.array([0, 1])
        gal_views = np.array([0, 0])
        probes = np.array([[[0.9]], [[0.1]]])       # probe0 label0 but near gallery1
        probe_labels = np.array([0, 1])
        probe_views = np.array([90, 90])
        conds = np.array(["NM", "NM"])
        report = rank1(gal, gal_labels, gal_views, probes, probe_labels, probe_views, conds)
        pi = report.views.index(90)
        gi = report.views.index(0)
        assert report.rank1["NM"][pi, gi] == 0.0  # both probes match the wrong entry

    def test_tie_breaks_to_lowest_gallery_index(self):
        gal = np.zeros((2, 1, 1))                   # identical gallery entries
        gal_labels = np.array([3, 7])
        gal_views = np.array([0, 0])
        probe = np.zeros((1, 1, 1))
        report = rank1(gal, gal_labels, gal_views, probe, np.array([3]),
                       np.array([18]), np.array(["NM"]))
        pi = report.views.index(18)
        gi = report.views.index(0)
        assert report.rank1["NM"][pi, gi] == 1.0  # matched index 0 (label 3)

    def test_identical_view_cells_excluded_from_means(self):
        views = list(range(0, 198, 18))
        grid = np.full((11, 11), 0.8)
        np.fill_diagonal(grid, 0.0)
        rep = EvalReport(views=views, rank1={c: grid.copy() for c in ("NM", "BG", "CL")})
        # 110 of 121 cells averaged; the poisoned diagonal must not leak
        assert abs(rep.condition_mean("NM") - 0.8) < 1e-12
        counted = sum(
            1 for pi in range(11) for gi in range(11)
            if pi != gi and not np.isnan(rep.rank1["NM"][pi, gi])
        )
        assert counted == 110

    def test_monotone_in_duplicated_correct_probe(self):
        r = rng(3)
        gal = r.standard_normal((8, 4, 2))
        gal_labels = np.arange(8) % 4
        gal_views = np.zeros(8, dtype=int)
        probe = r.standard_normal((5, 4, 2))
        probe_labels = np.arange(5) % 4
        probe_views = np.full(5, 90)
        conds = np.array(["BG"] * 5)
        base = rank1(gal, gal_labels, gal_views, probe, probe_labels, probe_views, conds)
        # find a correctly matched probe and duplicate it
        d = part_summed_distances(probe, gal)
        correct_idx = [
            i for i in range(5) if gal_labels[np.argmin(d[i])] == probe_labels[i]
        ]
        if not correct_idx:
            pytest.skip("no correct probe in this draw")
        i = correct_idx[0]
        probe2 = np.concatenate([probe, probe[i : i + 1]])
        dup = rank1(
            gal, gal_labels, gal_views, probe2,
            np.concatenate([probe_labels, probe_labels[i : i + 1]]),
            np.concatenate([probe_views, probe_views[i : i + 1]]),
            np.array(["BG"] * 6),
        )
        for c in ("NM", "BG", "CL"):
            g1, g2 = base.rank1[c], dup.rank1[c]
            mask = ~np.isnan(g1)
            assert (g2[mask] >= g1[mask] - 1e-12).all()

    def test_means_recompute_from_cells(self):
        r = rng(4)
        views = [0, 18, 36]
        grids = {c: r.uniform(0, 1, (3, 3)) for c in ("NM", "BG", "CL")}
        rep = EvalReport(views=views, rank1=grids)
        for c in ("NM", "BG", "CL"):
            cells = [
                grids[c][pi, gi] for pi in range(3) for gi in range(3) if pi != gi
            ]
            assert abs(rep.condition_mean(c) - np.mean(cells)) < 1e-12
        assert abs(
            rep.grand_mean()
            - np.mean([rep.condition_mean(c) for c in ("NM", "BG", "CL")])
        ) < 1e-12


class _CountingDataset:
    """Sequence i has ts[i] frames whose pixels and joints all hold i;
    counts load_pair calls."""

    def __init__(self, ts):
        self.ts, self.loaded = ts, 0

    def records(self):
        return [rec(i % 3, "NM", 0, i) for i in range(len(self.ts))]

    def load_pair(self, r):
        self.loaded += 1
        t = self.ts[r.seq_index]
        return np.full((t, 4, 4), r.seq_index, np.uint8), np.full((t, 17, 2), r.seq_index, float)


class _IndexNet:
    """Embeds each sequence as its index, (1, 1) per sequence, and logs the
    batches it was given."""

    def __init__(self):
        self.batches = []

    def eval(self):
        pass

    def forward(self, sil, ske):
        self.batches.append(ske[:, 0, 0, 0].astype(int).tolist())
        return Tensor(ske[:, :1, :1, 0])


class TestEmbedAll:
    def test_shapes_determinism_distinctness(self, tmp_path):
        from trigait.evaluate import embed_all
        from trigait.config import RunConfig
        from trigait.model import TriGaitNet, preprocess_silhouettes

        from test_synth_data import make_tiny_dataset

        ds = make_tiny_dataset(tmp_path / "d", n_subjects=2, views=(0, 90),
                               seqs_per_view=1, T=32)
        net = TriGaitNet(RunConfig(miniature=True), 2, rng(9))
        pre = lambda f: preprocess_silhouettes(f, 16)
        emb1, labels, views, conds, recs = embed_all(net, ds, pre, max_frames=10)
        emb2, *_ = embed_all(net, ds, pre, max_frames=10)
        assert emb1.shape == (len(ds), 64, 11)
        np.testing.assert_array_equal(emb1, emb2)
        # generically, different sequences embed differently
        assert np.abs(emb1[0] - emb1[1]).max() > 1e-9

    def test_streams_one_batch_at_a_time(self):
        ds, net = _CountingDataset([30] * 40), _IndexNet()
        loaded_at_preprocess = []

        def pre(frames):
            loaded_at_preprocess.append(ds.loaded)
            return frames

        emb, *_ = embed_all(net, ds, pre, batch_size=16)
        assert loaded_at_preprocess == [16, 32, 40]
        np.testing.assert_array_equal(emb[:, 0, 0], np.arange(40))

    def test_mixed_frame_counts_keep_batch_composition(self):
        ts = [5, 6, 5, 5, 7, 6, 5, 6, 6, 5, 9, 5, 6]
        ds, net = _CountingDataset(ts), _IndexNet()
        emb, *_ = embed_all(net, ds, lambda f: f, batch_size=3, max_frames=8)
        # every frame count's records in order, cut into runs of batch_size
        by_t = {}
        for i, t in enumerate(ts):
            by_t.setdefault(min(t, 8), []).append(i)
        want = [idxs[lo : lo + 3] for _, idxs in sorted(by_t.items())
                for lo in range(0, len(idxs), 3)]
        assert sorted(net.batches) == sorted(want)
        assert net.batches[-3:] == [[8, 12], [4], [10]]  # partial batches last, by frame count
        np.testing.assert_array_equal(emb[:, 0, 0], np.arange(len(ts)))

    def test_missing_gallery_view_gives_absent_cells(self):
        r = rng(10)
        gal = r.standard_normal((6, 4, 2))
        gal_labels = np.arange(6) % 3
        gal_views = np.zeros(6, dtype=int)          # gallery only at view 0
        probe = r.standard_normal((4, 4, 2))
        rep = rank1(gal, gal_labels, gal_views, probe, np.arange(4) % 3,
                    np.full(4, 90), np.array(["NM"] * 4))
        pi, gi = rep.views.index(90), rep.views.index(90)
        assert np.isnan(rep.rank1["NM"][pi, gi])    # no gallery at view 90
        assert not np.isnan(rep.condition_mean("NM"))


class TestReportEmission:
    def make_report(self):
        r = rng(5)
        views = list(range(0, 198, 18))
        return EvalReport(
            views=views, rank1={c: r.uniform(0, 1, (11, 11)) for c in ("NM", "BG", "CL")}
        )

    def test_markdown_layout(self):
        text = emit_report(self.make_report(), "markdown")
        lines = text.splitlines()
        header = next(l for l in lines if l.startswith("| Probe"))
        assert header.count("|") == 14  # Probe + 11 views + Mean -> 13 columns
        data_cols = header.strip("|").split("|")
        assert len(data_cols) == 13  # label + 12 data columns (11 views + mean)
        for cond in ("NM", "BG", "CL"):
            assert any(l.startswith(f"| {cond} |") for l in lines)
        assert any(l.startswith("| Mean |") for l in lines)

    def test_tsv_roundtrip(self):
        rep = self.make_report()
        text = emit_report(rep, "tsv")
        rows = [l.split("\t") for l in text.splitlines()]
        header = rows[0]
        assert header[:2] == ["table", "condition"]
        view_rows = {r[1]: r for r in rows if r[0] == "views"}
        for ci, cond in enumerate(("NM", "BG", "CL")):
            means = rep.probe_view_means(cond)
            parsed = [float(x) for x in view_rows[cond][2:13]]
            np.testing.assert_allclose(parsed, 100.0 * means, atol=0)
            assert float(view_rows[cond][13]) == 100.0 * rep.condition_mean(cond)
        summary = {r[1]: r for r in rows if r[0] == "summary"}
        assert set(summary) == {"NM", "BG", "CL", "MEAN"}
        assert float(summary["MEAN"][-1]) == 100.0 * rep.grand_mean()

    def test_unprobed_condition_left_out_of_grand_mean(self):
        rep = self.make_report()
        rep.rank1["NM"] = np.full((11, 11), np.nan)
        assert np.isnan(rep.condition_mean("NM"))
        expected = np.mean([rep.condition_mean("BG"), rep.condition_mean("CL")])
        assert rep.grand_mean() == expected
        mean_line = emit_report(rep, "tsv").splitlines()[-1]
        assert mean_line.startswith("summary\tMEAN")
        assert float(mean_line.split("\t")[-1]) == 100.0 * expected
        for cond in ("BG", "CL"):
            rep.rank1[cond] = np.full((11, 11), np.nan)
        assert np.isnan(rep.grand_mean())

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(self.make_report(), "yaml")
