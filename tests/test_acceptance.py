"""Acceptance suite: one test per release criterion, each printing a PASS line.

Criteria 5 and 8 drive the real CLI in subprocesses with --threads 1, so they
also pin down the end-to-end single-thread determinism contract.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from trigait.fusion import (
    cross_modal_tokens,
    motion_ranges,
    motion_row_ranges,
    neck_normalize,
    uniform_row_ranges,
)
from trigait.checks import (
    batch_norm_stats,
    bruteforce_batch_all,
    bruteforce_motion_rows,
    bruteforce_rank1,
)
from trigait.config import RunConfig
from trigait.gradcheck import gradcheck, model_param_gradcheck
from trigait.losses import triplet_ba_loss
from trigait.model import TriGaitNet, preprocess_silhouettes
from trigait.silhouette import SilhouetteBranch, SpatialRefine
from trigait.skeleton import JsaTcBlock, SkeletonBranch
from trigait.synth import render_sequence, synth_subject
from trigait.tensor import (
    Tensor,
    concat,
    conv,
    gem,
    linear,
    matmul,
    pairwise_part_distances,
    sigmoid,
    softmax,
    softplus,
    stack,
)

OP_TOL = 1e-4
BRANCH_TOL = 1e-3
EXACT = 0.0
TIGHT = 1e-12
ORACLE_TOL = 1e-9


def rng(seed=0):
    return np.random.default_rng(seed)


MINI = RunConfig(miniature=True).resolved()


def miniature_silhouette_branch(generator):
    return SilhouetteBranch(MINI.sil_channels, MINI.sil_parts, MINI.sil_reduction,
                            MINI.sil_dilations, MINI.gem_p_init, generator)


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "trigait.cli", *argv],
        capture_output=True, text=True, timeout=1800,
    )


def walking_pair(seed=0, t=5, view=90, condition="NM"):
    subj = synth_subject(seed)
    return render_sequence(subj, condition, view, T=t, seed=seed)


class TestCriterion1Gradients:
    def test_every_op_and_branch(self):
        start = time.time()
        r = rng(100)

        op_cases = [
            ("conv1d", lambda x, w, b: conv(x, w, b, padding=1),
             [r.uniform(-1, 1, (1, 2, 7)), r.uniform(-1, 1, (3, 2, 3)), r.uniform(-1, 1, 3)]),
            ("conv2d_dilated", lambda x, w: conv(x, w, dilation=2, padding=2),
             [r.uniform(-1, 1, (1, 2, 7, 6)), r.uniform(-1, 1, (2, 2, 3, 3))]),
            ("conv3d", lambda x, w, b: conv(x, w, b, padding=1),
             [r.uniform(-1, 1, (1, 1, 4, 5, 5)), r.uniform(-1, 1, (2, 1, 3, 3, 3)), r.uniform(-1, 1, 2)]),
            ("linear", linear,
             [r.uniform(-1, 1, (4, 3)), r.uniform(-1, 1, (3, 2)), r.uniform(-1, 1, 2)]),
            ("matmul_batched", matmul,
             [r.uniform(-1, 1, (3, 2, 4)), r.uniform(-1, 1, (3, 4, 2))]),
            ("softmax", lambda x: softmax(x, axis=1), [r.uniform(-2, 2, (3, 6))]),
            ("sigmoid", sigmoid, [r.uniform(-3, 3, (4, 4))]),
            ("softplus", softplus, [r.uniform(-3, 3, (4, 4))]),
            ("batch_norm", lambda x: batch_norm_stats(x, (0, 2), 1e-5)[2],
             [r.uniform(-1, 1, (3, 2, 5))]),
            ("gem", lambda x, p: gem(x, p, axis=1),
             [r.uniform(0.1, 2.0, (3, 7)), np.array(1.6)]),
            ("max_pool", lambda x: x.max(axis=(1, 2)), [r.uniform(-1, 1, (3, 4, 5))]),
            ("avg_pool", lambda x: x.mean(axis=(1,)), [r.uniform(-1, 1, (3, 6))]),
            ("reductions", lambda x: (x.sum(axis=0) + x.mean(axis=1, keepdims=True).sum(axis=0)) * x.max(axis=(0, 1)),
             [r.uniform(-1, 1, (4, 5))]),
            ("shape_ops", lambda a, b: concat([a, b], axis=1).transpose(1, 0).reshape(5, 2)[1:][[0, 2, 2]],
             [r.uniform(-1, 1, (2, 3)), r.uniform(-1, 1, (2, 2))]),
            ("pow_exp_log_sqrt", lambda x: ((x.exp().log() + (x * x)) ** 1.5).sqrt(),
             [r.uniform(0.2, 2.0, (3, 4))]),
            ("pairwise_distances", pairwise_part_distances, [r.uniform(-1, 1, (5, 3, 2))]),
        ]
        for name, fn, inputs in op_cases:
            err = gradcheck(fn, inputs, n_samples=16, seed=101)
            assert err < OP_TOL, f"{name}: rel err {err:.3e}"

        labels = np.array([0, 0, 1, 1, 2, 2])

        def tri(e):
            loss, _ = triplet_ba_loss(e, labels, 0.4)
            return loss

        err = gradcheck(tri, [r.standard_normal((6, 3, 2))], n_samples=16, seed=102)
        assert err < OP_TOL, f"triplet: rel err {err:.3e}"

        # full branches at the miniature shapes: T=5, 16x16, 17 joints
        sil_branch = miniature_silhouette_branch(rng(103))
        x = rng(104).uniform(0, 1, (1, 1, 5, 16, 16))
        err = model_param_gradcheck(sil_branch, lambda xt: sil_branch(xt)[0], [x],
                                    n_params=5, n_coords=3, seed=105)
        assert err < BRANCH_TOL, f"silhouette branch: rel err {err:.3e}"

        ske_branch = SkeletonBranch(
            MINI.ske_channels, MINI.ske_heads, MINI.tc_kernel, MINI.input_size // 4, rng(106)
        )
        joints = walking_pair(seed=2, t=5)[0].joints[None]
        err = model_param_gradcheck(ske_branch, lambda: ske_branch(joints)[0], [],
                                    n_params=5, n_coords=3, seed=107)
        assert err < BRANCH_TOL, f"skeleton branch: rel err {err:.3e}"

        net = TriGaitNet(RunConfig(miniature=True), 2, rng(108))
        pairs = [walking_pair(seed=s, t=5) for s in (3, 4, 5, 6)]
        sils = preprocess_silhouettes(np.stack([p[1].frames for p in pairs]), 16)
        skes = np.stack([p[0].joints for p in pairs])
        batch_labels = np.array([0, 0, 1, 1])

        def net_loss():
            emb = net.forward(sils, skes)
            total, _ = net.loss(emb, batch_labels)
            return total

        err = model_param_gradcheck(net, net_loss, [], n_params=8, n_coords=2, seed=109)
        assert err < BRANCH_TOL, f"full model: rel err {err:.3e}"

        elapsed = time.time() - start
        assert elapsed < 300, f"gradient suite took {elapsed:.0f}s"
        print(f"\nACCEPTANCE PASS [1] gradient suite: ops < {OP_TOL}, branches < {BRANCH_TOL}, {elapsed:.0f}s")


class TestCriterion2Invariants:
    def test_analytic_invariants(self):
        r = rng(200)
        x = r.standard_normal((6, 9)) * 8
        y = softmax(Tensor(x), axis=1).data
        assert np.abs(y.sum(axis=1) - 1.0).max() < TIGHT
        assert np.abs(softmax(Tensor(x + 41.0), axis=1).data - y).max() < TIGHT

        # attention rows sum to 1 for every (frame, head, query joint)
        q = Tensor(r.standard_normal((2, 3, 4, 17, 4)))
        k = Tensor(r.standard_normal((2, 3, 4, 17, 4)))
        scores = matmul(q, k.transpose(0, 1, 2, 4, 3)) * 0.5
        w = softmax(scores, axis=-1).data
        assert np.abs(w.sum(axis=-1) - 1.0).max() < TIGHT

        xs = r.uniform(0.05, 3.0, (4, 9))
        assert np.abs(gem(Tensor(xs), Tensor(1.0), axis=1).data - xs.mean(axis=1)).max() < TIGHT
        prev = None
        for p in (1.0, 2.0, 4.0, 8.0):
            cur = gem(Tensor(xs), Tensor(p), axis=1).data
            if prev is not None:
                assert (cur >= prev - TIGHT).all()
            prev = cur

        # spatial/temporal attention maps live strictly inside (0, 1)
        branch = miniature_silhouette_branch(rng(201))
        ske, sil = walking_pair(seed=5, t=5)
        f, _ = branch.stem_forward(Tensor(preprocess_silhouettes(sil.frames[None], 16)[:, None]))
        s_a = branch.global_refine.attention(f.max(axis=2)).data
        assert (s_a > 0).all() and (s_a < 1).all()
        base = gem(Tensor(np.maximum(f.data, 0.0)), branch.gem_temporal.p(), axis=-1)
        f_t = stack([tc(base) for tc in branch.temporal_convs], axis=4)
        n, c, t, h, s = f_t.shape
        s_t = sigmoid(branch.mta_conv2(branch.mta_conv1(f_t.reshape(n, c, t, h * s)))).data
        assert (s_t > 0).all() and (s_t < 1).all()

        # residual identity bypasses
        sr = SpatialRefine(4, 2, rng(202))
        xin = r.uniform(-1, 1, (1, 4, 6, 6))
        bypass = Tensor(xin) + Tensor(xin) * Tensor(np.zeros((1, 1, 6, 6)))
        assert np.array_equal(bypass.data, xin)
        blk = JsaTcBlock(5, 5, heads=1, rng=rng(203))
        for name, p in blk.named_parameters():
            if not name.startswith("bn"):
                p.data[...] = 0.0
        xb = r.standard_normal((1, 5, 4, 17))
        assert np.abs(blk(Tensor(xb)).data - xb).max() < TIGHT
        print("\nACCEPTANCE PASS [2] analytic invariants: softmax/attention/GeM/attention-range/residual")


class TestCriterion3Oracles:
    def test_motion_ranges_bruteforce(self):
        for seed in range(4):
            ske, _ = walking_pair(seed=seed, t=10, view=int(18 * seed))
            norm = neck_normalize(ske.joints)
            got = motion_ranges(norm, h_feat=16)
            want = bruteforce_motion_rows(norm, h_feat=16)
            assert [(r.h_f, r.h_e, r.row_lo, r.row_hi) for r in got] == want

    def test_triplet_oracle_batches_up_to_12(self):
        r = rng(300)
        for trial in range(4):
            n = int(r.integers(6, 13))
            labels = r.integers(0, 4, n)
            while len(np.unique(labels)) < 2 or np.bincount(labels).max() < 2:
                labels = r.integers(0, 4, n)
            emb = r.standard_normal((n, 5, 3))
            loss, frac = triplet_ba_loss(Tensor(emb), labels, margin=0.2)
            expected, expected_frac = bruteforce_batch_all(emb, labels, 0.2)
            assert abs(loss.item() - expected) < ORACLE_TOL
            assert abs(frac - expected_frac) < ORACLE_TOL

    def test_rank1_oracle_200_sequences(self):
        from trigait.evaluate import rank1

        r = rng(301)
        n_gal, n_probe = 110, 90  # 200 total
        gal = r.standard_normal((n_gal, 6, 4))
        probe = r.standard_normal((n_probe, 6, 4))
        gal_labels = r.integers(0, 12, n_gal)
        probe_labels = r.integers(0, 12, n_probe)
        views = np.array([0, 54, 126])
        gal_views = views[r.integers(0, 3, n_gal)]
        probe_views = views[r.integers(0, 3, n_probe)]
        conds = np.array(["NM", "BG", "CL"])[r.integers(0, 3, n_probe)]
        args = (gal, gal_labels, gal_views, probe, probe_labels, probe_views, conds)
        rep = rank1(*args)
        for cond, want in bruteforce_rank1(*args, rep.views).items():
            np.testing.assert_array_equal(rep.rank1[cond], want)
        print("\nACCEPTANCE PASS [3] oracle equivalences: motion ranges, BA+ triplet, rank-1")


class TestCriterion4ShapeContract:
    def test_embedding_shape_and_alpha_null(self):
        net = TriGaitNet(RunConfig(), 4, rng(400))
        ske, sil = walking_pair(seed=6, t=5)
        emb = net.forward(sil.frames[None].astype(np.float64), ske.joints[None])
        assert emb.shape == (1, 256, 23)  # 16 unimodal-fused + 7 cross-modal parts

        net.assembler.alpha.data[...] = 0.0
        net.eval()
        e1 = net.forward(sil.frames[None].astype(np.float64), ske.joints[None]).data
        # perturb the skeleton branch wildly; alpha = 0 must null it in Gait'
        for name, p in net.skeleton.named_parameters():
            p.data += 3.0
        e2 = net.forward(sil.frames[None].astype(np.float64), ske.joints[None]).data
        np.testing.assert_array_equal(e1[:, :, :16], e2[:, :, :16])
        print("\nACCEPTANCE PASS [4] shape contract: 256x23 embedding, alpha=0 nulls the skeleton path")


@pytest.fixture(scope="module")
def learning_run(tmp_path_factory):
    """synth defaults -> miniature training -> eval, all through the CLI with
    --threads 1. Deterministic for the fixed seed."""
    root = tmp_path_factory.mktemp("accept5")
    data, run, out = root / "data", root / "run", root / "eval"
    t0 = time.time()
    r = run_cli("synth", "--out", str(data), "--subjects", "8", "--views", "11",
                "--seqs-per-view", "10", "--frames", "40", "--seed", "0", "--threads", "1")
    assert r.returncode == 0, r.stderr
    cfg = root / "train.cfg"
    cfg.write_text(
        "miniature = true\n"
        "iterations = 500\n"
        "lr = 3e-3\n"
        "lr_drop_iteration = 300\n"
        "lr_after_drop = 3e-4\n"
        "batch_subjects = 8\n"
        "batch_sequences = 8\n"
        "eval_max_frames = 30\n"
        "log_every = 10\n"
        "checkpoint_every = 100000\n"
        "seed = 0\n"
    )
    r = run_cli("train", "--data", str(data), "--out", str(run),
                "--config", str(cfg), "--threads", "1")
    assert r.returncode == 0, r.stderr
    r = run_cli("eval", "--data", str(data), "--checkpoint", str(run / "model.tgck"),
                "--out", str(out), "--threads", "1")
    assert r.returncode == 0, r.stderr
    return {"root": root, "data": data, "run": run, "out": out, "elapsed": time.time() - t0}


class TestCriterion5LearningSanity:
    @pytest.mark.slow
    def test_rank1_and_triplet_loss(self, learning_run):
        elapsed = learning_run["elapsed"]
        assert elapsed < 1800, f"pipeline took {elapsed:.0f}s, budget 30 min"

        log_rows = (learning_run["run"] / "train_log.tsv").read_text().splitlines()
        header, data_rows = log_rows[0], log_rows[1:]
        cols = header.split("\t")
        first = dict(zip(cols, data_rows[0].split("\t")))
        last = dict(zip(cols, data_rows[-1].split("\t")))
        assert int(last["iteration"]) <= 2000
        initial_tri, final_tri = float(first["l_tri"]), float(last["l_tri"])
        assert final_tri < 0.25 * initial_tri, (
            f"L_tri {initial_tri:.4f} -> {final_tri:.4f} misses the 0.25x bound"
        )

        report = (learning_run["out"] / "report.tsv").read_text().splitlines()
        summary = {
            row.split("\t")[1]: float(row.split("\t")[-1])
            for row in report
            if row.startswith("summary")
        }
        assert summary["MEAN"] >= 95.0, f"training-set rank-1 {summary['MEAN']:.1f}% < 95%"
        print(
            f"\nACCEPTANCE PASS [5] learning sanity: rank-1 {summary['MEAN']:.1f}% "
            f"(NM {summary['NM']:.1f} BG {summary['BG']:.1f} CL {summary['CL']:.1f}), "
            f"L_tri {initial_tri:.3f} -> {final_tri:.4f}, {elapsed:.0f}s"
        )


class TestCriterion6AblationWiring:
    def _tokens(self, joints, mode, r):
        f_x = Tensor(r.uniform(0, 1, (1, 3, joints.shape[1], 14, 6)))
        f_y = Tensor(r.standard_normal((1, 4, joints.shape[1], 17)))
        if mode == "uniform":
            rows = uniform_row_ranges(14, 1)
        else:
            rows = motion_row_ranges(neck_normalize(joints), 14)
        return cross_modal_tokens(f_x, f_y, rows).data

    def test_modes_differ_on_real_motion(self):
        ske, _ = walking_pair(seed=7, t=6)
        joints = ske.joints[None]
        r = rng(600)
        fx = r.uniform(0, 1, (1, 3, 6, 14, 6))
        fy = r.standard_normal((1, 4, 6, 17))
        t_motion = cross_modal_tokens(
            Tensor(fx), Tensor(fy), motion_row_ranges(neck_normalize(joints), 14)
        ).data
        t_uniform = cross_modal_tokens(Tensor(fx), Tensor(fy), uniform_row_ranges(14, 1)).data
        assert np.abs(t_motion - t_uniform).max() > 1e-9

    def test_modes_agree_on_constructed_fixture(self):
        # per-part motion bands built to map exactly onto the uniform bands of
        # a 14-row feature map: part p covers rows (2p, 2p+1)
        eps = 1e-6
        slope = 6.0 / 13.0  # frac(v) = 8.5/13 + v * slope
        def v_of_frac(f):
            return (f - 8.5 / 13.0) / slope

        joints = np.zeros((2, 17, 2))
        joints[:, :, 0] = np.arange(17)
        part_bounds = {}
        for p in range(7):
            part_bounds[p] = (v_of_frac(2 * p / 13.0 + (eps if p else 0.0)),
                              v_of_frac((2 * p + 1) / 13.0 - (eps if p < 6 else 0.0)))
        # head: 5 joints sweeping the band
        (lo, hi) = part_bounds[0]
        joints[0, 0, 1], joints[1, 0, 1] = lo, hi
        for j in (1, 2, 3, 4):
            joints[:, j, 1] = 0.5 * (lo + hi)
        # symmetric pairs keep shoulder mid at -1 and hip mid at 0
        for p, (ja, jb) in enumerate([(5, 6), (7, 8), (9, 10), (11, 12), (13, 14), (15, 16)],
                                     start=1):
            lo, hi = part_bounds[p]
            center = -1.0 if p == 1 else (0.0 if p == 4 else 0.5 * (lo + hi))
            if p in (1, 4):
                # swing both joints around the fixed midpoint
                d0, d1 = center - lo, hi - center
                joints[0, ja, 1], joints[0, jb, 1] = center - d0, center + d0
                joints[1, ja, 1], joints[1, jb, 1] = center - d1, center + d1
            else:
                joints[0, ja, 1] = joints[0, jb, 1] = lo
                joints[1, ja, 1] = joints[1, jb, 1] = hi
        joints = joints[None]

        rows_motion = motion_row_ranges(neck_normalize(joints), 14)
        rows_uniform = uniform_row_ranges(14, 1)
        np.testing.assert_array_equal(rows_motion, rows_uniform)

        r = rng(601)
        fx = r.uniform(0, 1, (1, 3, 2, 14, 6))
        fy = r.standard_normal((1, 4, 2, 17))
        t_motion = cross_modal_tokens(Tensor(fx), Tensor(fy), rows_motion).data
        t_uniform = cross_modal_tokens(Tensor(fx), Tensor(fy), rows_uniform).data
        np.testing.assert_array_equal(t_motion, t_uniform)
        print("\nACCEPTANCE PASS [6] ablation wiring: uniform vs motion partitions differ and "
              "coincide exactly on the constructed fixture")


class TestCriterion7ProtocolFidelity:
    def test_report_layout_and_exclusion_counting(self):
        from trigait.evaluate import EvalReport, emit_report

        r = rng(700)
        views = list(range(0, 198, 18))
        grids = {c: r.uniform(0.2, 1.0, (11, 11)) for c in ("NM", "BG", "CL")}
        rep = EvalReport(views=views, rank1=grids)

        md = emit_report(rep, "markdown").splitlines()
        header = next(l for l in md if l.startswith("| Probe"))
        assert len(header.strip("|").split("|")) == 13  # label + 11 views + mean
        for cond in ("NM", "BG", "CL"):
            assert any(l.startswith(f"| {cond} |") for l in md)
        summary_rows = [l for l in md if l.startswith("|")][-4:]
        assert [row.split("|")[1].strip() for row in summary_rows] == ["NM", "BG", "CL", "Mean"]

        # identical-view exclusion: 110 of 121 cells averaged
        for c in ("NM", "BG", "CL"):
            poisoned = grids[c].copy()
            np.fill_diagonal(poisoned, -1000.0)
            rep2 = EvalReport(views=views, rank1={**grids, c: poisoned})
            cells = [grids[c][pi, gi] for pi in range(11) for gi in range(11) if pi != gi]
            assert len(cells) == 110
            assert abs(rep2.condition_mean(c) - np.mean(cells)) < TIGHT

        tsv = emit_report(rep, "tsv").splitlines()
        assert sum(1 for l in tsv if l.startswith("views")) == 3
        assert sum(1 for l in tsv if l.startswith("summary")) == 4
        print("\nACCEPTANCE PASS [7] protocol fidelity: table layout and 110-of-121 exclusion")


class TestCriterion8Determinism:
    def test_two_runs_bit_identical(self, tmp_path):
        def pipeline(tag):
            base = tmp_path / tag
            data, run, out = base / "data", base / "run", base / "eval"
            for argv in (
                ("synth", "--out", str(data), "--subjects", "4", "--views", "3",
                 "--seqs-per-view", "6", "--frames", "32", "--seed", "9", "--threads", "1"),
                ("train", "--data", str(data), "--out", str(run), "--iterations", "64",
                 "--miniature", "--batch-subjects", "4", "--batch-sequences", "4",
                 "--seed", "9", "--threads", "1"),
                ("eval", "--data", str(data), "--checkpoint", str(run / "model.tgck"),
                 "--out", str(out), "--threads", "1"),
            ):
                r = run_cli(*argv)
                assert r.returncode == 0, r.stderr
            return base

        a = pipeline("a")
        b = pipeline("b")
        pairs = [
            ("run/model.tgck", "checkpoint"),
            ("eval/report.tsv", "tsv report"),
            ("eval/report.md", "markdown report"),
        ]
        for rel, what in pairs:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), f"{what} differs"
        for f in sorted((a / "data").iterdir()):
            assert f.read_bytes() == (b / "data" / f.name).read_bytes()
        print("\nACCEPTANCE PASS [8] determinism: bit-identical checkpoints and reports across runs")
