"""Assembly, combined loss, and whole-model behaviour."""

import hashlib
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from trigait.checks import bruteforce_batch_all
from trigait.config import RunConfig
from trigait.fusion import cross_modal_tokens, part_rows
from trigait.gradcheck import model_param_gradcheck
from trigait.losses import cross_entropy, triplet_ba_loss
from trigait.model import GaitAssembler, TriGaitNet, preprocess_silhouettes
from trigait.synth import render_sequence, synth_subject
from trigait.tensor import Tensor
from trigait.train import build_network


def rng(seed=0):
    return np.random.default_rng(seed)


def make_batch(n_subjects=4, per_subject=2, t=5, seed=0):
    sils, skes, labels = [], [], []
    for sid in range(n_subjects):
        subj = synth_subject(100 + sid)
        for q in range(per_subject):
            ske, sil = render_sequence(subj, "NM", 90, T=t, seed=seed * 100 + q,
                                       subject_id=sid, seq_index=q)
            sils.append(sil.frames)
            skes.append(ske.joints)
            labels.append(sid)
    return (
        preprocess_silhouettes(np.stack(sils), 16),
        np.stack(skes),
        np.array(labels),
    )


class TestTripletLoss:
    def test_matches_bruteforce_on_handset_embeddings(self):
        # batch of 6 (2 classes x 3) with 1-D part embeddings
        emb = np.array([0.0, 0.1, 0.35, 1.0, 1.2, 0.9]).reshape(6, 1, 1)
        labels = np.array([0, 0, 0, 1, 1, 1])
        loss, frac = triplet_ba_loss(Tensor(emb), labels, margin=0.2)
        expected, expected_frac = bruteforce_batch_all(emb, labels, 0.2)
        assert abs(loss.item() - expected) < 1e-9
        assert abs(frac - expected_frac) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_bruteforce_random_batches(self, seed):
        r = rng(seed)
        n = int(r.integers(6, 13))
        labels = r.integers(0, 3, n)
        while len(np.unique(labels)) < 2 or np.bincount(labels).max() < 2:
            labels = r.integers(0, 3, n)
        emb = r.standard_normal((n, 4, 3))
        loss, frac = triplet_ba_loss(Tensor(emb), labels, margin=0.3)
        expected, expected_frac = bruteforce_batch_all(emb, labels, 0.3)
        assert abs(loss.item() - expected) < 1e-9
        assert abs(frac - expected_frac) < 1e-12

    def test_scaling_preserves_hardest_ordering(self):
        r = rng(3)
        emb = r.standard_normal((8, 4, 2))
        labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])

        def hardest(e):
            from trigait.tensor import pairwise_part_distances

            d = pairwise_part_distances(Tensor(e)).data
            same = labels[:, None] == labels[None, :]
            pos = np.where(same & ~np.eye(8, dtype=bool), d, -np.inf).argmax(axis=2)
            neg = np.where(~same, d, np.inf).argmin(axis=2)
            return pos, neg

        p1, n1 = hardest(emb)
        p2, n2 = hardest(emb * 7.3)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(n1, n2)

    def test_single_label_rejected(self):
        with pytest.raises(ValueError):
            triplet_ba_loss(Tensor(np.ones((4, 2, 1))), np.zeros(4, dtype=int), 0.2)


class TestCrossEntropy:
    def test_uniform_logits_log_s(self):
        for s in (2, 5, 11):
            logits = Tensor(np.zeros((3, s)))
            loss = cross_entropy(logits, np.array([0, 1, s - 1]))
            assert abs(loss.item() - np.log(s)) < 1e-12

    def test_confident_correct_near_zero(self):
        logits = np.zeros((2, 4))
        logits[0, 1] = 30.0
        logits[1, 2] = 30.0
        loss = cross_entropy(Tensor(logits), np.array([1, 2]))
        assert loss.item() < 1e-9

    def test_two_class_hand_value(self):
        # -ln softmax([1, 0])[0] = ln(1 + e^-1)
        loss = cross_entropy(Tensor(np.array([[1.0, 0.0]])), np.array([0]))
        expected = np.log(1.0 + np.exp(-1.0))
        assert abs(loss.item() - expected) < 1e-12
        assert abs(expected - 0.31326) < 1e-5

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_gradcheck(self):
        from trigait.gradcheck import gradcheck

        labels = np.array([0, 2, 1])
        err = gradcheck(
            lambda z: cross_entropy(z, labels), [rng(4).uniform(-2, 2, (3, 4))]
        )
        assert err < 1e-4


class TestAssembler:
    def test_alpha_zero_nulls_skeleton_exactly(self):
        asm = GaitAssembler(6, 4, parts=3, embed_dim=5, rng=rng(5))
        asm.alpha.data[...] = 0.0
        sil = Tensor(rng(6).standard_normal((2, 6, 3)))
        fuse = Tensor(rng(7).standard_normal((2, 5, 7)))
        out1 = asm(sil, Tensor(rng(8).standard_normal((2, 4, 3))), fuse)
        out2 = asm(sil, Tensor(rng(9).standard_normal((2, 4, 3)) * 100), fuse)
        np.testing.assert_array_equal(out1.data, out2.data)

    def test_zero_inputs_zero_bias_give_zero_unimodal_part(self):
        asm = GaitAssembler(6, 4, parts=3, embed_dim=5, rng=rng(10))
        asm.fc.bias.data[...] = 0.0
        zero = Tensor(np.zeros((2, 6, 3)))
        zero_ske = Tensor(np.zeros((2, 4, 3)))
        fuse = Tensor(rng(11).standard_normal((2, 5, 7)))
        out = asm(zero, zero_ske, fuse)
        np.testing.assert_allclose(out.data[:, :, :3], 0.0, atol=0)
        np.testing.assert_array_equal(out.data[:, :, 3:], fuse.data)

    def test_per_part_maps_are_independent(self):
        asm = GaitAssembler(2, 2, parts=2, embed_dim=3, rng=rng(12))
        x = rng(13).standard_normal((1, 2, 2))
        y = rng(14).standard_normal((1, 2, 2))
        fuse = Tensor(np.zeros((1, 3, 1)))
        base = asm(Tensor(x), Tensor(y), fuse).data.copy()
        asm.fc.weight.data[1] += 1.0  # touch part 1 only
        bumped = asm(Tensor(x), Tensor(y), fuse).data
        np.testing.assert_array_equal(base[:, :, 0], bumped[:, :, 0])
        assert (base[:, :, 1] != bumped[:, :, 1]).any()


class TestFullModel:
    def test_paper_default_embedding_shape(self):
        net = TriGaitNet(RunConfig(), 4, rng(15))
        sils, skes, _ = make_batch(n_subjects=1, per_subject=1, t=5)
        sil64 = preprocess_silhouettes(
            np.stack([render_sequence(synth_subject(0), "NM", 90, T=5, seed=0)[1].frames]),
            64,
        )
        emb = net.forward(sil64, skes[:1])
        assert emb.shape == (1, 256, 23)

    def test_loss_report_additivity_bit_exact(self):
        net = TriGaitNet(RunConfig(miniature=True), 4, rng(16))
        sils, skes, labels = make_batch()
        emb = net.forward(sils, skes)
        total, rep = net.loss(emb, labels)
        assert rep.total == rep.l_tri + rep.l_ce
        assert float(total.data) == rep.total

    def test_full_model_gradcheck_miniature(self):
        net = TriGaitNet(RunConfig(miniature=True), 4, rng(17))
        sils, skes, labels = make_batch(n_subjects=2, per_subject=2)

        def loss_fn():
            emb = net.forward(sils, skes)
            total, _ = net.loss(emb, labels)
            return total

        err = model_param_gradcheck(net, loss_fn, [], n_params=10, n_coords=3, seed=18)
        assert err < 1e-3

    def test_forward_deterministic(self):
        net = TriGaitNet(RunConfig(miniature=True), 4, rng(19))
        net.eval()
        sils, skes, _ = make_batch()
        e1 = net.forward(sils, skes).data
        e2 = net.forward(sils, skes).data
        np.testing.assert_array_equal(e1, e2)


class TestEmbeddingRegression:
    """Pins the miniature network's numbers on a fixed batch. The values were
    recorded at commit 94ba9b1; a pure refactor must reproduce them. rtol
    1e-12 rather than a digest, so a last-bit BLAS difference does not fail."""

    PART_SUMS = [
        -10.092777089868067, 57.05057921020844, 54.43484183151072, -56.57674354643526,
        39.93212176856981, 40.40722420112285, 39.11962341952963, 42.318195888056344,
        31.335652302541202, 32.95859233055944, 32.758763508397124,
    ]
    WEIGHTED_SUM = 275.6704584731685
    ABS_SUM = 4559.036302326284
    LOSSES = (2.2786094403354915, 0.760979875729094, 1.5176295646063975)  # total, tri, ce
    GRAD_SQ = 87.48267227010255

    def test_eval_embeddings(self):
        net = TriGaitNet(RunConfig(miniature=True), 4, rng(0))
        net.eval()
        sils, skes, _ = make_batch()
        emb = net.forward(sils, skes).data
        assert emb.shape == (8, 64, 11)
        weights = rng(1).uniform(0.5, 1.5, emb.shape)
        np.testing.assert_allclose(emb.sum(axis=(0, 1)), self.PART_SUMS, rtol=1e-12)
        np.testing.assert_allclose((emb * weights).sum(), self.WEIGHTED_SUM, rtol=1e-12)
        np.testing.assert_allclose(np.abs(emb).sum(), self.ABS_SUM, rtol=1e-12)

    def test_train_step_loss_and_gradients(self):
        net = TriGaitNet(RunConfig(miniature=True), 4, rng(0))
        sils, skes, labels = make_batch()
        total, rep = net.loss(net.forward(sils, skes), labels)
        total.backward()
        np.testing.assert_allclose((rep.total, rep.l_tri, rep.l_ce), self.LOSSES, rtol=1e-12)
        grad_sq = sum(float((p.grad ** 2).sum()) for p in net.parameters())
        np.testing.assert_allclose(grad_sq, self.GRAD_SQ, rtol=1e-12)


class TestFullScaleInit:
    """Pins the full-scale network's initial weights, recorded at commit
    789dc96. Init draws from numpy's Generator and runs no BLAS, so one digest
    is stable."""

    DIGEST = "6fae8e61dc8abc47dd97954643ede69a7fd5c867683db3c4b1a291219ef9fc6a"

    def test_state_dict_digest(self):
        digest = hashlib.sha256()
        for name, value in build_network(RunConfig(seed=0), 4).state_dict().items():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(value, dtype=np.float64).tobytes())
        assert digest.hexdigest() == self.DIGEST


class TestBackwardMemory:
    """Backward frees the graph as it runs. tracemalloc counts numpy's
    buffers, so the bounds are in traced bytes: no wall clock, no RSS."""

    def test_backward_peak_and_bytes_left(self):
        net = TriGaitNet(RunConfig(miniature=True), 4, rng(0))
        sils, skes, labels = make_batch()  # N=8, T=5
        tracemalloc.start()
        try:
            total, _ = net.loss(net.forward(sils, skes), labels)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            total.backward()
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one node per attention, biased linear and train-mode norm holds
        # 25.6 MiB here; the composites held 32.4 MiB
        assert held <= 28 * 2**20, f"{held / 2**20:.1f} MiB held after the loss"
        assert peak <= 1.15 * held, f"backward peak {peak / held:.2f}x the forward's bytes"
        assert left <= 4 * 2**20, f"{left / 2**20:.1f} MiB still held after backward"


@pytest.fixture(scope="module")
def tracing():
    """The benchmark's tracing module, loaded from its file, so the graph
    count here is the `tensor.graph_nodes` definition itself."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGraphSize:
    """Graph nodes per training step, a design metric: counts only, no timing."""

    def test_training_step(self, tracing):
        net = TriGaitNet(RunConfig(miniature=True), 4, rng(0))
        sils, skes, labels = make_batch()  # N=8, T=5
        total, _ = net.loss(net.forward(sils, skes), labels)
        assert tracing.graph_nodes(total) <= 195

    def test_part_tokens(self, tracing):
        f_x = Tensor(rng(1).uniform(0, 1, (2, 3, 2, 8, 4)), requires_grad=True)
        f_y = Tensor(rng(2).standard_normal((2, 4, 2, 17)), requires_grad=True)
        rows, _ = part_rows(np.zeros((2, 2, 17, 2)), 8, "uniform")
        assert tracing.graph_nodes(cross_modal_tokens(f_x, f_y, rows)) <= 16


class TestTraceTargets:
    def test_every_target_resolves(self, tracing):
        """A rename in `src/` that the benchmark's tracer would trip over
        fails here: each target's module, attribute path and importers'
        name must reach one callable."""
        for _, module, attr, importers in tracing.TARGETS:
            target = importlib.import_module(module)
            for part in attr.split("."):
                target = getattr(target, part)
            name = attr.rpartition(".")[2]
            for importer in importers:
                assert getattr(importlib.import_module(importer), name) is target, (importer, name)
