"""Module containers, BN/LN layers, SGD stepping rules, checkpoint format."""

import numpy as np
import pytest

from trigait.checkpoint import load_checkpoint, save_checkpoint
from trigait.checks import batch_norm_stats
from trigait.gradcheck import gradcheck, model_param_gradcheck
from trigait.nn import BatchNorm, GeMPool, LayerNorm, Linear, Module, ModuleList, Parameter
from trigait.optim import SGD
from trigait.tensor import Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


class Tiny(Module):
    def __init__(self):
        super().__init__()
        self.fc = Linear(3, 2, rng(0))
        self.bn = BatchNorm(2)
        self.blocks = ModuleList([Linear(2, 2, rng(i + 1)) for i in range(2)])

    def forward(self, x):
        h = self.bn(self.fc(x))
        for b in self.blocks:
            h = b(h)
        return h


class TestModule:
    def test_named_parameters_hierarchy(self):
        names = {n for n, _ in Tiny().named_parameters()}
        assert "fc.weight" in names and "bn.gamma" in names
        assert "blocks.0.weight" in names and "blocks.1.bias" in names

    def test_state_dict_roundtrip(self):
        m1, m2 = Tiny(), Tiny()
        m2.load_state_dict(m1.state_dict())
        for (n1, p1), (_, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)
        for (n1, b1), (_, b2) in zip(m1.named_buffers(), m2.named_buffers()):
            np.testing.assert_array_equal(b1, b2)

    def test_load_rejects_missing_keys(self):
        m = Tiny()
        state = m.state_dict()
        state.pop("fc.weight")
        with pytest.raises(ValueError):
            m.load_state_dict(state)

    def test_train_eval_recursive(self):
        m = Tiny()
        m.eval()
        assert not m.bn.training
        m.train()
        assert m.blocks[0].training


class TestBatchNorm:
    def test_train_updates_running_stats(self):
        bn = BatchNorm(3, momentum=0.1)
        x = Tensor(rng(1).standard_normal((8, 3, 4)) * 2 + 5)
        bn(x)
        assert not np.allclose(bn.running_mean, 0.0)
        batch_mean = x.data.mean(axis=(0, 2))
        np.testing.assert_allclose(bn.running_mean, 0.1 * batch_mean, atol=1e-12)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm(2)
        bn.running_mean[...] = [1.0, -1.0]
        bn.running_var[...] = [4.0, 0.25]
        bn.eval()
        x = Tensor(np.array([[1.0, -1.0], [3.0, 0.0]]))
        out = bn(x)
        expected = (x.data - np.array([1.0, -1.0])) / np.sqrt(np.array([4.0, 0.25]) + 1e-5)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_zero_batch_rejected(self):
        bn = BatchNorm(2)
        with pytest.raises(ValueError):
            bn(Tensor(np.zeros((0, 2, 3))))

    def test_gamma_zero_gives_constant_beta(self):
        bn = BatchNorm(2)
        bn.gamma.data[...] = 0.0
        bn.beta.data[...] = 3.5
        out = bn(Tensor(rng(2).standard_normal((4, 2, 3))))
        np.testing.assert_allclose(out.data, 3.5, atol=1e-12)

    def test_gradcheck_through_layer(self):
        bn = BatchNorm(3)
        r = rng(3)
        bn.gamma.data[...] = r.uniform(0.5, 1.5, 3)
        bn.beta.data[...] = r.uniform(-1, 1, 3)
        err = model_param_gradcheck(
            bn, lambda x: bn(x), [r.uniform(-1, 1, (4, 3, 2))], n_params=2, n_coords=3
        )
        assert err < 1e-4

    def test_train_steps_keep_composite_running_buffers(self):
        # reference: the batch statistics of `batch_norm_stats`, folded in
        # with the layer's momentum arithmetic
        bn = BatchNorm(3)
        opt = SGD(list(bn.parameters()), lr=0.1)
        r = rng(5)
        m = bn.momentum
        mean_ref, var_ref = np.zeros(3), np.ones(3)
        for _ in range(2):
            x = r.standard_normal((6, 3, 4, 2)) * 2 + 1
            bn.zero_grad()
            (bn(Tensor(x)) * Tensor(r.standard_normal(x.shape))).sum().backward()
            opt.step()
            mu, var, _ = batch_norm_stats(Tensor(x), (0, 2, 3), bn.eps)
            mean_ref = (1 - m) * mean_ref + m * mu.data.reshape(-1)
            var_ref = (1 - m) * var_ref + m * var.data.reshape(-1)
            np.testing.assert_array_equal(bn.running_mean, mean_ref)
            np.testing.assert_array_equal(bn.running_var, var_ref)


class TestLayerNorm:
    def test_normalizes_last_axis(self):
        ln = LayerNorm(6)
        x = Tensor(rng(4).standard_normal((3, 6)) * 4 + 2)
        out = ln(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_gradcheck(self):
        ln = LayerNorm(5)
        err = gradcheck(lambda x: ln(x), [rng(5).uniform(-1, 1, (2, 3, 5))])
        assert err < 1e-4


class TestGeMPoolLayer:
    def test_p_starts_at_init(self):
        for p0 in (1.0, 3.0, 6.5):
            layer = GeMPool(axis=-1, p_init=p0)
            assert abs(layer.p().item() - p0) < 1e-9

    def test_p_positive_even_for_negative_raw(self):
        layer = GeMPool(axis=-1)
        layer.p_raw.data[...] = -40.0
        assert layer.p().item() > 0

    def test_learnable_through_backward(self):
        layer = GeMPool(axis=-1, p_init=2.0)
        x = Tensor(rng(6).uniform(0.5, 2.0, (3, 4)))
        layer(x).sum().backward()
        assert layer.p_raw.grad is not None and np.isfinite(layer.p_raw.grad).all()


class TestSGD:
    def test_plain_descent(self):
        p = Parameter(np.array(1.0))
        p.grad = np.array(1.0)
        SGD([p], lr=0.1, momentum=0.0, weight_decay=0.0).step()
        assert abs(p.data - 0.9) < 1e-15

    def test_zero_grad_fixed_point(self):
        p = Parameter(np.array(2.0))
        p.grad = np.array(0.0)
        SGD([p], lr=0.5, momentum=0.0, weight_decay=0.0).step()
        assert p.data == 2.0

    def test_two_momentum_steps(self):
        # by hand: v1 = 1, w1 = -0.1; v2 = 1.9, w2 = -0.29
        p = Parameter(np.array(0.0))
        opt = SGD([p], lr=0.1, momentum=0.9, weight_decay=0.0)
        p.grad = np.array(1.0)
        opt.step()
        assert abs(p.data - (-0.1)) < 1e-15
        p.grad = np.array(1.0)
        opt.step()
        assert abs(p.data - (-0.29)) < 1e-12

    def test_weight_decay_enters_velocity(self):
        p = Parameter(np.array(10.0))
        p.grad = np.array(0.0)
        SGD([p], lr=0.1, momentum=0.0, weight_decay=0.5).step()
        assert abs(p.data - (10.0 - 0.1 * 5.0)) < 1e-12

    def test_missing_grad_left_unchanged(self):
        a = Parameter(np.array(1.0))
        b = Parameter(np.array(1.0))
        a.grad = np.array(1.0)
        SGD([a, b], lr=0.1, momentum=0.9, weight_decay=0.5).step()
        assert a.data == 1.0 - 0.1 * 1.5
        assert b.data == 1.0 and b.momentum_buffer is None

    def test_grads_left_intact_until_zero(self):
        p = Parameter(np.array(1.0))
        p.grad = np.array(2.0)
        opt = SGD([p], lr=0.1, momentum=0.0, weight_decay=0.0)
        opt.step()
        assert p.grad == 2.0
        opt.zero_grad()
        assert p.grad is None


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, tmp_path):
        r = rng(7)
        tensors = {
            "a.weight": r.standard_normal((3, 4, 2)),
            "b": np.array(3.25),
            "c.long_name.running_var": r.standard_normal(7),
        }
        p = tmp_path / "model.tgck"
        save_checkpoint(p, tensors)
        back = load_checkpoint(p)
        assert set(back) == set(tensors)
        for k in tensors:
            assert back[k].shape == np.asarray(tensors[k]).shape
            assert np.array_equal(back[k], tensors[k])
        # byte-identical when re-saved
        p2 = tmp_path / "model2.tgck"
        save_checkpoint(p2, back)
        assert p.read_bytes() == p2.read_bytes()

    def test_bad_magic_names_path(self, tmp_path):
        p = tmp_path / "junk.tgck"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError) as ei:
            load_checkpoint(p)
        assert "junk.tgck" in str(ei.value)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "v9.tgck"
        import struct

        p.write_bytes(b"TGCK" + struct.pack("<II", 9, 0))
        with pytest.raises(ValueError):
            load_checkpoint(p)

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "ok.tgck"
        save_checkpoint(p, {"w": np.ones((4, 4))})
        data = p.read_bytes()
        p.write_bytes(data[:-9])
        with pytest.raises(ValueError):
            load_checkpoint(p)
