"""Tensor-core op tests: worked examples, analytic invariants, gradchecks."""

import re
import tracemalloc

import numpy as np
import pytest

from trigait.checks import attention_over_axis, batch_norm_stats
from trigait.gradcheck import gradcheck
from trigait.tensor import (
    ShapeError,
    Tensor,
    attention,
    batch_all_triplet,
    concat,
    conv,
    gem,
    leaky_relu,
    linear,
    matmul,
    no_grad,
    normalize,
    pairwise_part_distances,
    sigmoid,
    softmax,
    softplus,
    stack,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestConv:
    def test_1d_sliding_window(self):
        # independent oracle: direct sliding-window sums
        x = np.array([1.0, 2.0, 3.0]).reshape(1, 1, 3)
        k = np.array([1.0, 1.0]).reshape(1, 1, 2)
        expected = np.array([x[0, 0, i] + x[0, 0, i + 1] for i in range(2)])
        out = conv(Tensor(x), Tensor(k))
        assert out.shape == (1, 1, 2)
        np.testing.assert_allclose(out.data[0, 0], expected)
        np.testing.assert_array_equal(out.data[0, 0], [3.0, 5.0])

    def test_zero_kernel(self):
        x = rng().standard_normal((2, 3, 5, 5))
        k = np.zeros((4, 3, 3, 3))
        out = conv(Tensor(x), Tensor(k), padding=1)
        assert np.all(out.data == 0.0)

    def test_identity_1x1(self):
        x = rng(1).standard_normal((1, 1, 6, 6))
        k = np.ones((1, 1, 1, 1))
        out = conv(Tensor(x), Tensor(k))
        # bit-for-bit identity on the value path
        assert np.array_equal(out.data, x)

    def test_channel_mismatch_message(self):
        x = np.zeros((1, 3, 4))
        k = np.zeros((2, 4, 3))
        with pytest.raises(ShapeError) as ei:
            conv(Tensor(x), Tensor(k))
        assert "(1, 3, 4)" in str(ei.value) and "(2, 4, 3)" in str(ei.value)

    def test_stride_dilation_against_loop_oracle(self):
        r = rng(7)
        x = r.standard_normal((1, 2, 11))
        w = r.standard_normal((3, 2, 3))
        dil, pad = 2, 2
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
        eff = (3 - 1) * dil + 1
        n_out = xp.shape[2] - eff + 1
        expected = np.zeros((1, 3, n_out))
        for o in range(3):
            for t in range(n_out):
                acc = 0.0
                for c in range(2):
                    for kk in range(3):
                        acc += xp[0, c, t + kk * dil] * w[o, c, kk]
                expected[0, o, t] = acc
        out = conv(Tensor(x), Tensor(w), dilation=dil, padding=pad)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    @pytest.mark.parametrize("spec", [
        ((1, 2, 7), (3, 2, 3), 1, 1),
        ((2, 3, 6, 5), (4, 3, 3, 3), 2, 2),
        ((1, 2, 4, 5, 5), (3, 2, 3, 3, 3), 1, 1),
        ((1, 2, 9, 8), (2, 2, 3, 1), 1, (1, 0)),
    ])
    def test_gradcheck(self, spec):
        xs, ws, dil, pad = spec
        r = rng(3)
        x = r.uniform(-1, 1, xs)
        w = r.uniform(-1, 1, ws)
        b = r.uniform(-1, 1, ws[0])
        err = gradcheck(
            lambda xt, wt, bt: conv(xt, wt, bt, dilation=dil, padding=pad),
            [x, w, b],
        )
        assert err < 1e-4

    @staticmethod
    def loop_oracle(x, w, g, dil, pad):
        """Output, input gradient and weight gradient of a unit-stride conv
        by direct sums, one (sample, out channel, position, in channel, tap)
        at a time; g is the upstream gradient."""
        nd = w.ndim - 2
        dil, pad = (dil,) * nd, (pad,) * nd
        xp = np.pad(x, ((0, 0), (0, 0)) + tuple((p, p) for p in pad))
        out = tuple(s - (k - 1) * d for s, k, d in zip(xp.shape[2:], w.shape[2:], dil))
        y = np.zeros((x.shape[0], w.shape[0]) + out)
        gxp, gw = np.zeros_like(xp), np.zeros_like(w)
        for n, o, c in np.ndindex(x.shape[0], w.shape[0], w.shape[1]):
            for t in np.ndindex(*out):
                for k in np.ndindex(*w.shape[2:]):
                    at = (n, c) + tuple(ti + ki * di for ti, ki, di in zip(t, k, dil))
                    y[(n, o) + t] += xp[at] * w[(o, c) + k]
                    gxp[at] += g[(n, o) + t] * w[(o, c) + k]
                    gw[(o, c) + k] += g[(n, o) + t] * xp[at]
        core = (slice(None), slice(None)) + tuple(slice(p, p + s) for p, s in zip(pad, x.shape[2:]))
        return y, gxp[core], gw

    @pytest.mark.parametrize("xs, ws, dil, pad, transposed", [
        pytest.param((2, 2, 9), (3, 2, 3), 1, 1, False, id="xs0-ws0-1-1"),
        pytest.param((2, 3, 7, 6), (2, 3, 3, 3), 2, 2, False, id="xs1-ws1-2-2"),
        pytest.param((1, 2, 3, 4, 5), (2, 2, 3, 3, 3), 1, 1, False, id="xs2-ws2-1-1"),
        # padding wider than the kernel's extent
        pytest.param((1, 2, 4), (2, 2, 2), 1, 3, False, id="xs3-ws3-1-3"),
        pytest.param((2, 3, 5, 4), (4, 3, 1, 1), 1, 0, False, id="1x1"),
        pytest.param((2, 3, 5, 4), (4, 3, 1, 1), 1, 1, False, id="1x1-padded"),
        # unpadded, so conv reads the non-contiguous input itself
        pytest.param((2, 3, 6, 5), (2, 3, 3, 3), 1, 0, True, id="transposed-input"),
        pytest.param((2, 3, 5, 4), (4, 3, 1, 1), 1, 0, True, id="transposed-input-1x1"),
    ])
    def test_output_and_both_gradients_against_loop_oracle(self, xs, ws, dil, pad, transposed):
        r = rng(11)
        x, w = r.standard_normal(xs), r.standard_normal(ws)
        if transposed:
            x = np.ascontiguousarray(x.T).T  # same values, reversed strides
            assert not x.flags.c_contiguous
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        y = conv(xt, wt, dilation=dil, padding=pad)
        g = r.standard_normal(y.shape)
        (y * Tensor(g)).sum().backward()
        y_ref, gx_ref, gw_ref = self.loop_oracle(x, w, g, dil, pad)
        np.testing.assert_allclose(y.data, y_ref, atol=1e-12)
        np.testing.assert_allclose(xt.grad, gx_ref, atol=1e-12)
        np.testing.assert_allclose(wt.grad, gw_ref, atol=1e-12)

    @pytest.mark.parametrize("xs, ws, dil, pad", [
        ((5, 4, 30), (6, 4, 3), 1, 1),
        ((5, 8, 30, 17), (16, 8, 3, 3), 1, 1),
        ((16, 8, 4, 4), (8, 8, 3, 3), 2, 2),  # dilated, like a spatial-refine gate at batch 16
        ((5, 4, 6, 8, 8), (8, 4, 3, 3, 3), 1, 1),
        ((5, 8, 30, 4), (8, 8, 3, 1), (3, 1), (3, 0)),  # dilated
        ((5, 16, 30, 17), (32, 16, 1, 1), 1, 0),  # 1x1
        ((5, 16, 30, 17), (32, 16, 1, 1), 1, 1),  # padded 1x1
    ])
    def test_batch_equals_per_sample_convs_bit_for_bit(self, xs, ws, dil, pad):
        r = rng(13)
        x, w, b = (Tensor(r.standard_normal(s)) for s in (xs, ws, ws[:1]))
        whole = conv(x, w, b, dil, pad).data
        each = [conv(Tensor(x.data[i : i + 1]), w, b, dil, pad).data for i in range(xs[0])]
        np.testing.assert_array_equal(whole, np.concatenate(each))

    @pytest.mark.parametrize("kw, message", [
        (dict(dilation=0), "dilation must be >= 1, got (0, 0)"),
        (dict(dilation=(1, -2)), "dilation must be >= 1, got (1, -2)"),
        (dict(padding=-1), "padding must be >= 0, got (-1, -1)"),
        (dict(padding=(0, -3)), "padding must be >= 0, got (0, -3)"),
        (dict(dilation=(1.9, 1.9)), "dilation must be integers, got (1.9, 1.9)"),
        (dict(padding=(0.7, 0.7)), "padding must be integers, got (0.7, 0.7)"),
        (dict(dilation=2.0), "dilation must be integers, got 2.0"),
    ], ids=["dilation-0", "dilation-per-axis", "padding-negative", "padding-per-axis",
            "dilation-float-per-axis", "padding-float-per-axis", "dilation-float"])
    def test_bad_dilation_or_padding_named(self, kw, message):
        with pytest.raises(ShapeError, match=re.escape(message)):
            conv(Tensor(np.zeros((1, 2, 6, 6))), Tensor(np.zeros((3, 2, 3, 3))), **kw)

    def test_backward_allocates_no_per_tap_copy_of_the_input(self):
        # tracemalloc counts numpy's buffers; a buffer of taps x the input
        # (27x here) would show in the peak
        r = rng(5)
        x = Tensor(r.standard_normal((8, 16, 5, 8, 8)), requires_grad=True)
        w = Tensor(r.standard_normal((32, 16, 3, 3, 3)), requires_grad=True)
        y = conv(x, w, padding=1)
        g = Tensor(np.ones(y.shape))
        tracemalloc.start()
        try:
            (y * g).sum().backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratio = peak / x.data.nbytes
        assert ratio <= 12, f"conv backward peaked at {ratio:.1f}x the input's bytes"


def _backward_from_projection(out, seed=31):
    (out * Tensor(rng(seed).standard_normal(out.shape))).sum().backward()


class TestLinear:
    def test_identity(self):
        x = rng(2).standard_normal((4, 3))
        out = linear(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_weight_bias_rows(self):
        x = rng(3).standard_normal((5, 3))
        b = np.array([1.0, -2.0])
        out = linear(Tensor(x), Tensor(np.zeros((3, 2))), Tensor(b))
        for row in out.data:
            np.testing.assert_array_equal(row, b)

    def test_hand_product(self):
        # oracle: 2x2 product by hand
        x = np.array([[1.0, 2.0]])
        w = np.array([[1.0, 0.0], [1.0, 1.0]])
        b = np.array([0.0, 1.0])
        expected = x @ w + b
        out = linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_array_equal(out.data, expected)
        np.testing.assert_array_equal(out.data, [[3.0, 3.0]])

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_gradcheck(self):
        r = rng(5)
        err = gradcheck(
            lambda x, w, b: linear(x, w, b),
            [r.uniform(-1, 1, (4, 3)), r.uniform(-1, 1, (3, 2)), r.uniform(-1, 1, 2)],
        )
        assert err < 1e-4

    @pytest.mark.parametrize("with_bias", [True, False])
    def test_matches_matmul_plus_add(self, with_bias):
        r = rng(28)
        x, w, b = r.standard_normal((2, 3, 4)), r.standard_normal((4, 5)), r.standard_normal(5)
        arrays = (x, w, b) if with_bias else (x, w)
        fused = [Tensor(a, requires_grad=True) for a in arrays]
        comp = [Tensor(a, requires_grad=True) for a in arrays]
        out = linear(*fused)
        ref = matmul(comp[0], comp[1])
        if with_bias:
            ref = ref + comp[2]
        np.testing.assert_array_equal(out.data, ref.data)
        _backward_from_projection(out)
        _backward_from_projection(ref)
        for got, want in zip(fused, comp):
            np.testing.assert_allclose(got.grad, want.grad, rtol=1e-12, atol=0)

    def test_one_graph_node(self):
        x, w, b = (Tensor(a, requires_grad=True) for a in (np.ones((2, 3)), np.eye(3), np.ones(3)))
        assert linear(x, w, b)._parents == (x, w, b)
        assert linear(x, w)._parents == (x, w)


class TestBatchNormStats:
    def test_constant_input_zeros(self):
        x = np.full((4, 3, 5), 2.5)
        _, _, xhat = batch_norm_stats(Tensor(x), axes=(0, 2), eps=1e-5)
        np.testing.assert_allclose(xhat.data, 0.0, atol=1e-9)

    def test_two_point_channel(self):
        # values {0, 2}: mean 1, std 1 by hand
        x = np.array([0.0, 2.0]).reshape(2, 1)
        _, _, xhat = batch_norm_stats(Tensor(x), axes=(0,), eps=1e-12)
        np.testing.assert_allclose(xhat.data.ravel(), [-1.0, 1.0], atol=1e-9)

    def test_gradcheck(self):
        r = rng(11)
        x = r.uniform(-1, 1, (3, 2, 4))

        def fn(xt, gt, bt):
            _, _, xhat = batch_norm_stats(xt, axes=(0, 2), eps=1e-5)
            return xhat * gt.reshape(1, 2, 1) + bt.reshape(1, 2, 1)

        err = gradcheck(fn, [x, r.uniform(0.5, 1.5, 2), r.uniform(-1, 1, 2)])
        assert err < 1e-4


class TestNormalize:
    """The fused op against the composite it replaces: `batch_norm_stats`
    followed by the affine step."""

    # (x shape, axes, channel axis, the composite's broadcast gamma shape)
    CASES = {
        "batch_norm": ((4, 3, 5, 2), (0, 2, 3), 1, (1, 3, 1, 1)),
        "layer_norm": ((4, 5, 6), (2,), 2, (6,)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_composite(self, case):
        shape, axes, channel, cshape = self.CASES[case]
        r = rng(21)
        x, w = r.standard_normal(shape) * 2 + 0.5, r.standard_normal(shape)
        gamma, beta = r.uniform(0.5, 1.5, cshape), r.uniform(-1, 1, cshape)

        def leaves(*arrays):
            return [Tensor(a.copy(), requires_grad=True) for a in arrays]

        xt, gt, bt = leaves(x, gamma.reshape(-1), beta.reshape(-1))
        out, mean, var = normalize(xt, gt, bt, axes, channel, 1e-5)
        xr, gr, br = leaves(x, gamma, beta)
        mu_ref, var_ref, xhat_ref = batch_norm_stats(xr, axes, 1e-5)
        ref = xhat_ref * gr + br
        np.testing.assert_array_equal(out.data, ref.data)
        np.testing.assert_array_equal(mean, mu_ref.data)
        np.testing.assert_array_equal(var, var_ref.data)
        (out * Tensor(w)).sum().backward()
        (ref * Tensor(w)).sum().backward()
        for got, want in ((xt, xr), (gt, gr), (bt, br)):
            np.testing.assert_allclose(
                got.grad, want.grad.reshape(got.shape), rtol=1e-12, atol=0
            )

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_gradcheck(self, case):
        shape, axes, channel, cshape = self.CASES[case]
        r = rng(22)
        inputs = [
            r.uniform(-1, 1, shape),
            r.uniform(0.5, 1.5, cshape).reshape(-1),
            r.uniform(-1, 1, cshape).reshape(-1),
        ]
        err = gradcheck(lambda xt, gt, bt: normalize(xt, gt, bt, axes, channel, 1e-5)[0], inputs)
        assert err < 1e-4

    def test_one_graph_node(self):
        x, g, b = (Tensor(a, requires_grad=True) for a in (np.eye(3), np.ones(3), np.zeros(3)))
        out = normalize(x, g, b, (1,), 1, 1e-5)[0]
        assert out._parents == (x, g, b)

    def test_parameter_shape_checked(self):
        x = Tensor(np.ones((2, 3, 4)))
        with pytest.raises(ShapeError, match="must be"):
            normalize(x, Tensor(np.ones((1, 3, 1))), Tensor(np.zeros(3)), (0, 2), 1, 1e-5)


class TestAttention:
    """The fused op against `checks.attention_over_axis`, the composite of
    matmul, softmax and transposes it replaces."""

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("v_grad", [True, False], ids=["v_grad", "v_const"])
    def test_matches_composite(self, heads, v_grad):
        r = rng(25)
        arrays = [r.standard_normal((2, 3, 5, 4)) for _ in range(3)]
        flags = (True, True, v_grad)
        fused = [Tensor(a, requires_grad=f) for a, f in zip(arrays, flags)]
        comp = [Tensor(a, requires_grad=f) for a, f in zip(arrays, flags)]
        out = attention(*fused, heads)
        ref = attention_over_axis(*comp, heads)
        np.testing.assert_array_equal(out.data, ref.data)
        _backward_from_projection(out)
        _backward_from_projection(ref)
        for got, want in zip(fused, comp):
            assert (got.grad is None) == (not got.requires_grad) == (want.grad is None)
            if got.requires_grad:
                np.testing.assert_allclose(got.grad, want.grad, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_gradcheck(self, heads):
        r = rng(26)
        inputs = [r.uniform(-1, 1, (2, 3, 5, 4)) for _ in range(3)]
        err = gradcheck(lambda q, k, v: attention(q, k, v, heads), inputs)
        assert err < 1e-4

    def test_one_graph_node(self):
        r = rng(27)
        q, k, v = (Tensor(r.standard_normal((2, 3, 4)), requires_grad=True) for _ in "qkv")
        out = attention(q, k, v, 2)
        assert out._parents == (q, k, v)

    def test_bad_shapes_rejected(self):
        a = Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(ShapeError):
            attention(a, a, Tensor(np.zeros((2, 5, 4))), 2)
        with pytest.raises(ValueError, match="not divisible"):
            attention(a, a, a, 3)


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(Tensor([1.0, 1.0]), axis=0)
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_single_element(self):
        out = softmax(Tensor([7.3]), axis=0)
        np.testing.assert_allclose(out.data, [1.0], atol=0)

    def test_log3(self):
        # oracle: direct exponentiation e^0 / (e^0 + e^ln3)
        out = softmax(Tensor([0.0, np.log(3.0)]), axis=0)
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-15)

    def test_rows_sum_to_one_and_shift_invariance(self):
        x = rng(7).standard_normal((5, 9)) * 10
        y = softmax(Tensor(x), axis=1)
        np.testing.assert_allclose(y.data.sum(axis=1), 1.0, atol=1e-12)
        y2 = softmax(Tensor(x + 123.456), axis=1)
        assert np.max(np.abs(y.data - y2.data)) < 1e-12

    def test_gradcheck(self):
        err = gradcheck(lambda x: softmax(x, axis=1), [rng(8).uniform(-1, 1, (3, 6))])
        assert err < 1e-4


class TestSigmoidAndFriends:
    def test_zero(self):
        assert sigmoid(Tensor(0.0)).item() == 0.5

    def test_saturation(self):
        assert abs(sigmoid(Tensor(30.0)).item() - 1.0) < 1e-9

    def test_one(self):
        # oracle: 1 / (1 + exp(-1))
        expected = 1.0 / (1.0 + np.exp(-1.0))
        assert abs(sigmoid(Tensor(1.0)).item() - expected) < 1e-15

    def test_range(self):
        x = rng(9).standard_normal(100) * 5
        y = sigmoid(Tensor(x)).data
        assert np.all(y > 0) and np.all(y < 1)

    def test_sigmoid_grad_quarter(self):
        x = Tensor(0.0, requires_grad=True)
        sigmoid(x).backward()
        assert abs(x.grad - 0.25) < 1e-12

    @pytest.mark.parametrize("fn", [sigmoid, softplus, lambda t: leaky_relu(t, 0.01)])
    def test_gradcheck(self, fn):
        err = gradcheck(fn, [rng(10).uniform(-2, 2, (4, 5)) + 0.001])
        assert err < 1e-4


class TestPool:
    def test_max_def(self):
        assert Tensor([1.0, 3.0, 2.0]).max(axis=0).item() == 3.0

    def test_avg_def(self):
        assert Tensor([1.0, 3.0]).mean(axis=0).item() == 2.0

    def test_max_tie_routes_first_rowmajor(self):
        x = Tensor([1.0, 3.0, 3.0], requires_grad=True)
        x.max(axis=0).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_max_multiaxis_tie_rowmajor(self):
        x = Tensor(np.array([[1.0, 5.0], [5.0, 2.0]]), requires_grad=True)
        x.max(axis=(0, 1)).backward()
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("kind", ["max", "avg"])
    def test_gradcheck(self, kind):
        err = gradcheck(
            lambda x: x.max(axis=(1, 3)) if kind == "max" else x.mean(axis=(1, 3)),
            [rng(12).uniform(-1, 1, (2, 3, 2, 4))],
        )
        assert err < 1e-4


class TestBackwardSemantics:
    def test_sum_gives_ones(self):
        x = Tensor(rng(13).standard_normal((3, 4)), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_non_scalar_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            (x * 2).backward()

    def test_accumulation_until_zero(self):
        x = Tensor(2.0, requires_grad=True)
        (x * 3.0).backward()
        (x * 3.0).backward()
        assert x.grad == 6.0
        x.zero_grad()
        (x * 3.0).backward()
        assert x.grad == 3.0

    def test_composition_matches_finite_differences(self):
        r = rng(14)

        def fn(a, b):
            h = sigmoid(matmul(a, b))
            return softmax(h * h + a[:, :3], axis=1)

        err = gradcheck(fn, [r.uniform(-1, 1, (3, 4)), r.uniform(-1, 1, (4, 3))])
        assert err < 1e-4

    def test_no_grad_blocks_graph(self):
        x = Tensor(1.0, requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_second_backward_raises_and_frees_intermediates(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 3
        z = (y * y).sum()
        z.backward()
        np.testing.assert_array_equal(x.grad, [18.0, 36.0])
        assert y.grad is None and z.grad is None
        with pytest.raises(RuntimeError, match="already freed"):
            z.backward()
        with pytest.raises(RuntimeError, match="already freed"):
            (y * 2).sum().backward()
        np.testing.assert_array_equal(x.grad, [18.0, 36.0])

    @pytest.mark.parametrize("op, expected", [
        (lambda x: x + x, lambda x, w: 2 * w),
        (lambda x: x * x, lambda x, w: 2 * w * x),
        (lambda x: concat([x, x]), lambda x, w: w[:3] + w[3:]),
    ])
    def test_gradient_of_repeated_parent(self, op, expected):
        x = Tensor(rng(16).standard_normal(3), requires_grad=True)
        y = op(x)
        w = rng(17).standard_normal(y.shape)
        (y * Tensor(w)).sum().backward()
        np.testing.assert_array_equal(x.grad, expected(x.data, w))

    @pytest.mark.parametrize("grads", [
        lambda g, w: (g, g),  # this node's own grad, as __add__ returns it
        lambda g, w: (g * w,) * 2,  # one fresh array returned twice
        lambda g, w: (lambda t: (t, t[:]))(g * w),  # a fresh array and a view of it
    ])
    def test_first_gradients_never_share_memory(self, grads):
        a = Tensor(np.zeros(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        w = rng(18).standard_normal(3)
        node = Tensor._result(np.zeros(3), (a, b), lambda g: grads(g, w))
        (node * Tensor(np.ones(3))).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        np.testing.assert_array_equal(a.grad, b.grad)

    def test_backward_unbroadcasts_returned_grads_and_skips_none(self):
        bias = Tensor(np.zeros(3), requires_grad=True)
        other = Tensor(np.zeros(3), requires_grad=True)
        g_bias = rng(15).standard_normal((4, 3))
        node = Tensor._result(np.zeros(()), (bias, other), lambda g: (g * g_bias, None))
        node.backward()
        np.testing.assert_array_equal(bias.grad, g_bias.sum(axis=0))
        assert other.grad is None


class TestGem:
    def test_p1_equals_average(self):
        x = rng(15).uniform(0, 2, (3, 7))
        out = gem(Tensor(x), Tensor(1.0), axis=1)
        np.testing.assert_allclose(out.data, x.mean(axis=1), atol=1e-12, rtol=0)

    def test_scalar_values(self):
        # oracle: direct evaluation of (mean(x^p))^(1/p)
        v = gem(Tensor([1.0, 3.0]), Tensor(64.0), axis=0).item()
        expected = (np.mean([1.0**64, 3.0**64])) ** (1 / 64.0)
        assert abs(v - expected) < 1e-12
        assert abs(v - 2.96768) < 1e-3  # approximately the max

        v2 = gem(Tensor([1.0, 2.0, 2.0]), Tensor(2.0), axis=0).item()
        assert abs(v2 - np.sqrt(3.0)) < 1e-12

    def test_monotone_in_p(self):
        x = rng(16).uniform(0.1, 3.0, (5, 9))
        vals = [gem(Tensor(x), Tensor(float(p)), axis=1).data for p in (1, 2, 4, 8)]
        for lo, hi in zip(vals, vals[1:]):
            assert np.all(hi >= lo - 1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gem(Tensor([-0.5, 1.0]), Tensor(1.5), axis=0)

    def test_gradcheck_x_and_p(self):
        r = rng(17)
        x = r.uniform(0.2, 2.0, (2, 3, 5))
        err = gradcheck(lambda xt, pt: gem(xt, pt, axis=2), [x, np.array(1.7)])
        assert err < 1e-4


class TestShapeOps:
    def test_concat_stack_take_getitem_gradcheck(self):
        r = rng(18)
        a = r.uniform(-1, 1, (2, 3))
        b = r.uniform(-1, 1, (2, 2))

        def fn(at, bt):
            c = concat([at, bt], axis=1)          # (2, 5)
            s = stack([c, c * 2.0], axis=0)       # (2, 2, 5)
            t = s[:, :, [0, 2, 2]]                # duplicated index
            return t[:, 1:, ::2]

        err = gradcheck(fn, [a, b])
        assert err < 1e-4

    def test_getitem_repeated_index_accumulates(self):
        x = Tensor(np.zeros(4), requires_grad=True)
        x[[0, 2, 2]].sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0, 0.0, 2.0, 0.0])

    def test_matmul_batched_gradcheck(self):
        r = rng(19)
        err = gradcheck(
            lambda a, b: matmul(a, b),
            [r.uniform(-1, 1, (4, 2, 3)), r.uniform(-1, 1, (4, 3, 2))],
        )
        assert err < 1e-4

    def test_transpose_reshape_gradcheck(self):
        r = rng(20)
        err = gradcheck(
            lambda x: x.transpose(2, 0, 1).reshape(4, 6),
            [r.uniform(-1, 1, (2, 3, 4))],
        )
        assert err < 1e-4

    @pytest.mark.parametrize("axis", [-3, -2, -1, 0, 1, 2])
    def test_stack_matches_numpy_on_every_axis(self, axis):
        r = rng(22)
        a, b = r.standard_normal((2, 3)), r.standard_normal((2, 3))
        at, bt = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        s = stack([at, bt], axis=axis)
        np.testing.assert_array_equal(s.data, np.stack([a, b], axis=axis))
        g = r.standard_normal(s.shape)
        (s * Tensor(g)).sum().backward()
        np.testing.assert_array_equal(at.grad, np.take(g, 0, axis=axis))
        np.testing.assert_array_equal(bt.grad, np.take(g, 1, axis=axis))


class TestAxisRange:
    @pytest.mark.parametrize("op", [
        lambda x: x.max(axis=5),
        lambda x: x.max(axis=-4),
        lambda x: x.sum(axis=3),
        lambda x: x.mean(axis=(0, -4)),
        lambda x: softmax(x, axis=7),
        lambda x: normalize(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), axes=(3,), channel=3,
                            eps=1e-5),
        lambda x: gem(x, Tensor(np.array(1.0)), axis=3),
        lambda x: stack([x, x], axis=-5),
    ], ids=["max5", "max-4", "sum3", "mean-4", "softmax7", "normalize3", "gem3", "stack-5"])
    def test_out_of_range_axis_raises(self, op):
        # a (2, 3, 4) tensor: an axis outside [-3, 3) must not wrap around
        x = Tensor(np.abs(rng(23).standard_normal((2, 3, 4))))
        with pytest.raises(ShapeError, match="out of range"):
            op(x)

    def test_negative_axes_in_range_still_work(self):
        x = Tensor(rng(24).standard_normal((2, 3, 4)))
        np.testing.assert_array_equal(x.max(axis=-3).data, x.data.max(axis=0))
        np.testing.assert_array_equal(softmax(x, axis=-1).data, softmax(x, axis=2).data)


class TestMetricKernels:
    def test_pairwise_against_loop(self):
        r = rng(21)
        e = r.standard_normal((6, 4, 3))
        d = pairwise_part_distances(Tensor(e)).data
        for p in range(3):
            for i in range(6):
                for j in range(6):
                    expected = np.linalg.norm(e[i, :, p] - e[j, :, p])
                    assert abs(d[p, i, j] - expected) < 1e-9

    def test_pairwise_gradcheck(self):
        r = rng(22)
        err = gradcheck(
            lambda e: pairwise_part_distances(e), [r.uniform(-1, 1, (5, 3, 2))]
        )
        assert err < 1e-4

    def test_triplet_identical_embeddings_loss_is_margin(self):
        e = np.ones((6, 4, 2))
        labels = np.array([0, 0, 0, 1, 1, 1])
        d = pairwise_part_distances(Tensor(e))
        loss, frac = batch_all_triplet(d, labels, margin=0.2)
        assert abs(loss.item() - 0.2) < 1e-12
        assert frac == 1.0

    def test_triplet_separated_clusters_zero(self):
        r = rng(23)
        e = r.standard_normal((6, 4, 2)) * 0.01
        e[3:] += 100.0
        labels = np.array([0, 0, 0, 1, 1, 1])
        loss, frac = batch_all_triplet(pairwise_part_distances(Tensor(e)), labels, 0.2)
        assert loss.item() == 0.0
        assert frac == 0.0

    def test_triplet_gradcheck(self):
        r = rng(24)
        e = r.standard_normal((8, 3, 2))
        labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])

        def fn(et):
            loss, _ = batch_all_triplet(pairwise_part_distances(et), labels, 0.5)
            return loss

        err = gradcheck(fn, [e], n_samples=24)
        assert err < 1e-4

    def test_triplet_no_valid_rejected(self):
        e = np.ones((3, 2, 1))
        with pytest.raises(ValueError):
            batch_all_triplet(pairwise_part_distances(Tensor(e)), np.array([0, 1, 2]), 0.2)
