import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from capnet.errors import DegenerateBatchError, DimensionError, ParameterError
from capnet.gradcheck import check_layer, max_rel_error
from capnet.layers import (
    BatchNorm2d,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2,
    Parameter,
    ReLU,
    Softmax,
)
from capnet.tensor import Rng


def conv_oracle(x, w, b):
    # direct six-loop cross-correlation with zero padding 1
    bs, c, h, wd = x.shape
    f = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros((bs, f, h, wd))
    for n in range(bs):
        for k in range(f):
            for i in range(h):
                for j in range(wd):
                    s = 0.0
                    for ci in range(c):
                        for ki in range(3):
                            for kj in range(3):
                                s += xp[n, ci, i + ki, j + kj] * w[k, ci, ki, kj]
                    out[n, k, i, j] = s + b[k]
    return out


def conv_backward_oracle(conv, x, dout):
    # the allocating im2col backward with a channels-first 6-D transposed
    # scatter; returns (dx, dW, db) for one forward/backward pair
    b, c, h, w = x.shape
    f = conv.out_channels
    dmat = dout.transpose(0, 2, 3, 1).reshape(b * h * w, f)
    cols = conv._im2col(x)
    dw = (dmat.T @ cols).reshape(f, c, 3, 3)
    db = dmat.sum(axis=0)
    dcols = (dmat @ conv.weights.value.reshape(f, -1)).reshape(b, h, w, c, 3, 3)
    dxp = np.zeros((b, c, h + 2, w + 2), dtype=x.dtype)
    for ki in range(3):
        for kj in range(3):
            dxp[:, :, ki:ki + h, kj:kj + w] += dcols[:, :, :, :, ki, kj].transpose(0, 3, 1, 2)
    return dxp[:, :, 1:1 + h, 1:1 + w], dw, db


def pool_oracle(x, dout):
    # argmax over reshaped 2x2 windows (first maximum wins) and a
    # put_along_axis scatter; returns (out, dx)
    b, c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    windows = (
        x[:, :, : h2 * 2, : w2 * 2]
        .reshape(b, c, h2, 2, w2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(b, c, h2, w2, 4)
    )
    arg = windows.argmax(axis=4)
    out = np.take_along_axis(windows, arg[..., None], axis=4)[..., 0]
    dwin = np.zeros((b, c, h2, w2, 4), dtype=dout.dtype)
    np.put_along_axis(dwin, arg[..., None], dout[..., None], axis=4)
    dx = np.zeros((b, c, h, w), dtype=dout.dtype)
    dx[:, :, : h2 * 2, : w2 * 2] = (
        dwin.reshape(b, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h2 * 2, w2 * 2)
    )
    return out, dx


def _conv_of(dtype, c_in, c_out, seed):
    conv = Conv2D(c_in, c_out, Rng(seed))
    for p in conv.parameters():
        p.value = p.value.astype(dtype)
        p.grad = p.grad.astype(dtype)
    conv.bias.value[...] = np.random.default_rng(seed).normal(size=c_out)
    return conv


class TestConv2D:
    def test_identity_kernel(self):
        conv = Conv2D(1, 1, Rng(0))
        conv.weights.value[...] = 0.0
        conv.weights.value[0, 0, 1, 1] = 1.0
        conv.bias.value[...] = 0.0
        x = np.random.default_rng(1).normal(size=(2, 1, 5, 6))
        assert_allclose(conv.forward(x), x, atol=1e-12)

    def test_all_ones_padding_case(self):
        conv = Conv2D(1, 1, Rng(0))
        conv.weights.value[...] = 1.0
        conv.bias.value[...] = 0.0
        out = conv.forward(np.ones((1, 1, 3, 3)))[0, 0]
        assert out[1, 1] == 9.0
        for corner in (out[0, 0], out[0, 2], out[2, 0], out[2, 2]):
            assert corner == 4.0

    def test_matches_loop_oracle(self):
        conv = Conv2D(2, 3, Rng(5))
        x = np.random.default_rng(2).normal(size=(1, 2, 5, 4))
        expected = conv_oracle(x, conv.weights.value, conv.bias.value)
        assert np.max(np.abs(conv.forward(x) - expected)) < 1e-12

    def test_backward_finite_difference(self):
        conv = Conv2D(2, 3, Rng(5))
        x = np.random.default_rng(3).normal(size=(1, 2, 5, 4))
        errs = check_layer(conv, x)
        assert all(e < 1e-6 for e in errs.values()), errs

    def test_channel_mismatch(self):
        conv = Conv2D(3, 2, Rng(0))
        with pytest.raises(DimensionError):
            conv.forward(np.zeros((1, 2, 4, 4)))

    def test_rank_checked(self):
        with pytest.raises(DimensionError):
            Conv2D(1, 1, Rng(0)).forward(np.zeros((4, 4)))

    def test_gradients_accumulate(self):
        conv = Conv2D(1, 1, Rng(0))
        x = np.ones((1, 1, 4, 4))
        conv.forward(x)
        conv.backward(np.ones((1, 1, 4, 4)))
        g1 = conv.bias.grad.copy()
        conv.forward(x)
        conv.backward(np.ones((1, 1, 4, 4)))
        assert_allclose(conv.bias.grad, 2 * g1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 3, 5, 7), (3, 1, 6, 4), (1, 4, 1, 9)])
    def test_backward_bit_identical_to_scatter_oracle(self, dtype, shape):
        rng = np.random.default_rng(11)
        b, c, h, w = shape
        conv = _conv_of(dtype, c, 5, seed=3)
        x = rng.normal(size=shape).astype(dtype)
        dout = rng.normal(size=(b, 5, h, w)).astype(dtype)
        conv.forward(x, training=True)
        dx = conv.backward(dout)
        want_dx, want_dw, want_db = conv_backward_oracle(conv, x, dout)
        assert dx.dtype == want_dx.dtype == dtype
        assert_array_equal(dx, want_dx)
        assert_array_equal(conv.weights.grad, want_dw)
        assert_array_equal(conv.bias.grad, want_db)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_bit_identical_in_both_modes(self, dtype):
        rng = np.random.default_rng(12)
        conv = _conv_of(dtype, 3, 4, seed=4)
        x = rng.normal(size=(2, 3, 5, 6)).astype(dtype)
        wmat = conv.weights.value.reshape(4, -1)
        want = (conv._im2col(x) @ wmat.T + conv.bias.value).reshape(2, 5, 6, 4).transpose(0, 3, 1, 2)
        assert_array_equal(conv.forward(x, training=True), want)
        assert_array_equal(conv.forward(x, training=False), want)

    @pytest.mark.parametrize("train_first", [True, False])
    def test_backward_after_inference_forward(self, train_first):
        # an inference forward keeps no im2col matrix, and must drop one an
        # earlier training forward left, so backward sees the latest input
        rng = np.random.default_rng(13)
        conv = _conv_of(np.float32, 2, 3, seed=5)
        x1 = rng.normal(size=(2, 2, 4, 5)).astype(np.float32)
        x2 = rng.normal(size=(2, 2, 4, 5)).astype(np.float32)
        dout = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
        if train_first:
            conv.forward(x1, training=True)
        conv.forward(x2, training=False)
        dx = conv.backward(dout)
        want_dx, want_dw, want_db = conv_backward_oracle(conv, x2, dout)
        assert_array_equal(dx, want_dx)
        assert_array_equal(conv.weights.grad, want_dw)
        assert_array_equal(conv.bias.grad, want_db)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_without_input_grad(self, dtype):
        rng = np.random.default_rng(14)
        conv = _conv_of(dtype, 1, 4, seed=6)
        x = rng.normal(size=(3, 1, 6, 5)).astype(dtype)
        dout = rng.normal(size=(3, 4, 6, 5)).astype(dtype)
        conv.forward(x, training=True)
        assert conv.backward(dout, input_grad=False) is None
        _, want_dw, want_db = conv_backward_oracle(conv, x, dout)
        assert conv.weights.grad.tobytes() == want_dw.tobytes()
        assert conv.bias.grad.tobytes() == want_db.tobytes()


def _relu_input(dtype, channels_last):
    """A 2x3x5x7 array holding NaN, +-0.0, +-inf and subnormals among normal
    values; channels_last gives the transposed layout a convolution outputs."""
    fi = np.finfo(dtype)
    special = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, fi.smallest_subnormal,
               -fi.smallest_subnormal, fi.tiny / 4, -fi.tiny / 4, fi.tiny, -fi.tiny,
               fi.max, -fi.max]
    rng = np.random.default_rng(21)
    flat = rng.normal(size=210).astype(dtype)
    flat[:len(special)] = np.array(special, dtype=dtype)
    rng.shuffle(flat)
    # whether fmax keeps a -0.0 depends on the loop (vector body or scalar
    # tail) that reaches it, so the last entries in memory are -0.0 too
    flat[-16:] = -0.0
    if channels_last:
        return flat.reshape(2, 5, 7, 3).transpose(0, 3, 1, 2)
    return flat.reshape(2, 3, 5, 7)


class TestReLU:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channels_last", [False, True], ids=["contiguous", "channels_last"])
    def test_bit_identical_to_where_oracle(self, dtype, channels_last):
        x = _relu_input(dtype, channels_last)
        relu = ReLU()
        out = relu.forward(x)
        want = np.where(x > 0, x, 0.0)
        assert out.dtype == want.dtype == dtype
        # the layout feeds later reductions, so it must match as well
        assert out.strides == want.strides
        assert out.tobytes() == want.tobytes()
        assert relu._mask.dtype == np.bool_
        assert_array_equal(relu._mask, x > 0)
        dout = np.random.default_rng(22).normal(size=x.shape).astype(dtype)
        assert relu.backward(dout).tobytes() == (dout * (x > 0)).tobytes()

    def test_basic(self):
        assert_array_equal(ReLU().forward(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_positive_passthrough(self):
        x = np.random.default_rng(0).uniform(0.5, 2.0, size=(3, 4))
        assert_array_equal(ReLU().forward(x), x)

    def test_gradient_zero_at_zero(self):
        relu = ReLU()
        relu.forward(np.array([0.0, 1.0, -1.0]))
        assert_array_equal(relu.backward(np.ones(3)), [0.0, 1.0, 0.0])

    def test_finite_difference_away_from_zero(self):
        x = np.random.default_rng(4).normal(size=(2, 3, 4, 4))
        x[np.abs(x) < 0.05] = 0.1
        errs = check_layer(ReLU(), x)
        assert errs["input"] < 1e-6


class TestMaxPool2:
    def test_single_window(self):
        out = MaxPool2().forward(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 4.0

    def test_floor_drops_odd_edges(self):
        out = MaxPool2().forward(np.arange(25.0).reshape(1, 1, 5, 5))
        assert out.shape == (1, 1, 2, 2)
        assert_array_equal(out[0, 0], [[6.0, 8.0], [16.0, 18.0]])

    def test_small_input_rejected(self):
        with pytest.raises(DimensionError):
            MaxPool2().forward(np.zeros((1, 1, 1, 4)))

    def test_backward_conserves_gradient_mass(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            pool = MaxPool2()
            x = rng.normal(size=(2, 3, 6, 8))
            out = pool.forward(x)
            dout = rng.normal(size=out.shape)
            dx = pool.backward(dout)
            assert_allclose(dx.sum(), dout.sum(), atol=1e-12)

    def test_tie_breaks_to_first_in_window(self):
        pool = MaxPool2()
        pool.forward(np.ones((1, 1, 2, 2)))
        dx = pool.backward(np.array([[[[1.0]]]]))
        assert_array_equal(dx[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_finite_difference(self):
        x = np.random.default_rng(7).normal(size=(2, 2, 6, 6))
        x += np.arange(x.size).reshape(x.shape) * 0.01
        assert check_layer(MaxPool2(), x)["input"] < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 3, 6, 8), (2, 2, 7, 9), (1, 3, 5, 2), (3, 1, 2, 3)])
    def test_bit_identical_to_argmax_oracle(self, dtype, shape):
        rng = np.random.default_rng(15)
        x = rng.normal(size=shape).astype(dtype)
        # post-ReLU zeros and exact ties, so the tie-break is exercised
        x = np.maximum(np.round(x, 1), 0).astype(dtype)
        pool = MaxPool2()
        out = pool.forward(x, training=True)
        dout = rng.normal(size=out.shape).astype(dtype)
        dx = pool.backward(dout)
        want_out, want_dx = pool_oracle(x, dout)
        assert out.dtype == dx.dtype == dtype
        assert_array_equal(out, want_out)
        assert_array_equal(dx, want_dx)

    def test_tie_between_second_and_third_corner_goes_to_second(self):
        pool = MaxPool2()
        pool.forward(np.array([[1.0, 5.0], [5.0, 2.0]]).reshape(1, 1, 2, 2), training=True)
        dx = pool.backward(np.array([[[[3.0]]]]))
        assert_array_equal(dx[0, 0], [[0.0, 3.0], [0.0, 0.0]])

    def test_all_zero_window_goes_to_first_corner(self):
        pool = MaxPool2()
        pool.forward(np.zeros((1, 1, 2, 2)), training=True)
        dx = pool.backward(np.array([[[[-2.0]]]]))
        assert_array_equal(dx[0, 0], [[-2.0, 0.0], [0.0, 0.0]])

    def test_dropped_odd_edges_get_zero_gradient(self):
        pool = MaxPool2()
        x = np.arange(35.0).reshape(1, 1, 5, 7)[..., ::-1, ::-1].copy()
        pool.forward(x, training=True)
        dx = pool.backward(np.ones((1, 1, 2, 3)))
        assert_array_equal(dx[0, 0, 4, :], np.zeros(7))
        assert_array_equal(dx[0, 0, :, 6], np.zeros(5))
        assert dx.sum() == 6.0

    def test_backward_after_inference_forward(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(2, 3, 4, 6))
        dout = rng.normal(size=(2, 3, 2, 3))
        pool = MaxPool2()
        pool.forward(x, training=False)
        assert_array_equal(pool.backward(dout), pool_oracle(x, dout)[1])


class TestBatchNorm2d:
    def test_normalizes_in_training(self):
        bn = BatchNorm2d(3)
        x = np.random.default_rng(8).normal(5.0, 3.0, size=(8, 3, 4, 4))
        out = bn.forward(x, training=True)
        assert np.max(np.abs(out.mean(axis=(0, 2, 3)))) < 1e-7
        assert np.max(np.abs(out.var(axis=(0, 2, 3)) - 1.0)) < 1e-5

    def test_affine_shift_scale(self):
        bn = BatchNorm2d(1)
        bn.gamma.value[...] = 2.0
        bn.beta.value[...] = 3.0
        # wide input so the epsilon term cannot shave the output variance
        x = np.random.default_rng(9).normal(0.0, 3.0, size=(16, 1, 3, 3))
        out = bn.forward(x, training=True)
        assert abs(out.mean() - 3.0) < 1e-7
        assert abs(out.var() - 4.0) < 1e-5

    def test_running_stats_update_rule(self):
        bn = BatchNorm2d(1)
        x = np.random.default_rng(10).normal(2.0, 1.5, size=(8, 1, 4, 4))
        bn.forward(x, training=True)
        assert_allclose(bn.running_mean, 0.9 * 0.0 + 0.1 * x.mean(), atol=1e-12)
        assert_allclose(bn.running_var, 0.9 * 1.0 + 0.1 * x.var(), atol=1e-12)

    def test_inference_uses_running_stats(self):
        bn = BatchNorm2d(1)
        bn.running_mean[...] = 4.0
        bn.running_var[...] = 9.0
        out = bn.forward(np.full((1, 1, 1, 1), 10.0), training=False)
        assert_allclose(out, (10.0 - 4.0) / np.sqrt(9.0 + 1e-5), rtol=1e-9)

    def test_degenerate_batch(self):
        with pytest.raises(DegenerateBatchError):
            BatchNorm2d(2).forward(np.zeros((1, 2, 4, 4)), training=True)

    def test_finite_difference(self):
        bn = BatchNorm2d(2)
        rng = np.random.default_rng(11)
        bn.gamma.value = rng.normal(size=2) + 1.0
        bn.beta.value = rng.normal(size=2)
        errs = check_layer(bn, rng.normal(size=(4, 2, 3, 3)))
        assert all(e < 1e-5 for e in errs.values()), errs


class TestDense:
    def test_identity_weights(self):
        d = Dense(3, 3, Rng(0))
        d.weights.value = np.eye(3)
        x = np.random.default_rng(12).normal(size=(2, 3))
        assert_allclose(d.forward(x), x, atol=1e-12)

    def test_analytic(self):
        d = Dense(2, 1, Rng(0))
        d.weights.value = np.array([[1.0], [1.0]])
        d.bias.value = np.array([0.5])
        assert_allclose(d.forward(np.array([[1.0, 2.0]])), [[3.5]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            Dense(4, 2, Rng(0)).forward(np.zeros((1, 3)))

    def test_finite_difference(self):
        d = Dense(6, 4, Rng(1))
        errs = check_layer(d, np.random.default_rng(13).normal(size=(3, 6)))
        assert all(e < 1e-6 for e in errs.values()), errs


class TestDropout:
    def test_infer_is_identity(self):
        x = np.random.default_rng(14).normal(size=(4, 5))
        assert_array_equal(Dropout(0.5, Rng(0)).forward(x, training=False), x)

    def test_rate_zero_is_identity(self):
        x = np.random.default_rng(15).normal(size=(4, 5))
        assert_array_equal(Dropout(0.0).forward(x, training=True), x)

    def test_rate_one_rejected(self):
        with pytest.raises(ParameterError):
            Dropout(1.0)

    def test_inverted_scaling_preserves_mean(self):
        x = np.ones(1_000_000)
        out = Dropout(0.5, Rng(42)).forward(x, training=True)
        assert abs(out.mean() - 1.0) < 0.01

    def test_backward_uses_same_mask(self):
        drop = Dropout(0.5, Rng(3))
        x = np.ones((10, 10))
        out = drop.forward(x, training=True)
        dx = drop.backward(np.ones((10, 10)))
        assert_array_equal(dx, out)

    def test_finite_difference_with_frozen_mask(self):
        drop = Dropout(0.5, Rng(0))
        x = np.random.default_rng(16).normal(size=(3, 8))
        errs = check_layer(drop, x, reseed=lambda l: setattr(l, "rng", Rng(77)))
        assert errs["input"] < 1e-6


class TestFlatten:
    def test_row_major_order(self):
        x = np.arange(8.0).reshape(2, 1, 2, 2)
        out = Flatten().forward(x)
        assert_array_equal(out, [[0, 1, 2, 3], [4, 5, 6, 7]])

    def test_inverse_pair(self):
        fl = Flatten()
        x = np.random.default_rng(17).normal(size=(3, 2, 4, 5))
        out = fl.forward(x)
        assert_array_equal(fl.backward(out), x)

    def test_element_count_conserved(self):
        rng = np.random.default_rng(18)
        for shape in [(1, 1, 1, 1), (2, 3, 4, 5), (4, 2, 6, 6)]:
            x = rng.normal(size=shape)
            assert Flatten().forward(x).size == x.size


class TestSoftmax:
    def test_symmetry(self):
        assert_allclose(Softmax().forward(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_shift_invariance(self):
        sm = Softmax()
        x = np.random.default_rng(19).normal(size=(4, 6))
        a = sm.forward(x)
        b = sm.forward(x + 123.456)
        assert_allclose(a, b, atol=1e-12)

    def test_large_logits_stable(self):
        out = Softmax().forward(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] > 0.999999

    def test_rows_sum_to_one(self):
        out = Softmax().forward(np.random.default_rng(20).normal(size=(8, 36)))
        assert_allclose(out.sum(axis=1), np.ones(8), atol=1e-6)
        assert np.all((out > 0) & (out < 1))

    def test_k_below_two_rejected(self):
        with pytest.raises(DimensionError):
            Softmax().forward(np.zeros((2, 1)))

    def test_finite_difference(self):
        errs = check_layer(Softmax(), np.random.default_rng(21).normal(size=(4, 5)))
        assert errs["input"] < 1e-6


class TestParameter:
    def test_grad_shape_matches(self):
        p = Parameter("w", np.zeros((3, 4)))
        assert p.grad.shape == p.value.shape

    def test_zero_grad(self):
        p = Parameter("w", np.ones(4))
        p.grad += 2.0
        p.zero_grad()
        assert_array_equal(p.grad, np.zeros(4))


def test_universal_gradient_check():
    from capnet.gradcheck import TOLERANCE, layer_checks

    results = layer_checks(seed=0)
    for layer_name, errs in results.items():
        for entry, err in errs.items():
            assert err < TOLERANCE, f"{layer_name}/{entry}: rel err {err}"
