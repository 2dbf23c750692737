import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from capnet.errors import DimensionError, ParameterError, ValidationError
from capnet.gradcheck import fd_gradient, max_rel_error
from capnet.optim import (
    ADAM_BLOCK,
    AdamHyper,
    AdamOptimizer,
    AdamState,
    SgdOptimizer,
    adam_step,
    bce_loss,
    sgd_step,
)


def adam_scalar_reference(grad_fn, theta, steps, lr=0.001, b1=0.9, b2=0.999, eps=1e-8):
    # independent pure-python transcription of the five update equations
    m = v = 0.0
    for t in range(1, steps + 1):
        g = grad_fn(theta)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        theta = theta - lr * mhat / (math.sqrt(vhat) + eps)
    return theta


def adam_allocating_reference(params, grads, m, v, t, hyper):
    # the whole-array update that allocates every intermediate; returns
    # (new params, m, v) after step t
    m = hyper.beta1 * m + (1.0 - hyper.beta1) * grads
    v = hyper.beta2 * v + (1.0 - hyper.beta2) * grads * grads
    mhat = m / (1.0 - hyper.beta1 ** t)
    vhat = v / (1.0 - hyper.beta2 ** t)
    update = hyper.learning_rate * mhat / (np.sqrt(vhat) + hyper.epsilon)
    return (params - update).astype(params.dtype, copy=False), m, v


class TestBceLoss:
    def test_half_prediction(self):
        lv = bce_loss(np.array([0.5]), np.array([1.0]))
        assert_allclose(lv.loss, math.log(2.0), rtol=1e-12)

    def test_perfect_prediction_hits_clip_floor(self):
        lv = bce_loss(np.array([1.0 - 1e-7]), np.array([1.0]))
        assert 0.0 < lv.loss < 1.5e-7

    def test_clip_guards_extreme_inputs(self):
        lv = bce_loss(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert np.isfinite(lv.loss)
        assert np.all(np.isfinite(lv.gradient))

    def test_minimized_when_predictions_match(self):
        y = np.array([1.0, 0.0, 1.0, 0.0])
        at_match = bce_loss(y.copy(), y).loss
        nudged = bce_loss(np.clip(y + 0.01, 0.0, 1.0) * 0.98 + 0.01, y).loss
        assert at_match < nudged
        assert at_match < 2e-7

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.uniform(0.0, 1.0, size=12)
            y = rng.integers(0, 2, size=12).astype(float)
            assert bce_loss(p, y).loss >= 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.05, 0.95, size=(4, 6))
        y = rng.integers(0, 2, size=(4, 6)).astype(float)
        analytic = bce_loss(p, y).gradient
        numeric = fd_gradient(lambda v: bce_loss(v, y).loss, p.copy())
        assert max_rel_error(analytic, numeric) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            bce_loss(np.zeros(3), np.zeros(4))

    def test_non_binary_target(self):
        with pytest.raises(ValidationError):
            bce_loss(np.array([0.5]), np.array([0.3]))


class TestAdam:
    def test_first_step_analytic(self):
        state = AdamState(())
        theta = adam_step(np.array(0.0), np.array(2.0), state, AdamHyper())
        assert_allclose(state.m, 0.2, rtol=1e-15)
        assert_allclose(state.v, 0.004, rtol=1e-15)
        assert_allclose(theta, -0.000999999995, atol=1e-15)
        assert state.t == 1

    def test_first_step_bias_correction_identity(self):
        # mhat after one step equals the raw gradient for any beta1
        for b1 in (0.5, 0.9, 0.99):
            state = AdamState(())
            g = np.array(3.7)
            adam_step(np.array(0.0), g, state, AdamHyper(beta1=b1))
            assert_allclose(state.m / (1 - b1), g, rtol=1e-12)

    def test_zero_gradient_never_moves(self):
        theta = np.array([1.5, -2.0])
        state = AdamState(theta.shape)
        for _ in range(50):
            theta = adam_step(theta, np.zeros(2), state, AdamHyper())
        assert_array_equal(theta, [1.5, -2.0])

    def test_quadratic_descent_matches_scalar_reference(self):
        expected = adam_scalar_reference(lambda th: 2.0 * th, 1.0, steps=100)
        state = AdamState(())
        theta = np.array(1.0)
        for _ in range(100):
            theta = adam_step(theta, 2.0 * theta, state, AdamHyper())
        assert abs(float(theta) - expected) < 1e-12

    def test_step_magnitude_bounded_by_lr(self):
        hyper = AdamHyper()
        theta = np.array(5.0)
        state = AdamState(())
        for _ in range(200):
            new = adam_step(theta, np.array(3.0), state, hyper)
            assert abs(float(new - theta)) <= hyper.learning_rate + 1e-12
            theta = new

    def test_strictly_decreases_quadratic(self):
        theta = np.array(0.7)
        state = AdamState(())
        for _ in range(10):
            prev = float(theta) ** 2
            theta = adam_step(theta, 2.0 * theta, state, AdamHyper())
            assert float(theta) ** 2 < prev

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            adam_step(np.zeros(3), np.zeros(4), AdamState(3), AdamHyper())

    def test_hyper_validation(self):
        with pytest.raises(ParameterError):
            AdamHyper(beta1=1.0)
        with pytest.raises(ParameterError):
            AdamHyper(beta2=0.0)
        with pytest.raises(ParameterError):
            AdamHyper(learning_rate=-0.1)
        with pytest.raises(ParameterError):
            AdamHyper(epsilon=0.0)

    def test_t_increments_once_per_step(self):
        state = AdamState(())
        for expected in range(1, 6):
            adam_step(np.array(0.0), np.array(1.0), state, AdamHyper())
            assert state.t == expected

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [
        (),
        (7,),
        (ADAM_BLOCK,),
        (2 * ADAM_BLOCK + 37,),
        (3, ADAM_BLOCK // 2 + 5),
    ])
    def test_bit_identical_to_allocating_reference(self, dtype, shape):
        rng = np.random.default_rng(21)
        hyper = AdamHyper(learning_rate=0.01)
        theta = rng.normal(size=shape).astype(dtype)
        state = AdamState(shape)
        ref_theta, ref_m, ref_v = theta.copy(), np.zeros(shape), np.zeros(shape)
        for t in range(1, 4):
            g = rng.normal(size=shape).astype(dtype)
            if t == 2:
                g = g * 0  # zero gradients, including -0.0
            before = theta.copy()
            new = adam_step(theta, g, state, hyper)
            ref_theta, ref_m, ref_v = adam_allocating_reference(
                ref_theta, g, ref_m, ref_v, t, hyper)
            assert new is not theta
            assert_array_equal(theta, before)
            assert new.dtype == dtype and new.shape == shape
            assert state.m.dtype == state.v.dtype == np.float64
            assert new.tobytes() == ref_theta.tobytes()
            assert state.m.tobytes() == ref_m.tobytes()
            assert state.v.tobytes() == ref_v.tobytes()
            theta = new

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_contiguous_grads(self, dtype):
        rng = np.random.default_rng(22)
        hyper = AdamHyper()
        theta = rng.normal(size=(5, 3 * ADAM_BLOCK // 4)).astype(dtype)
        grads = rng.normal(size=(3 * ADAM_BLOCK // 4, 10)).astype(dtype).T[::2]
        assert not grads.flags.c_contiguous
        state = AdamState(theta.shape)
        new = adam_step(theta, grads, state, hyper)
        want, m, v = adam_allocating_reference(
            theta, grads, np.zeros(theta.shape), np.zeros(theta.shape), 1, hyper)
        assert_array_equal(new, want)
        assert_array_equal(state.m, m)
        assert_array_equal(state.v, v)


class TestSgd:
    def test_analytic(self):
        assert_allclose(sgd_step(np.array(1.0), np.array(2.0), 0.1), 0.8)

    def test_lr_zero(self):
        theta = np.array([3.0, 4.0])
        assert_array_equal(sgd_step(theta, np.ones(2), 0.0), theta)

    def test_direction_matches_adam(self):
        g = np.array(2.0)
        sgd_new = sgd_step(np.array(1.0), g, 0.001)
        adam_new = adam_step(np.array(1.0), g, AdamState(()), AdamHyper())
        assert np.sign(sgd_new - 1.0) == np.sign(adam_new - 1.0) == -1.0

    def test_strictly_decreases_quadratic(self):
        theta = np.array(0.9)
        for _ in range(10):
            prev = float(theta) ** 2
            theta = sgd_step(theta, 2.0 * theta, 0.05)
            assert float(theta) ** 2 < prev

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            sgd_step(np.zeros(2), np.zeros(3), 0.1)


class TestOptimizerWrappers:
    def test_adam_optimizer_tracks_state_per_name(self):
        from capnet.layers import Parameter

        opt = AdamOptimizer()
        a = Parameter("a", np.array(0.0))
        b = Parameter("b", np.array(0.0))
        a.grad += 2.0
        b.grad += -2.0
        opt.step([a, b])
        assert opt.states["a"].t == 1
        assert opt.states["b"].t == 1
        assert float(a.value) < 0 < float(b.value)

    def test_sgd_optimizer(self):
        from capnet.layers import Parameter

        p = Parameter("w", np.array(1.0))
        p.grad += 2.0
        SgdOptimizer(0.1).step([p])
        assert_allclose(p.value, 0.8)

    def test_negative_lr_rejected(self):
        with pytest.raises(ParameterError):
            SgdOptimizer(-0.1)
