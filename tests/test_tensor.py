import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from capnet.errors import DimensionError, DomainError
from capnet.tensor import Rng, init_weights, matmul


def matmul_oracle(a, b):
    # triple loop, no numpy matmul involved
    n, k = a.shape
    k2, m = b.shape
    out = np.zeros((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += float(a[i, t]) * float(b[t, j])
            out[i, j] = s
    return out


class TestMatmul:
    def test_identity(self):
        a = np.arange(9.0).reshape(3, 3)
        assert_array_equal(matmul(a, np.eye(3)), a)
        assert_array_equal(matmul(np.eye(3), a), a)

    def test_one_by_one(self):
        assert matmul(np.array([[3.0]]), np.array([[4.0]]))[0, 0] == 12.0

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(7, 5))
        b = rng.normal(size=(5, 3))
        assert_allclose(matmul(a, b), matmul_oracle(a, b), atol=1e-12)

    def test_all_small_shapes(self):
        rng = np.random.default_rng(12)
        for n in range(1, 5):
            for k in range(1, 5):
                for m in range(1, 5):
                    a = rng.normal(size=(n, k))
                    b = rng.normal(size=(k, m))
                    assert_allclose(matmul(a, b), matmul_oracle(a, b), atol=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(6, 5))
        c = rng.normal(size=(5, 3))
        assert_allclose(matmul(matmul(a, b), c), matmul(a, matmul(b, c)), atol=1e-9)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            matmul(np.zeros((2, 2, 2)), np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            matmul(np.zeros(3), np.zeros((3, 2)))

    def test_inner_dim_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\)"):
            matmul(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_nonfinite_result_rejected(self):
        big = np.full((2, 2), 1e308)
        with pytest.raises(DomainError):
            matmul(big, big)


class TestInitWeights:
    def test_zeros_ones(self):
        assert_array_equal(init_weights((3, 4), "zeros"), np.zeros((3, 4)))
        assert_array_equal(init_weights((2,), "ones"), np.ones(2))

    def test_he_uniform_bounds_rank2(self):
        w = init_weights((64, 32), "he_uniform", Rng(7))
        limit = np.sqrt(6.0 / 64)
        assert w.shape == (64, 32)
        assert np.all(np.abs(w) <= limit)
        # mean of U(-limit, limit) is 0 with std limit/sqrt(3); n=2048 draws
        assert abs(w.mean()) < 4 * limit / np.sqrt(3 * w.size)

    def test_he_uniform_large_draw_statistics(self):
        w = init_weights((100, 100), "he_uniform", Rng(7))
        assert abs(w.mean()) < 0.01
        assert np.all(np.abs(w) <= np.sqrt(6.0 / 100))

    def test_he_uniform_fan_in_rank4(self):
        w = init_weights((8, 3, 3, 3), "he_uniform", Rng(7))
        limit = np.sqrt(6.0 / 27)
        assert np.all(np.abs(w) <= limit)
        # draws should actually spread towards the bound
        assert np.abs(w).max() > 0.9 * limit

    def test_he_uniform_needs_rng(self):
        with pytest.raises(ValueError):
            init_weights((4, 4), "he_uniform")

    def test_bad_shape(self):
        with pytest.raises(DimensionError):
            init_weights((0, 3), "zeros")
        with pytest.raises(DimensionError):
            init_weights((), "zeros")

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            init_weights((2, 2), "orthogonal", Rng(0))


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(123).random(10_000)
        b = Rng(123).random(10_000)
        assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).random(100), Rng(2).random(100))

    def test_split_reproducible(self):
        a = Rng(5).split(3).normal(size=50)
        b = Rng(5).split(3).normal(size=50)
        assert_array_equal(a, b)

    def test_split_independent_of_parent_consumption(self):
        r1 = Rng(9)
        r1.random(1000)
        child_after = r1.split(2).random(20)
        child_fresh = Rng(9).split(2).random(20)
        assert_array_equal(child_after, child_fresh)

    def test_siblings_differ(self):
        root = Rng(9)
        assert not np.array_equal(root.split(0).random(50), root.split(1).random(50))

    def test_nested_split_paths_distinct(self):
        a = Rng(4).split(1).split(0).random(20)
        b = Rng(4).split(0).split(1).random(20)
        assert not np.array_equal(a, b)

    def test_integers_range(self):
        draws = Rng(8).integers(0, 36, size=2000)
        assert draws.min() >= 0 and draws.max() < 36
        assert len(np.unique(draws)) == 36

    def test_permutation(self):
        p = Rng(3).permutation(10)
        assert sorted(p.tolist()) == list(range(10))
