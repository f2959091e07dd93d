import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerpool.autodiff import (
    Rng,
    Tensor,
    cosine_sim,
    dropout_mask,
    grad_check,
)

# four slots of a (2, 3) layout, in the pattern of a packed batch
SLOTS = np.array([[True, False, True], [False, True, True]])

# ---- plain-array oracles the tape operations are checked against ------------


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift stabilization."""
    m = np.asarray(m, dtype=np.float64)
    shifted = m - m.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_sum_exp(xs) -> float:
    """max(xs) + ln sum exp(x - max); overflow-safe."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        raise ValueError("log_sum_exp: empty input")
    m = float(xs.max())
    return m + float(np.log(np.exp(xs - m).sum()))


def tensor_log(t: Tensor) -> Tensor:
    """Natural log on the tape; NaN for negative inputs."""
    with np.errstate(invalid="ignore", divide="ignore"):
        y = np.log(t.data)
    return Tensor(y, parents=(t,), bw=lambda g: t._accum(g / t.data))


class TestSoftmaxRows:
    def test_symmetry(self):
        out = softmax_rows(np.array([[0.0, 0.0, 0.0]]))
        assert np.allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_direct_evaluation(self):
        out = softmax_rows(np.array([[0.0, np.log(3.0)]]))
        assert abs(out[0, 0] - 0.25) < 1e-12
        assert abs(out[0, 1] - 0.75) < 1e-12

    def test_shift_invariance(self):
        for c in (-1e3, 0.0, 7.5, 1e3):
            a = softmax_rows(np.array([[c, c + 1.0]]))
            b = softmax_rows(np.array([[0.0, 1.0]]))
            assert np.allclose(a, b, atol=1e-12)

    @given(st.lists(st.lists(st.floats(-50, 50), min_size=1, max_size=6),
                    min_size=1, max_size=5).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    def test_rows_sum_to_one(self, rows):
        out = softmax_rows(np.array(rows))
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-12)


class TestCosineSim:
    def test_identity(self):
        v = np.array([0.3, -2.0, 5.0])
        assert cosine_sim(v, v) == pytest.approx(1.0, abs=1e-12)
        assert cosine_sim(v, 2.0 * v) <= 1.0  # clamped against rounding

    def test_orthogonality(self):
        assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_analytic(self):
        assert abs(cosine_sim([1.0, 0.0], [1.0, 1.0]) - 1 / np.sqrt(2)) < 1e-12

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine_sim([0.0, 0.0], [1.0, 0.0])

    @pytest.mark.parametrize("a", [[1e200, 1e200], [1e-200, 1e-200], [5e-324, 5e-324],
                                   [3e-160, 3e-160]])
    def test_norms_that_underflow_or_overflow(self, a):
        # each norm is inf, or below NORM_FLOOR when measured in float64
        with pytest.raises(ValueError, match="cosine_sim lhs has norm"):
            cosine_sim(a, [1.0, 1.0])
        with pytest.raises(ValueError, match="cosine_sim lhs row 1 has norm"):
            cosine_sim([[1.0, 0.0], a], [a, [1.0, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            cosine_sim([1.0, bad], [1.0, 1.0])
        with pytest.raises(ValueError, match="non-finite"):
            cosine_sim([[1.0, 1.0]], [[bad, 1.0]])


class TestLogSumExp:
    def test_singleton(self):
        assert log_sum_exp([5.0]) == 5.0

    def test_pair(self):
        assert abs(log_sum_exp([0.0, 0.0]) - np.log(2.0)) < 1e-12

    def test_no_overflow(self):
        assert abs(log_sum_exp([1000.0, 1000.0]) - (1000.0 + np.log(2.0))) < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_sum_exp([])

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=10))
    def test_at_least_max(self, xs):
        assert log_sum_exp(xs) >= max(xs) - 1e-12

    @given(st.floats(-100, 100), st.integers(1, 10))
    def test_equal_entries(self, x, n):
        assert abs(log_sum_exp([x] * n) - (x + np.log(n))) < 1e-9


class TestDropoutMask:
    def test_p_zero_identity(self):
        assert np.array_equal(dropout_mask((3, 4), 0.0, Rng(1)), np.ones((3, 4)))

    def test_deterministic(self):
        a = dropout_mask((8, 8), 0.5, Rng(3).child("m"))
        b = dropout_mask((8, 8), 0.5, Rng(3).child("m"))
        assert np.array_equal(a, b)

    def test_keep_fraction(self):
        mask = dropout_mask((100, 100), 0.1, Rng(0))
        keep = np.mean(mask != 0.0)
        assert abs(keep - 0.9) < 0.01

    def test_inverted_scaling(self):
        mask = dropout_mask((1000,), 0.25, Rng(5))
        assert set(np.unique(mask)) <= {0.0, 1.0 / 0.75}

    def test_p_one_rejected(self):
        with pytest.raises(ValueError):
            dropout_mask((2, 2), 1.0, Rng(0))

    def test_matches_a_fresh_generator_bit_for_bit(self):
        # the reused bit generator must not carry state from one mask to the
        # next, so shapes, probabilities and streams are interleaved
        shapes = [(3, 64), (1, 1), (17,), (5, 4, 3), (40, 8)]
        for i in range(60):
            rng = Rng(i % 7).child("step", i // 3, "dropout", f"ffn{i % 4}")
            shape, p = shapes[i % len(shapes)], (0.1, 0.5, 0.9)[i % 3]
            expected = (rng.generator().random(shape) >= p).astype(np.float64) / (1.0 - p)
            assert np.array_equal(dropout_mask(shape, p, rng), expected), i

    def test_open_generators_are_unaffected(self):
        rng = Rng(9).child("x")
        gen = rng.generator()
        head = gen.random(5)
        dropout_mask((4, 4), 0.5, rng)
        dropout_mask((3,), 0.5, Rng(9).child("y"))
        tail = gen.random(5)
        assert np.array_equal(np.concatenate([head, tail]), rng.generator().random(10))


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42).generator().random(10)
        b = Rng(42).generator().random(10)
        assert np.array_equal(a, b)

    def test_children_independent(self):
        a = Rng(42).child("x").generator().random(10)
        b = Rng(42).child("y").generator().random(10)
        assert not np.array_equal(a, b)

    def test_child_path_order_matters(self):
        a = Rng(0).child("a", "b").generator().random(4)
        b = Rng(0).child("b", "a").generator().random(4)
        assert not np.array_equal(a, b)


class TestTape:
    def test_constructor_keeps_float64_arrays_and_converts_the_rest(self):
        # a float64 array is the node's data, not a copy: a parameter Tensor
        # and the array a checkpoint holds are one buffer
        x = np.arange(6.0).reshape(2, 3)
        for a in (x, x[:, 1:], x.T):
            assert Tensor(a).data is a
        for data in (np.arange(3, dtype=np.float32), [1, 2, 3], 2, 2.5, np.int64(4)):
            t = Tensor(data)
            assert t.data.dtype == np.float64
            assert np.array_equal(t.data, np.asarray(data, dtype=np.float64))

    def test_requires_grad_when_any_parent_does(self):
        const, param = Tensor(np.ones(2)), Tensor(np.ones(2), requires_grad=True)
        for parents, expected in [((), False), ((const,), False), ((const, param), True),
                                  ((param, const), True)]:
            t = Tensor(np.ones(2), parents=parents, bw=lambda g: None)
            assert t.requires_grad is expected
            assert t._parents == (parents if expected else ())
            assert (t._bw is not None) is expected
        assert Tensor(np.ones(2), requires_grad=True, parents=(const,)).requires_grad

    def test_quadratic_gradient(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        (x * x).backward()
        assert abs(x.grad - 6.0) < 1e-12

    def test_grad_check_quadratic(self):
        err = grad_check(lambda ts: (ts[0] * ts[0]).sum(), [np.array([3.0])])
        assert err < 1e-8

    def test_grad_check_linear_machine_epsilon(self):
        err = grad_check(lambda ts: (ts[0] * 2.5).sum(), [np.array([1.0, -2.0])])
        assert err < 1e-9

    def test_non_participating_param_zero_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        (x.sum() * 2.0).backward()
        assert y.grad is None

    def test_backward_visits_shared_node_once(self):
        # f = (x + x) * (x + x) = 4x^2, grad 8x
        x = Tensor(np.array(2.0), requires_grad=True)
        s = x + x
        (s * s).backward()
        assert abs(x.grad - 16.0) < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            grad_check(lambda ts: tensor_log(ts[0]).sum(), [np.array([-1.0])])

    def test_backward_needs_a_scalar(self):
        with pytest.raises(ValueError, match="scalar"):
            (Tensor(np.ones(3), requires_grad=True) * 2.0).backward()

    @pytest.mark.parametrize("f, shapes", [
        (lambda ts: ((ts[0] @ ts[1]) ** 2).sum(), [(3, 4), (4,)]),
        (lambda ts: ((ts[0] @ ts[1]) ** 2).sum(), [(2, 3, 4), (4,)]),
        (lambda ts: ((ts[0][SLOTS] @ ts[1]) ** 2).sum(), [(2, 3, 2), (2, 3)]),
        (lambda ts: ((ts[0][np.array([2, 0, 2])] @ ts[1]) ** 2).sum(), [(3, 2), (2, 3)]),
    ], ids=["matmul-1d-rhs", "stacked-matmul-1d-rhs",
            "getitem-bool-mask", "getitem-repeated-rows"])
    def test_right_hand_operator_grads(self, f, shapes):
        gen = np.random.default_rng(5)
        params = [gen.uniform(0.5, 2.0, size=s) * gen.choice([-1, 1], size=s) for s in shapes]
        assert grad_check(f, params) < 1e-6

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 2**32))
    def test_composite_expression_grad(self, seed):
        gen = np.random.default_rng(seed)
        a = gen.normal(size=(3, 4))
        b = gen.normal(size=(4, 2))

        def f(ts):
            m = (ts[0] @ ts[1]).tanh()
            return (m * m).mean() + m.logsumexp(axis=1).sum()

        assert grad_check(f, [a, b]) < 1e-6

    @pytest.mark.parametrize("lhs, rhs", [((2, 3, 4), (4, 5)), ((2, 3, 4), (2, 4, 5))])
    def test_stacked_matmul_grad(self, lhs, rhs):
        gen = np.random.default_rng(3)
        err = grad_check(lambda ts: ((ts[0] @ ts[1]) ** 2).sum(),
                         [gen.normal(size=lhs), gen.normal(size=rhs)])
        assert err < 1e-6

    def test_transpose_swaps_last_two_axes(self):
        gen = np.random.default_rng(4)
        x = gen.normal(size=(2, 3, 4))
        assert Tensor(x).T.shape == (2, 4, 3)
        err = grad_check(lambda ts: ((ts[0].T @ ts[1]) ** 2).sum(),
                         [x, gen.normal(size=(2, 3, 5))])
        assert err < 1e-6

    def test_transpose_4d_permutation(self):
        gen = np.random.default_rng(5)
        x = gen.normal(size=(2, 3, 4, 5))
        assert Tensor(x).transpose(2, 0, 3, 1).shape == (4, 2, 5, 3)
        w = gen.normal(size=(4, 2, 5, 3))
        err = grad_check(lambda ts: (ts[0].transpose(2, 0, 3, 1).tanh() * w).sum(), [x])
        assert err < 1e-6

    def test_layer_norm_grad(self):
        gen = np.random.default_rng(6)
        x, gamma, beta = gen.normal(size=(2, 3, 5)), gen.normal(size=5), gen.normal(size=5)
        w = gen.normal(size=(2, 3, 5))
        err = grad_check(lambda ts: (ts[0].layer_norm(ts[1], ts[2]).tanh() * w).sum(),
                         [x, gamma, beta])
        assert err < 1e-6

    def test_softmax_grad_with_masked_entries(self):
        gen = np.random.default_rng(7)
        mask = np.where(gen.random((2, 3, 4, 4)) < 0.3, -1e9, 0.0)
        mask[..., 0] = 0.0  # every row keeps one entry, as CLS does in the encoder
        w = gen.normal(size=(2, 3, 4, 4))
        err = grad_check(lambda ts: ((ts[0] + mask).softmax(axis=-1) * w).sum(),
                         [gen.normal(size=(2, 3, 4, 4))])
        assert err < 1e-6

    def test_fused_ops_match_composites(self):
        gen = np.random.default_rng(8)
        x = gen.normal(size=(3, 4, 6)) * 3.0
        gamma, beta = gen.normal(size=6), gen.normal(size=6)
        w = gen.normal(size=(3, 4, 6))

        def composite_layer_norm(x, g, b, eps=1e-6):
            centered = x - x.mean(axis=-1, keepdims=True)
            var = (centered * centered).mean(axis=-1, keepdims=True)
            return centered / (var + eps) ** 0.5 * g + b

        grads = []
        for norm in (Tensor.layer_norm, composite_layer_norm):
            ts = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
            out = norm(*ts)
            (out * w).sum().backward()
            grads.append([out.data] + [t.grad for t in ts])
        for fused, composite in zip(*grads):
            assert np.allclose(fused, composite, rtol=0.0, atol=1e-12)
        soft = Tensor(x).softmax(axis=1).data
        lse = np.expand_dims(Tensor(x).logsumexp(axis=1).data, 1)
        assert np.allclose(soft, np.exp(x - lse), rtol=0.0, atol=1e-12)

    def test_logsumexp_matches_scalar_version(self):
        xs = np.array([1.0, -2.0, 0.5, 900.0])
        t = Tensor(xs).logsumexp(axis=0)
        assert abs(float(t.data) - log_sum_exp(xs)) < 1e-12

    def test_softmax_tensor_matches_array_version(self):
        m = np.array([[1.0, 2.0, -3.0], [0.0, 0.0, 0.0]])
        assert np.allclose(Tensor(m).softmax(axis=-1).data, softmax_rows(m), atol=1e-12)

    def test_getitem_repeated_indices_accumulate(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        x[np.array([0, 0, 2])].sum().backward()
        assert np.array_equal(x.grad, [2.0, 0.0, 1.0])
