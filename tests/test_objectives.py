import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerpool import objectives
from layerpool.autodiff import Rng, Tensor, grad_check
from layerpool.objectives import (
    loss_sup_basic,
    loss_sup_hard,
    loss_unsup,
    similarity_matrix,
)

LN_1_PLUS_E_MINUS_1 = float(np.log(1.0 + np.exp(-1.0)))


def brute_force_sup_basic(h, h_pos, tau):
    """Naive double loop, plain floats, no log-sum-exp."""
    m = len(h)
    def cos(a, b):
        return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
    total = 0.0
    for i in range(m):
        num = np.exp(cos(h[i], h_pos[i]) / tau)
        den = sum(np.exp(cos(h[i], h_pos[j]) / tau) for j in range(m))
        total += -np.log(num / den)
    return total / m


def brute_force_sup_hard(h, h_pos, h_neg, tau):
    m = len(h)
    def cos(a, b):
        return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
    total = 0.0
    for i in range(m):
        num = np.exp(cos(h[i], h_pos[i]) / tau)
        den = sum(
            np.exp(cos(h[i], h_pos[j]) / tau) + np.exp(cos(h[i], h_neg[j]) / tau)
            for j in range(m)
        )
        total += -np.log(num / den)
    return total / m


def random_batch(gen, m, d):
    return gen.normal(size=(m, d)) + 0.1  # offset keeps rows away from zero


class TestSimilarityMatrix:
    def test_diagonal_identity(self):
        h = Tensor(np.array([[1.0, 0.0], [0.6, 0.8]]))
        sims = similarity_matrix(h, h)
        assert np.allclose(np.diag(sims.data), 1.0, atol=1e-12)

    def test_orthonormal_rows(self):
        h = Tensor(np.eye(3))
        assert np.allclose(similarity_matrix(h, h).data, np.eye(3), atol=1e-12)

    def test_hand_derived(self):
        a = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        b = Tensor(np.array([[1.0, 1.0]]) / np.sqrt(2.0))
        b = Tensor.concat([b, Tensor(np.array([[1.0, 0.0]]))], axis=0)
        sims = similarity_matrix(a, b)
        expected = [[1 / np.sqrt(2), 1.0], [1 / np.sqrt(2), 0.0]]
        assert np.allclose(sims.data, expected, atol=1e-12)

    def test_zero_row_named(self):
        h = Tensor(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="row 1"):
            similarity_matrix(h, h)

    @pytest.mark.parametrize("row", [[1e-200, 0.0], [5e-324, 5e-324], [3e-160, -3e-160],
                                     [1e200, 1e200]])
    def test_norms_that_underflow_or_overflow(self, row):
        # each norm is inf, or below NORM_FLOOR when measured in float64
        gen = np.random.default_rng(11)
        other, rhs = gen.normal(size=(1, 3)), gen.normal(size=(2, 3))
        padded = np.array([row + [0.0]])
        with pytest.raises(ValueError, match="similarity_matrix lhs row 0 has norm"):
            similarity_matrix(Tensor(np.concatenate([padded, other])), Tensor(rhs))
        with pytest.raises(ValueError, match="similarity_matrix rhs row 1 has norm"):
            similarity_matrix(Tensor(rhs), Tensor(np.concatenate([other, padded])))


def orthogonal_pair():
    """Two anchors/positives with sim(h_i, h_i^+)=1 and cross sims 0."""
    h = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    return h, h


class TestSupBasic:
    def test_singleton_batch_zero(self):
        h = Tensor(np.array([[0.3, 0.4]]))
        assert loss_sup_basic(h, h, tau=1.0).item() == 0.0

    def test_two_pair_closed_form(self):
        h, hp = orthogonal_pair()
        loss = loss_sup_basic(h, hp, tau=1.0).item()
        assert abs(loss - LN_1_PLUS_E_MINUS_1) < 1e-12

    def test_permutation_invariance(self):
        gen = Rng(0).generator()
        h, hp = random_batch(gen, 5, 4), random_batch(gen, 5, 4)
        perm = gen.permutation(5)
        a = loss_sup_basic(Tensor(h), Tensor(hp), 0.1).item()
        b = loss_sup_basic(Tensor(h[perm]), Tensor(hp[perm]), 0.1).item()
        assert abs(a - b) < 1e-12

    def test_scale_invariance(self):
        gen = Rng(1).generator()
        h, hp = random_batch(gen, 4, 3), random_batch(gen, 4, 3)
        a = loss_sup_basic(Tensor(h), Tensor(hp), 0.2).item()
        b = loss_sup_basic(Tensor(3.7 * h), Tensor(0.01 * hp), 0.2).item()
        assert abs(a - b) < 1e-10

    def test_matches_brute_force(self):
        gen = Rng(2).generator()
        for _ in range(20):
            m = int(gen.integers(1, 17))
            h, hp = random_batch(gen, m, 6), random_batch(gen, m, 6)
            ours = loss_sup_basic(Tensor(h), Tensor(hp), 0.05).item()
            assert abs(ours - brute_force_sup_basic(h, hp, 0.05)) < 1e-10

    def test_large_tau_limit(self):
        gen = Rng(3).generator()
        m = 5
        h, hp = random_batch(gen, m, 4), random_batch(gen, m, 4)
        loss = loss_sup_basic(Tensor(h), Tensor(hp), tau=1e6).item()
        assert abs(loss - np.log(m)) < 1e-6

    def test_invalid_tau(self):
        h, hp = orthogonal_pair()
        with pytest.raises(ValueError, match="temperature"):
            loss_sup_basic(h, hp, tau=0.0)


@pytest.mark.parametrize("tau", [np.inf, np.nan])
@pytest.mark.parametrize("loss, views", [(loss_sup_basic, 2), (loss_unsup, 2),
                                         (loss_sup_hard, 3)])
def test_tau_that_is_not_finite_is_refused(loss, views, tau):
    # at tau = inf every logit is 0: the loss is ln K and no gradient flows
    h = Tensor(Rng(3).generator().normal(size=(4, 5)))
    with pytest.raises(ValueError, match="positive and finite"):
        loss(*[h] * views, tau=tau)


class TestUnsup:
    def test_identical_views_closed_form(self):
        # p = 0 dropout: views coincide; orthogonal embeddings give the
        # same closed form as the supervised two-pair construction
        h, _ = orthogonal_pair()
        loss = loss_unsup(h, h, tau=1.0).item()
        assert abs(loss - LN_1_PLUS_E_MINUS_1) < 1e-12

    def test_swapped_views_well_formed(self):
        gen = Rng(4).generator()
        v1, v2 = random_batch(gen, 6, 5), random_batch(gen, 6, 5)
        a = loss_unsup(Tensor(v1), Tensor(v2), 0.05).item()
        b = loss_unsup(Tensor(v2), Tensor(v1), 0.05).item()
        assert np.isfinite(a) and np.isfinite(b) and a >= 0 and b >= 0


class TestSupHard:
    def test_single_hard_negative_closed_form(self):
        h = Tensor(np.array([[1.0, 0.0]]))
        hp = Tensor(np.array([[1.0, 0.0]]))
        hn = Tensor(np.array([[0.0, 1.0]]))
        loss = loss_sup_hard(h, hp, hn, tau=1.0).item()
        assert abs(loss - LN_1_PLUS_E_MINUS_1) < 1e-12

    def test_far_negatives_recover_sup_basic(self):
        # sim(h_i, h_j^-) = -1 at tau = 0.02 puts negatives at exp(-50),
        # so the hard-negative loss collapses onto the basic one
        h, hp = orthogonal_pair()
        hn = Tensor(-h.data)
        tau = 0.02
        hard = loss_sup_hard(h, hp, hn, tau).item()
        basic = loss_sup_basic(h, hp, tau).item()
        assert hard >= basic
        assert abs(hard - basic) < 1e-15

    def test_monotonicity_vs_sup_basic(self):
        gen = Rng(6).generator()
        for _ in range(10):
            m = int(gen.integers(1, 8))
            h, hp, hn = (random_batch(gen, m, 5) for _ in range(3))
            hard = loss_sup_hard(Tensor(h), Tensor(hp), Tensor(hn), 0.05).item()
            basic = loss_sup_basic(Tensor(h), Tensor(hp), 0.05).item()
            assert hard >= basic - 1e-12

    def test_matches_brute_force(self):
        gen = Rng(7).generator()
        for _ in range(20):
            m = int(gen.integers(1, 17))
            h, hp, hn = (random_batch(gen, m, 6) for _ in range(3))
            ours = loss_sup_hard(Tensor(h), Tensor(hp), Tensor(hn), 0.05).item()
            oracle = brute_force_sup_hard(h, hp, hn, 0.05)
            assert abs(ours - oracle) < 1e-10

    def test_large_tau_limit_ln_2m(self):
        gen = Rng(8).generator()
        m = 4
        h, hp, hn = (random_batch(gen, m, 4) for _ in range(3))
        loss = loss_sup_hard(Tensor(h), Tensor(hp), Tensor(hn), tau=1e6).item()
        assert abs(loss - np.log(2 * m)) < 1e-6


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10**6), st.integers(1, 6))
def test_losses_nonnegative_and_finite(seed, m):
    gen = np.random.default_rng(seed)
    h, hp, hn = (gen.normal(size=(m, 4)) + 0.05 for _ in range(3))
    if min(np.linalg.norm(x, axis=1).min() for x in (h, hp, hn)) == 0:
        return
    for loss in (
        loss_sup_basic(Tensor(h), Tensor(hp), 0.05),
        loss_unsup(Tensor(h), Tensor(hp), 0.05),
        loss_sup_hard(Tensor(h), Tensor(hp), Tensor(hn), 0.05),
    ):
        assert np.isfinite(loss.item()) and loss.item() >= -1e-12


def test_gradients_pass_grad_check():
    gen = Rng(9).generator()
    h, hp, hn = (random_batch(gen, 3, 4) for _ in range(3))
    assert grad_check(lambda ts: loss_sup_basic(ts[0], ts[1], 0.1), [h, hp]) < 1e-4
    assert grad_check(lambda ts: loss_unsup(ts[0], ts[1], 0.1), [h, hp]) < 1e-4
    assert grad_check(
        lambda ts: loss_sup_hard(ts[0], ts[1], ts[2], 0.1), [h, hp, hn]
    ) < 1e-4


def chain_info_nce(h: Tensor, candidates: Tensor, tau: float) -> Tensor:
    """`objectives._info_nce` as a chain of Tensor ops: each side's rows over
    their norms, the similarity matmul, log-sum-exp minus the diagonal, and
    the mean over anchors."""
    def unit(x):
        return x / (x * x).sum(axis=1, keepdims=True) ** 0.5

    sims = unit(h) @ unit(candidates).T * (1.0 / tau)
    rows = np.arange(sims.shape[0])
    return (sims.logsumexp(axis=1) - sims[rows, rows]).mean()


@pytest.mark.parametrize("m", [1, 5, 16])
@pytest.mark.parametrize("loss, views", [(loss_sup_basic, 2), (loss_unsup, 2),
                                         (loss_sup_hard, 3)])
def test_loss_node_matches_tensor_chain(loss, views, m, monkeypatch):
    # bit for bit, the loss and its gradient, with the views sliced from one
    # (V*M, d) batch as a training step slices them
    batch = random_batch(Rng(12).generator(), views * m, 6)

    def loss_and_grad():
        h = Tensor(batch, requires_grad=True)
        value = loss(*(h[v * m:(v + 1) * m] for v in range(views)), 0.05)
        value.backward()
        return value.data, h.grad

    fused, fused_grad = loss_and_grad()
    monkeypatch.setattr(objectives, "_info_nce", chain_info_nce)
    chain, chain_grad = loss_and_grad()
    assert np.array_equal(fused, chain)
    assert np.array_equal(fused_grad, chain_grad)


def test_loss_names_a_zero_row():
    gen = Rng(14).generator()
    h, hp, hn = (random_batch(gen, 3, 4) for _ in range(3))
    h[1] = 0.0
    with pytest.raises(ValueError, match="similarity_matrix lhs row 1 has norm"):
        loss_sup_hard(Tensor(h), Tensor(hp), Tensor(hn))
    h[1], hn[2] = 1.0, 0.0
    with pytest.raises(ValueError, match="similarity_matrix rhs row 5 has norm"):
        loss_sup_hard(Tensor(h), Tensor(hp), Tensor(hn))
