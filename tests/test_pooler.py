import numpy as np
import pytest

from layer_stacks import layer_stack, trainable
from layerpool.autodiff import Rng, Tensor, grad_check
from layerpool.objectives import loss_sup_hard
from layerpool.pooler import (
    ATTENTION_STRATEGIES,
    RATIO_EPS,
    AttentionReport,
    PoolStrategy,
    attention_matrix,
    init_pooler_params,
    pool,
)


def identity_params(d: int) -> dict:
    return trainable({"pooler.w_q": np.eye(d), "pooler.w_k": np.eye(d),
                      "pooler.w_v": np.eye(d), "pooler.mlp_weight": np.zeros((d, 2 * d)),
                      "pooler.mlp_bias": np.zeros(d)})


def random_stack(n: int, d: int, seed: int = 0) -> Tensor:
    # N CLS vectors are drawn first, then N AVG vectors
    x = Rng(seed).generator().normal(size=(2, n, d))
    return layer_stack(x[0], x[1])


@pytest.fixture
def derived_stack():
    # hand-evaluated example: ratio-mode scores [1, 3] -> weights [0.25, 0.75]
    return layer_stack([[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [3.0, 0.0]])


class TestAttentionScores:
    def test_single_layer_is_one(self):
        stack = random_stack(1, 4, seed=3)
        for mode in ("softmax", "ratio"):
            matrix, _ = attention_matrix(stack, trainable(init_pooler_params(4, Rng(1))),
                                         PoolStrategy.ATTN_CLS_AVG, mode)
            assert matrix.shape == (1, 1)
            assert matrix.data[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_identical_layers_uniform(self):
        gen = Rng(9).generator()
        c, a = gen.normal(size=4), gen.normal(size=4)
        stack = layer_stack([c] * 3, [a] * 3)
        matrix, _ = attention_matrix(stack, trainable(init_pooler_params(4, Rng(2))),
                                     PoolStrategy.ATTN_CLS_AVG, "softmax")
        assert np.allclose(matrix.data, 1.0 / 3.0, atol=1e-12)

    def test_hand_derived_ratio(self, derived_stack):
        matrix, fallback = attention_matrix(derived_stack, identity_params(2),
                                            PoolStrategy.ATTN_CLS_AVG, "ratio")
        assert np.allclose(matrix.data, [[0.25, 0.75], [0.25, 0.75]], atol=1e-12)
        assert not fallback.any()

    def test_rows_sum_to_one_softmax(self):
        params = trainable(init_pooler_params(5, Rng(0)))
        for seed in range(20):
            matrix, _ = attention_matrix(random_stack(4, 5, seed), params,
                                         PoolStrategy.ATTN_CLS_AVG, "softmax")
            assert np.allclose(matrix.data.sum(axis=1), 1.0, atol=1e-9)

    def test_ratio_fallback_flags_degenerate_row(self):
        # zero h^c makes every raw score zero -> uniform fallback, flagged
        stack = layer_stack(np.zeros((2, 2)), [[1.0, 0.0], [3.0, 0.0]])
        matrix, fallback = attention_matrix(stack, identity_params(2),
                                            PoolStrategy.ATTN_CLS_AVG, "ratio")
        assert fallback.tolist() == [True, True]
        assert np.allclose(matrix.data, 0.5, atol=1e-12)

    @pytest.mark.parametrize("strategy", [PoolStrategy.ATTN_CLS, PoolStrategy.ATTN_AVG,
                                          PoolStrategy.ATTN_CLS_AVG])
    def test_ratio_weights_bounded_by_inverse_eps(self, strategy):
        # raw scores that nearly cancel fall back instead of dividing by ~0
        gen = Rng(17).generator()
        stacks = Tensor(gen.standard_normal((2000, 4, 2, 8)))
        params = trainable(init_pooler_params(8, Rng(4)))
        matrix, fallback = attention_matrix(stacks, params, strategy, "ratio")
        kept = matrix.data[~fallback]
        assert np.abs(kept).max() < 1.0 / RATIO_EPS
        assert np.allclose(kept.sum(axis=-1), 1.0, atol=1e-9)
        assert np.allclose(matrix.data[fallback], 0.25, atol=0)
        assert 0 < fallback.sum() < fallback.size

    def test_softmax_shift_invariance(self):
        # adding a constant to a row of raw scores leaves softmax weights alone:
        # realized by scaling nothing -- verified against a manual shift
        stack = random_stack(3, 4, seed=5)
        params = trainable(init_pooler_params(4, Rng(7)))
        matrix, _ = attention_matrix(stack, params, PoolStrategy.ATTN_CLS_AVG, "softmax")
        q = stack.data[:, 0] @ params["pooler.w_q"].data.T
        k = stack.data[:, 1] @ params["pooler.w_k"].data.T
        raw = q @ k.T + 11.0  # shift every row
        shifted = np.exp(raw - raw.max(axis=1, keepdims=True))
        shifted /= shifted.sum(axis=1, keepdims=True)
        assert np.allclose(matrix.data, shifted, atol=1e-9)

    def test_unknown_norm_mode(self):
        with pytest.raises(ValueError, match="norm_mode"):
            attention_matrix(random_stack(2, 4), trainable(init_pooler_params(4, Rng(0))),
                             PoolStrategy.ATTN_CLS_AVG, "sigmoid")

    def test_csv_roundtrip(self, tmp_path):
        matrix, fallback = attention_matrix(random_stack(3, 4, seed=1),
                                            trainable(init_pooler_params(4, Rng(0))),
                                            PoolStrategy.ATTN_CLS_AVG)
        rep = AttentionReport(weights=matrix.data, fallback=fallback)
        path = tmp_path / "a.csv"
        rep.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 3 + 1  # header, rows, aggregate
        assert lines[-1].startswith("aggregate,")

    def test_csv_refuses_a_batch_of_reports(self, tmp_path):
        stacks = Tensor(np.stack([random_stack(2, 4, seed=s).data for s in range(3)]))
        matrix, fallback = attention_matrix(stacks, trainable(init_pooler_params(4, Rng(0))),
                                            PoolStrategy.ATTN_CLS_AVG)
        rep = AttentionReport(weights=matrix.data, fallback=fallback)
        assert rep.weights.shape == (3, 2, 2)
        with pytest.raises(ValueError, match=r"\(N, N\)"):
            rep.write_csv(tmp_path / "a.csv")
        assert not (tmp_path / "a.csv").exists()


class TestPoolLayerwise:
    def test_single_layer_passthrough(self):
        stack = random_stack(1, 3, seed=2)
        out = pool(stack, identity_params(3), PoolStrategy.ATTN_CLS_AVG)
        assert np.allclose(out.data, stack.data[0, 1], atol=1e-12)

    def test_identical_layers_fixed_point(self):
        gen = Rng(4).generator()
        c, a = gen.normal(size=3), gen.normal(size=3)
        stack = layer_stack([c] * 4, [a] * 4)
        out = pool(stack, identity_params(3), PoolStrategy.ATTN_CLS_AVG)
        assert np.allclose(out.data, a, atol=1e-12)

    def test_hand_derived(self, derived_stack):
        out = pool(derived_stack, identity_params(2), PoolStrategy.ATTN_CLS_AVG, "ratio")
        assert np.allclose(out.data, [2.5, 0.0], atol=1e-12)

    def test_layer_relabeling_invariance(self):
        stack = random_stack(4, 5, seed=8)
        params = trainable(init_pooler_params(5, Rng(3)))
        out = pool(stack, params, PoolStrategy.ATTN_CLS_AVG)
        perm = [2, 0, 3, 1]
        permuted = Tensor(stack.data[perm])
        out_p = pool(permuted, params, PoolStrategy.ATTN_CLS_AVG)
        assert np.allclose(out.data, out_p.data, atol=1e-12)


class TestProject:
    # the headline strategy on stacks whose attention output is known

    def test_zero_map(self):
        stack = random_stack(2, 3, seed=1)
        h = pool(stack, identity_params(3), PoolStrategy.ATTN_CLS_AVG_CONCAT)
        assert np.array_equal(h.data, np.zeros(3))

    def test_output_dim_and_range(self):
        for n in (1, 2, 5):
            # equal AVG vectors 3·1 are a fixed point of attention under W_v = I
            cls = random_stack(n, 4, seed=n).data[:, 0]
            stack = layer_stack(cls, np.full((n, 4), 3.0))
            params = identity_params(4)
            init = init_pooler_params(4, Rng(0))
            for name in ("pooler.mlp_weight", "pooler.mlp_bias"):
                params[name] = Tensor(init[name], requires_grad=True)
            h = pool(stack, params, PoolStrategy.ATTN_CLS_AVG_CONCAT)
            expected = np.tanh(init["pooler.mlp_weight"] @ np.concatenate([cls[-1], [3.0] * 4])
                               + init["pooler.mlp_bias"])
            assert h.data.shape == (4,)
            assert np.allclose(h.data, expected, atol=1e-12)
            assert np.all(np.abs(h.data) < 1.0)

    def test_hand_derived_tanh(self):
        # N = 1: attention weight 1, so the pooled vector is the AVG row 2
        stack = layer_stack([[1.0]], [[2.0]])
        params = {"pooler.w_q": Tensor(np.eye(1)), "pooler.w_k": Tensor(np.eye(1)),
                  "pooler.w_v": Tensor(np.eye(1)), "pooler.mlp_weight": Tensor([[1.0, 1.0]]),
                  "pooler.mlp_bias": Tensor([0.0])}
        h = pool(stack, params, PoolStrategy.ATTN_CLS_AVG_CONCAT)
        assert h.data[0] == pytest.approx(np.tanh(3.0), abs=1e-12)


class TestPool:
    def test_cls_last_is_projection(self):
        stack = random_stack(3, 4, seed=6)
        out = pool(stack, trainable(init_pooler_params(4, Rng(0))), PoolStrategy.CLS_LAST)
        assert np.array_equal(out.data, stack.data[-1, 0])

    def test_cls_last_parameter_free(self):
        stack = random_stack(3, 4, seed=6)
        a = pool(stack, trainable(init_pooler_params(4, Rng(0))), PoolStrategy.CLS_LAST)
        b = pool(stack, trainable(init_pooler_params(4, Rng(99))), PoolStrategy.CLS_LAST)
        assert np.array_equal(a.data, b.data)

    def test_avg_fl_degenerate_equality(self):
        gen = Rng(2).generator()
        shared = gen.normal(size=4)
        stack = layer_stack([gen.normal(size=4) for _ in range(3)],
                            [shared, gen.normal(size=4), shared])
        fl = pool(stack, identity_params(4), PoolStrategy.AVG_FL)
        last = pool(stack, identity_params(4), PoolStrategy.AVG_LAST)
        assert np.allclose(fl.data, last.data, atol=1e-12)

    def test_concat_baselines_are_2d(self):
        stack = random_stack(3, 4, seed=7)
        params = trainable(init_pooler_params(4, Rng(0)))
        for strategy in (PoolStrategy.CONCAT_AVG, PoolStrategy.CONCAT_CLS_AVG):
            assert pool(stack, params, strategy).data.shape == (8,)

    def test_headline_composes_oracles(self, derived_stack):
        params = identity_params(2)
        params["pooler.mlp_weight"] = Tensor(Rng(5).generator().normal(size=(2, 4)),
                                             requires_grad=True)
        via_pool = pool(derived_stack, params, PoolStrategy.ATTN_CLS_AVG_CONCAT, "ratio")
        # last CLS [1, 0] beside TestPoolLayerwise's hand-derived [2.5, 0]
        via_steps = np.tanh(params["pooler.mlp_weight"].data @ [1.0, 0.0, 2.5, 0.0])
        assert np.allclose(via_pool.data, via_steps, atol=1e-12)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            pool(random_stack(2, 4), trainable(init_pooler_params(4, Rng(0))), "maxpool")

    @pytest.mark.parametrize("strategy", sorted(s.value for s in ATTENTION_STRATEGIES))
    def test_gradients_pass_grad_check(self, strategy):
        stack = random_stack(3, 4, seed=11)
        base = init_pooler_params(4, Rng(1))

        def f(ts):
            p = dict(zip(base, ts))
            out = pool(stack, p, PoolStrategy(strategy))
            return (out * out).sum()

        assert grad_check(f, list(base.values())) < 1e-4


@pytest.mark.parametrize("norm_mode", ["softmax", "ratio"])
@pytest.mark.parametrize("strategy", sorted(s.value for s in ATTENTION_STRATEGIES))
def test_stack_gradients_pass_grad_check(strategy, norm_mode):
    # the stacks' gradient is the encoder path's; no layer is zero here, as a
    # zero query layer sits on the ratio fallback's boundary
    stacks = Rng(13).generator().normal(size=(2, 3, 2, 4))
    base = init_pooler_params(4, Rng(1))

    def f(ts):
        out = pool(ts[0], dict(zip(base, ts[1:])), PoolStrategy(strategy), norm_mode)
        return (out * out).sum()

    assert grad_check(f, [stacks, *base.values()]) < 1e-4


def chain_pool(stacks: Tensor, params: dict, strategy, norm_mode) -> Tensor:
    """`pool`'s attention path as a chain of Tensor ops: the query, key and
    value stream slices and projections, softmax or ratio scores with the
    uniform fallback, the mix, the mean over query layers, and the headline's
    CLS concat and tanh MLP."""
    query, key, value = ORACLE_STREAMS[PoolStrategy(strategy).value]
    q = stacks[..., query, :] @ params["pooler.w_q"].T
    k = stacks[..., key, :] @ params["pooler.w_k"].T
    scores = q @ k.T
    if norm_mode == "softmax":
        matrix = scores.softmax(axis=-1)
    else:
        sums = scores.sum(axis=-1, keepdims=True)
        fb = (np.abs(sums.data) <= RATIO_EPS * np.abs(scores.data).sum(axis=-1, keepdims=True)
              ).astype(np.float64)
        matrix = scores / (sums + fb) * (1.0 - fb) + fb / scores.shape[-1]
    v = stacks[..., value, :] @ params["pooler.w_v"].T
    pooled = (matrix @ v).mean(axis=-2)
    if strategy != PoolStrategy.ATTN_CLS_AVG_CONCAT:
        return pooled
    h_cl = Tensor.concat([stacks[..., -1, 0, :], pooled], axis=-1)
    return (h_cl @ params["pooler.mlp_weight"].T + params["pooler.mlp_bias"]).tanh()


def _pool_with_grads(stacks: np.ndarray, base: dict, strategy, norm_mode, pool_fn=pool):
    """pool() output, then gradients of sum(out**2) w.r.t. params and stacks."""
    params = trainable(base)
    x = Tensor(stacks, requires_grad=True)
    out = pool_fn(x, params, strategy, norm_mode)
    (out * out).sum().backward()
    grads = [np.zeros_like(t.data) if t.grad is None else t.grad
             for t in [*params.values(), x]]
    return out.data, grads


def _within_1e12(a, b) -> bool:
    # relative to max(1, |b|), as grad_check measures: ratio rows whose raw
    # scores nearly cancel give gradients of order 1e5
    return bool(np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b))))


@pytest.mark.parametrize("norm_mode", ["softmax", "ratio"])
@pytest.mark.parametrize("strategy", [s.value for s in PoolStrategy])
def test_batch_rows_match_single_stacks(strategy, norm_mode):
    gen = Rng(21).generator()
    stacks = gen.normal(size=(2, 3, 4, 2, 5))  # leading shape (2, 3)
    stacks[1, 2, :, 0] = 0.0  # zero CLS vectors: every ratio row falls back
    base = init_pooler_params(5, Rng(2))
    out, grads = _pool_with_grads(stacks, base, strategy, norm_mode)
    param_sums = [np.zeros_like(g) for g in grads[:-1]]
    for i, j in np.ndindex(2, 3):
        row, row_grads = _pool_with_grads(stacks[i, j], base, strategy, norm_mode)
        assert _within_1e12(out[i, j], row)
        assert _within_1e12(grads[-1][i, j], row_grads[-1])
        for total, g in zip(param_sums, row_grads[:-1]):
            total += g
    for batch_grad, total in zip(grads[:-1], param_sums):
        assert _within_1e12(batch_grad, total)


# loss and gradients of one ratio-mode batch, as computed by the
# per-sentence implementation that preceded batched pooling
RATIO_LOSS = 12.274600458725839
RATIO_GRADS = {
    "pooler.w_q": [[1.754563640179369, 10.002713049674039, 0.9367924325092916],
                   [2.384193604173235, 14.101367966009121, 0.7607102489875189],
                   [0.6483722798976842, 3.671864540931843, -0.4160364859330932]],
    "pooler.w_k": [[2.1323111185496444, -16.63468666958081, 2.928210576432599],
                   [-0.8265218551881921, 15.398478844511903, 0.29007831316743493],
                   [1.421148759982318, -19.19120585510172, 0.3274265506660947]],
    "pooler.w_v": [[1.0221613726191396, -4.2194271872807185, -1.3940904402496705],
                   [0.5836579625861127, 0.19788701301773476, -0.3416792202014234],
                   [1.3834176658571804, 1.1646062907024035, -1.3504410664200912]],
    "pooler.mlp_weight": [
        [2.1539161973605987, -11.897687593247332, -3.486256397336719,
         -9.192957358414878, -10.143871872047976, 8.579377467423813],
        [-1.4209086989389936, -0.48163144737033825, 2.089890212055029,
         2.615057885033343, 2.738812438479063, -2.3855898199123047],
        [0.11836057782610346, -2.933676669520101, 0.3408995137561641,
         0.101672014491204, 0.20141021657239147, -0.1485369926934529]],
    "pooler.mlp_bias": [-2.7540647659928403, 10.897219861616815, -1.5209155976965751],
}


def test_ratio_mode_batch_pinned():
    gen = np.random.default_rng(7)
    sides = gen.normal(size=(3, 3, 3, 2, 3))  # (anchor/pos/neg, M, N, 2, d)
    sides[0, 1, :, 0, :] = 0.0  # anchor 1 has zero CLS vectors: all rows fall back
    params = trainable(init_pooler_params(3, Rng(5)))
    a, p, n = (pool(Tensor(x), params, PoolStrategy.ATTN_CLS_AVG_CONCAT, "ratio")
               for x in sides)
    loss = loss_sup_hard(a, p, n)
    loss.backward()
    assert abs(loss.item() - RATIO_LOSS) <= 1e-12
    for name, tensor in params.items():
        assert np.abs(tensor.grad - np.array(RATIO_GRADS[name])).max() <= 1e-12, name


# (query, key, value) stream of each attention strategy: 0 = CLS, 1 = AVG
ORACLE_STREAMS = {"attn_cls": (0, 0, 0), "attn_avg": (1, 1, 1),
                  "attn_cls_avg": (0, 1, 1), "attn_cls_avg_concat": (0, 1, 1)}


def oracle_pool(stack: np.ndarray, params: dict, strategy: str, norm_mode: str):
    """The attention pooling formula for one (N, 2, d) stack, one layer at a
    time: (embedding, per-query-layer fallback flags)."""
    w_q, w_k, w_v = (params[f"pooler.w_{s}"] for s in "qkv")
    qs, ks, vs = ORACLE_STREAMS[strategy]
    n = stack.shape[0]
    q = [w_q @ stack[i, qs] for i in range(n)]
    k = [w_k @ stack[j, ks] for j in range(n)]
    v = [w_v @ stack[j, vs] for j in range(n)]
    pooled = np.zeros(stack.shape[-1])
    fallback = []
    for i in range(n):
        scores = np.array([q[i] @ k[j] for j in range(n)])
        if norm_mode == "softmax":
            e = np.exp(scores - scores.max())
            weights, fell_back = e / e.sum(), False
        else:
            fell_back = abs(scores.sum()) <= RATIO_EPS * np.abs(scores).sum()
            weights = np.full(n, 1.0 / n) if fell_back else scores / scores.sum()
        fallback.append(fell_back)
        pooled += sum(weights[j] * v[j] for j in range(n)) / n
    if strategy == "attn_cls_avg_concat":
        h_cl = np.concatenate([stack[-1, 0], pooled])
        pooled = np.tanh(params["pooler.mlp_weight"] @ h_cl + params["pooler.mlp_bias"])
    return pooled, fallback


@pytest.mark.parametrize("lead", [(), (3,), (2, 2)], ids=["one", "batch", "pairs"])
@pytest.mark.parametrize("norm_mode", ["softmax", "ratio"])
@pytest.mark.parametrize("strategy", sorted(s.value for s in ATTENTION_STRATEGIES))
def test_pool_matches_formula_oracle(strategy, norm_mode, lead):
    gen = Rng(31).generator()
    stacks = gen.normal(size=(*lead, 3, 2, 4))
    flat = stacks.reshape(-1, 3, 2, 4)
    flat[0, 0] = 0.0  # layer 1 zero: its query rows score 0 and fall back
    if len(flat) > 1:
        flat[1, :, 0] = 0.0  # every CLS vector zero
        flat[-1, :, 1] = 0.0  # every AVG vector zero
    base = init_pooler_params(4, Rng(6))
    base["pooler.mlp_bias"] = gen.normal(size=4)
    out = pool(Tensor(stacks), {k: Tensor(v) for k, v in base.items()},
               PoolStrategy(strategy), norm_mode).data
    assert out.shape == (*lead, 4)
    fell_back = []
    for idx in np.ndindex(lead):
        expected, fallback = oracle_pool(stacks[idx], base, strategy, norm_mode)
        assert _within_1e12(out[idx], expected), idx
        fell_back += fallback
    if norm_mode == "ratio":
        assert any(fell_back) and not all(fell_back)


@pytest.mark.parametrize("lead", [(), (5,), (3, 2)], ids=["one", "batch", "pairs"])
@pytest.mark.parametrize("norm_mode", ["softmax", "ratio"])
@pytest.mark.parametrize("strategy", sorted(s.value for s in ATTENTION_STRATEGIES))
def test_pool_node_matches_tensor_chain(strategy, norm_mode, lead):
    # bit for bit: the output and the gradients of every parameter and the stacks
    gen = Rng(41).generator()
    stacks = gen.normal(size=(*lead, 4, 2, 5))
    stacks.reshape(-1, 4, 2, 5)[0, 1] = 0.0  # layer 2 zero: its query row falls back
    base = init_pooler_params(5, Rng(9))
    base["pooler.mlp_bias"] = gen.normal(size=5)
    strategy = PoolStrategy(strategy)
    fused, fused_grads = _pool_with_grads(stacks, base, strategy, norm_mode)
    chain, chain_grads = _pool_with_grads(stacks, base, strategy, norm_mode, chain_pool)
    assert np.array_equal(fused, chain)
    for name, a, b in zip([*base, "stacks"], fused_grads, chain_grads):
        assert np.array_equal(a, b), name
    _, fallback = attention_matrix(Tensor(stacks), trainable(base), strategy, norm_mode)
    assert fallback.any() == (norm_mode == "ratio") and not fallback.all()
