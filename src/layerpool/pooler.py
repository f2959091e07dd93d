"""Layer-wise attention pooling and the fixed baseline strategies.

The attention path scores every (query layer, key layer) pair with
multiplicative attention, normalizes each row, mixes the value stream with
the resulting weights, and averages over query layers. The headline strategy
concatenates the last layer's CLS vector and projects through a tanh MLP
back to the model dimension.

Every function takes layer stacks of shape (..., N, 2, d) (see
`layerpool.encoder`) and keeps their leading shape: one stack and a batch
of stacks go through the same code. Parameters are read by name from the
same {name: Tensor} mapping the encoder reads: a tape is recorded exactly
when they require grad, which only a training run's do.

Scores are computed by one numpy rule (`_attend`). `pool` runs each
attention strategy on it as a single tape node with a closed-form backward
(`_attention_pool`), which gives the bits of the equivalent chain of
Tensor ops: its projections' gradients come from Tensor matmul's own
backward, `autodiff.matmul_grads`, as the encoder's layer norm shares
`layer_norm_forward` and `layer_norm_grad` with `Tensor.layer_norm`.
`attention_matrix` returns the same weights as a constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .artifact import write_csv
from .autodiff import Rng, Tensor, _unbroadcast, matmul_grads, uniform_init

RATIO_EPS = 1e-2  # relative fallback threshold of ratio mode
NORM_MODES = ("softmax", "ratio")  # how `_attend` normalizes a row of scores


class PoolStrategy(str, Enum):
    CLS_LAST = "cls_last"
    AVG_LAST = "avg_last"
    AVG_FL = "avg_fl"
    CONCAT_AVG = "concat_avg"              # AVG_Last + AVG_FL
    CONCAT_CLS_AVG = "concat_cls_avg"      # CLS_Last + AVG_Last
    ATTN_CLS = "attn_cls"                  # CLS_All attention
    ATTN_AVG = "attn_avg"                  # AVG_All attention
    ATTN_CLS_AVG = "attn_cls_avg"          # CLS_All + AVG_All attention
    ATTN_CLS_AVG_CONCAT = "attn_cls_avg_concat"  # + CLS_Last concat, headline


# (query, key, value) stream of each attention strategy: 0 = CLS, 1 = AVG
_QKV_STREAMS = {
    PoolStrategy.ATTN_CLS: (0, 0, 0),
    PoolStrategy.ATTN_AVG: (1, 1, 1),
    PoolStrategy.ATTN_CLS_AVG: (0, 1, 1),
    PoolStrategy.ATTN_CLS_AVG_CONCAT: (0, 1, 1),
}
ATTENTION_STRATEGIES = frozenset(_QKV_STREAMS)


def init_pooler_params(hidden_dim: int, rng: Rng) -> dict[str, np.ndarray]:
    """Seeded attention matrices W_q, W_k, W_v (d, d) and the tanh projection
    (d, 2d) weight and (d,) bias, under their checkpoint names."""
    d = hidden_dim
    gen = rng.child("pooler_init").generator()
    return {
        "pooler.w_q": uniform_init(gen, (d, d), d),
        "pooler.w_k": uniform_init(gen, (d, d), d),
        "pooler.w_v": uniform_init(gen, (d, d), d),
        "pooler.mlp_weight": uniform_init(gen, (d, 2 * d), 2 * d),
        "pooler.mlp_bias": np.zeros(d),
    }


@dataclass
class AttentionReport:
    """Row-stochastic layer-attention matrix plus per-layer aggregate weight."""

    weights: np.ndarray  # (..., N, N), [..., i, :] = attention of query layer i
    fallback: np.ndarray  # (..., N) bool, rows where ratio mode fell back to uniform

    @property
    def per_layer_weight(self) -> np.ndarray:
        return self.weights.mean(axis=-2)

    def write_csv(self, path) -> None:
        """Write one stack's (N, N) report."""
        n = self.weights.shape[0]
        if self.weights.shape != (n, n):
            raise ValueError(f"write_csv needs one (N, N) report, got {self.weights.shape}")
        write_csv(path, [["row"] + [f"layer{j + 1}" for j in range(n)],
                         *([f"layer{i + 1}"] + [repr(float(x)) for x in self.weights[i]]
                           for i in range(n)),
                         ["aggregate"] + [repr(float(x)) for x in self.per_layer_weight]])


def _attend(x: np.ndarray, w_q: np.ndarray, w_k: np.ndarray,
            strategy: PoolStrategy, norm_mode: str):
    """The one layer-attention scoring rule, on (..., N, 2, d) stack arrays.

    Returns the (..., N, d) query and key streams, the raw (..., N, N) scores
    s, the row-normalized weights, and in ratio mode the (..., N, 1) float
    fallback indicator fb and the denominators Σs + fb (both None in softmax
    mode). Ratio mode divides a row by Σs unless |Σs| <= RATIO_EPS·Σ|s|; such
    a degenerate row is divided by 1, zeroed and set uniform, while healthy
    rows see + 0 and * 1, which are exact.
    """
    if norm_mode not in NORM_MODES:
        raise ValueError(f"unknown norm_mode {norm_mode!r}")
    if strategy not in _QKV_STREAMS:
        raise ValueError(f"{strategy.value} is not an attention strategy")
    query, key, _ = _QKV_STREAMS[strategy]
    q = x[..., query, :] @ w_q.T
    k = x[..., key, :] @ w_k.T
    scores = q @ k.swapaxes(-1, -2)
    if norm_mode == "softmax":
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        return q, k, scores, weights, None, None
    sums = scores.sum(axis=-1, keepdims=True)
    fb = (np.abs(sums) <= RATIO_EPS * np.abs(scores).sum(axis=-1, keepdims=True)).astype(np.float64)
    den = sums + fb
    return q, k, scores, scores / den * (1.0 - fb) + fb / scores.shape[-1], fb, den


def attention_matrix(stacks: Tensor, params: dict[str, Tensor],
                     strategy: PoolStrategy, norm_mode: str = "softmax"):
    """(..., N, N) row-normalized layer-attention matrices, as a constant Tensor.

    Returns (matrix Tensor, (..., N) bool fallback mask). Fallbacks only
    occur in ratio mode: a row of raw scores s with |Σs| <= RATIO_EPS·Σ|s| is
    uniform, so every kept weight s_j/Σs is below 1/RATIO_EPS in magnitude.
    `pool` differentiates the same scores inside its own tape node.
    """
    _, _, _, weights, fb, _ = _attend(stacks.data, params["pooler.w_q"].data,
                                      params["pooler.w_k"].data, strategy, norm_mode)
    fallback = np.zeros(weights.shape[:-1], dtype=bool) if fb is None else fb[..., 0] > 0
    return Tensor(weights), fallback


def _attention_pool(stacks: Tensor, params: dict[str, Tensor], strategy: PoolStrategy,
                    norm_mode: str) -> Tensor:
    """An attention strategy's embeddings as one tape node.

    The forward is `_attend`'s scores, the weights' mix of the value
    stream, the mean over query layers and, for the headline strategy, the
    tanh MLP over [CLS_last; pooled]. The backward is closed-form: it writes
    the gradients of W_q, W_k, W_v, the MLP weight and bias, and of the
    stacks when they require grad (the encoder path). Each product runs on
    the operand views that a chain of Tensor slice, transpose, matmul,
    softmax (or ratio), mean, concat and tanh ops would use, and the stacks'
    gradient sums its streams in that chain's order, so the bits are the
    chain's.
    """
    w_q, w_k, w_v = (params[f"pooler.w_{s}"] for s in "qkv")
    query, key, value = _QKV_STREAMS[strategy]
    x = stacks.data
    q, k, scores, weights, fb, den = _attend(x, w_q.data, w_k.data, strategy, norm_mode)
    v = x[..., value, :] @ w_v.data.T
    mixed = weights @ v
    n, d = x.shape[-3], x.shape[-1]
    pooled = mixed.sum(axis=-2) * (1.0 / n)  # mean over i of sum_j A[i, j] * (W_v v_j)
    parents = (stacks, w_q, w_k, w_v)
    concat = strategy == PoolStrategy.ATTN_CLS_AVG_CONCAT
    if concat:
        w_m, bias = params["pooler.mlp_weight"], params["pooler.mlp_bias"]
        h_cl = np.concatenate([x[..., -1, 0, :], pooled], axis=-1)  # (..., 2d)
        out = np.tanh(h_cl @ w_m.data.T + bias.data)
        parents += (w_m, bias)
    else:
        out = pooled

    def bw(g):
        if concat:
            g = g * (1.0 - out * out)
            if bias.requires_grad:
                bias._accum(_unbroadcast(g, bias.data.shape))
            g_cl, g_m = matmul_grads(h_cl, w_m.data.T, g, True, w_m.requires_grad)
            if g_m is not None:
                w_m._accum(g_m.T)
            g = g_cl[..., d:]
        # the mean's gradient, with query layers innermost as in the chain's
        # copy of a broadcast over them
        g_mixed = np.repeat((g * (1.0 / n))[..., None], n, axis=-1).swapaxes(-1, -2)
        g_weights = g_mixed @ v.swapaxes(-1, -2)
        g_v = weights.swapaxes(-1, -2) @ g_mixed
        if fb is None:  # softmax
            g_scores = weights * (g_weights - (g_weights * weights).sum(axis=-1, keepdims=True))
        else:
            g_ratio = g_weights * (1.0 - fb)
            g_scores = g_ratio / den
            g_scores += _unbroadcast(-g_ratio * scores / den**2, den.shape)
        g_q = g_scores @ k
        g_k = (q.swapaxes(-1, -2) @ g_scores).swapaxes(-1, -2)
        g_x = np.zeros_like(x) if stacks.requires_grad else None
        if g_x is not None and concat:
            g_x[..., -1, 0, :] += g_cl[..., :d]
        for s, w, g_s in ((query, w_q, g_q), (key, w_k, g_k), (value, w_v, g_v)):
            g_in, g_w = matmul_grads(x[..., s, :], w.data.T, g_s, g_x is not None,
                                     w.requires_grad)
            if g_w is not None:
                w._accum(g_w.T)
            if g_in is not None:
                g_x[..., s, :] += g_in
        if g_x is not None:
            stacks._accum(g_x)

    return Tensor(out, parents=parents, bw=bw)


def pool(stacks: Tensor, params: dict[str, Tensor],
         strategy: PoolStrategy = PoolStrategy.ATTN_CLS_AVG_CONCAT,
         norm_mode: str = "softmax") -> Tensor:
    """Sentence embeddings per the selected strategy, one per layer stack.

    (..., N, 2, d) stacks give (..., d) embeddings. Fixed strategies are
    parameter-free; concat baselines return 2d vectors. An attention
    strategy runs as one tape node (`_attention_pool`).
    """
    strategy = PoolStrategy(strategy)
    if strategy == PoolStrategy.CLS_LAST:
        return stacks[..., -1, 0, :]
    if strategy == PoolStrategy.AVG_LAST:
        return stacks[..., -1, 1, :]
    if strategy == PoolStrategy.AVG_FL:
        return (stacks[..., 0, 1, :] + stacks[..., -1, 1, :]) * 0.5
    if strategy == PoolStrategy.CONCAT_AVG:
        avg_fl = (stacks[..., 0, 1, :] + stacks[..., -1, 1, :]) * 0.5
        return Tensor.concat([stacks[..., -1, 1, :], avg_fl], axis=-1)
    if strategy == PoolStrategy.CONCAT_CLS_AVG:
        return Tensor.concat([stacks[..., -1, 0, :], stacks[..., -1, 1, :]], axis=-1)
    return _attention_pool(stacks, params, strategy, norm_mode)
