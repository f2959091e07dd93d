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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .artifact import write_csv
from .autodiff import Rng, Tensor, uniform_init

RATIO_EPS = 1e-2  # relative fallback threshold of ratio mode


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


def attention_matrix(stacks: Tensor, params: dict[str, Tensor],
                     strategy: PoolStrategy, norm_mode: str = "softmax"):
    """Differentiable (..., N, N) row-normalized layer-attention matrices.

    Returns (matrix Tensor, (..., N) bool fallback mask). Fallbacks only
    occur in ratio mode: a row of raw scores s with |Σs| <= RATIO_EPS·Σ|s| is
    uniform, so every kept weight s_j/Σs is below 1/RATIO_EPS in magnitude.
    """
    if norm_mode not in ("softmax", "ratio"):
        raise ValueError(f"unknown norm_mode {norm_mode!r}")
    if strategy not in _QKV_STREAMS:
        raise ValueError(f"{strategy.value} is not an attention strategy")
    query, key, _ = _QKV_STREAMS[strategy]
    q = stacks[..., query, :] @ params["pooler.w_q"].T  # (..., N, d)
    k = stacks[..., key, :] @ params["pooler.w_k"].T
    scores = q @ k.T  # (..., N, N)
    if norm_mode == "softmax":
        return scores.softmax(axis=-1), np.zeros(scores.shape[:-1], dtype=bool)

    sums = scores.sum(axis=-1, keepdims=True)
    scale = np.abs(scores.data).sum(axis=-1, keepdims=True)
    fallback = np.abs(sums.data) <= RATIO_EPS * scale  # (..., N, 1)
    # a degenerate row is divided by 1, zeroed, then set uniform; healthy
    # rows see + 0 and * 1, which are exact
    fb = fallback.astype(np.float64)
    matrix = scores / (sums + fb) * (1.0 - fb) + fb / scores.shape[-1]
    return matrix, fallback[..., 0]


def pool(stacks: Tensor, params: dict[str, Tensor],
         strategy: PoolStrategy = PoolStrategy.ATTN_CLS_AVG_CONCAT,
         norm_mode: str = "softmax") -> Tensor:
    """Sentence embeddings per the selected strategy, one per layer stack.

    (..., N, 2, d) stacks give (..., d) embeddings. Fixed strategies are
    parameter-free; concat baselines return 2d vectors.
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
    matrix, _ = attention_matrix(stacks, params, strategy, norm_mode)
    v = stacks[..., _QKV_STREAMS[strategy][2], :] @ params["pooler.w_v"].T  # (..., N, d)
    pooled = (matrix @ v).mean(axis=-2)  # mean over i of sum_j A[i, j] * (W_v v_j)
    if strategy != PoolStrategy.ATTN_CLS_AVG_CONCAT:
        return pooled
    h_cl = Tensor.concat([stacks[..., -1, 0, :], pooled], axis=-1)  # (..., 2d)
    return (h_cl @ params["pooler.mlp_weight"].T + params["pooler.mlp_bias"]).tanh()
