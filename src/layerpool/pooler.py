"""Layer-wise attention pooling and the fixed baseline strategies.

The attention path scores every (query layer, key layer) pair with
multiplicative attention, normalizes each row, mixes the value stream with
the resulting weights, and averages over query layers. The headline strategy
concatenates the last layer's CLS vector and projects through a tanh MLP
back to the model dimension.

Every function takes layer stacks of shape (..., N, 2, d) (see
`layerpool.encoder`) and keeps their leading shape: one stack and a batch
of stacks go through the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .artifact import write_csv
from .autodiff import Rng, Tensor

RATIO_EPS = 1e-9


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


@dataclass
class PoolerParams:
    """Learnable attention matrices and the tanh projection."""

    w_q: Tensor  # (d, d)
    w_k: Tensor  # (d, d)
    w_v: Tensor  # (d, d)
    mlp_weight: Tensor  # (d, 2d)
    mlp_bias: Tensor  # (d,)

    @classmethod
    def init(cls, hidden_dim: int, rng: Rng) -> "PoolerParams":
        d = hidden_dim
        gen = rng.child("pooler_init").generator()

        def u(shape, fan_in):
            bound = 1.0 / np.sqrt(fan_in)
            return Tensor(gen.uniform(-bound, bound, size=shape), requires_grad=True)

        return cls(
            w_q=u((d, d), d),
            w_k=u((d, d), d),
            w_v=u((d, d), d),
            mlp_weight=u((d, 2 * d), 2 * d),
            mlp_bias=Tensor(np.zeros(d), requires_grad=True),
        )

    def named(self) -> dict[str, Tensor]:
        return {f"pooler.{f.name}": getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_named(cls, named: dict[str, Tensor]) -> "PoolerParams":
        """The pooler tensors of a named parameter set, shared, not copied."""
        return cls(**{f.name: named[f"pooler.{f.name}"] for f in fields(cls)})


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
        write_csv(path, [["row"] + [f"layer{j + 1}" for j in range(n)],
                         *([f"layer{i + 1}"] + [repr(x) for x in self.weights[i]]
                           for i in range(n)),
                         ["aggregate"] + [repr(x) for x in self.per_layer_weight]])


def _qkv_streams(stacks: Tensor, strategy: PoolStrategy) -> list[Tensor]:
    if strategy not in _QKV_STREAMS:
        raise ValueError(f"{strategy.value} is not an attention strategy")
    return [stacks[..., s, :] for s in _QKV_STREAMS[strategy]]


def attention_matrix(stacks: Tensor, params: PoolerParams,
                     strategy: PoolStrategy, norm_mode: str = "softmax"):
    """Differentiable (..., N, N) row-normalized layer-attention matrices.

    Returns (matrix Tensor, (..., N) bool fallback mask). Fallbacks only
    occur in ratio mode, when a row of raw scores sums to (almost) zero;
    such a row is uniform.
    """
    if norm_mode not in ("softmax", "ratio"):
        raise ValueError(f"unknown norm_mode {norm_mode!r}")
    queries, keys, _ = _qkv_streams(stacks, strategy)
    q = queries @ params.w_q.T  # (..., N, d)
    k = keys @ params.w_k.T
    scores = q @ k.T  # (..., N, N)
    if norm_mode == "softmax":
        return scores.softmax(axis=-1), np.zeros(scores.shape[:-1], dtype=bool)

    sums = scores.sum(axis=-1, keepdims=True)
    fallback = np.abs(sums.data) < RATIO_EPS  # (..., N, 1)
    # a degenerate row is divided by 1, zeroed, then set uniform; healthy
    # rows see + 0 and * 1, which are exact
    fb = fallback.astype(np.float64)
    matrix = scores / (sums + fb) * (1.0 - fb) + fb / scores.shape[-1]
    return matrix, fallback[..., 0]


def attention_scores(stacks: Tensor, params: PoolerParams,
                     strategy: PoolStrategy = PoolStrategy.ATTN_CLS_AVG_CONCAT,
                     norm_mode: str = "softmax") -> AttentionReport:
    matrix, fallback = attention_matrix(stacks, params, strategy, norm_mode)
    return AttentionReport(weights=matrix.data.copy(), fallback=fallback)


def pool_layerwise(stacks: Tensor, params: PoolerParams,
                   strategy: PoolStrategy = PoolStrategy.ATTN_CLS_AVG_CONCAT,
                   norm_mode: str = "softmax") -> Tensor:
    """Attention-weighted mix of the value stream, averaged over query layers."""
    matrix, _ = attention_matrix(stacks, params, strategy, norm_mode)
    _, _, values = _qkv_streams(stacks, strategy)
    v = values @ params.w_v.T  # (..., N, d)
    mixed = matrix @ v  # row i = sum_j A[i, j] * (W_v v_j)
    return mixed.mean(axis=-2)


def project(stacks: Tensor, h_layers: Tensor, params: PoolerParams) -> Tensor:
    """Concatenate last-layer CLS with the pooled vectors and apply tanh MLP."""
    expected = stacks.shape[:-3] + params.mlp_bias.shape
    if h_layers.shape != expected:
        raise ValueError(
            f"pooled vector has shape {h_layers.shape}, expected {expected}"
        )
    h_cl = Tensor.concat([stacks[..., -1, 0, :], h_layers], axis=-1)  # (..., 2d)
    return (h_cl @ params.mlp_weight.T + params.mlp_bias).tanh()


def pool(stacks: Tensor, params: PoolerParams,
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
    h_layers = pool_layerwise(stacks, params, strategy, norm_mode)
    if strategy == PoolStrategy.ATTN_CLS_AVG_CONCAT:
        return project(stacks, h_layers, params)
    return h_layers
