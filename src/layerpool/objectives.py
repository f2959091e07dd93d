"""Contrastive training objectives over batches of pooled embeddings.

All three losses are one InfoNCE core: cosine similarities of each anchor
with a candidate matrix, scaled by a temperature, where candidate row i is
anchor i's positive and every other row is a negative, and a log-sum-exp
denominator over the candidates. Losses are averaged over the batch so the
learning rate does not depend on batch size.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, check_norms

# each objective's views in loss-argument order: (corpus record key, dropout tag)
VIEWS = {
    "sup_basic": (("sent1", "a"), ("sent2", "p")),
    "unsup": (("text", "z"), ("text", "z2")),
    "sup_hard": (("anchor", "a"), ("positive", "p"), ("negative", "n")),
}
OBJECTIVES = tuple(VIEWS)


def record_keys(objective: str) -> tuple[str, ...]:
    """The distinct corpus record keys an objective reads, in view order."""
    return tuple(dict.fromkeys(key for key, _ in VIEWS[objective]))

DEFAULT_TEMPERATURE = 0.05


def _normalize_rows(h: Tensor, name: str) -> Tensor:
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        norms = (h * h).sum(axis=1, keepdims=True) ** 0.5
    check_norms(norms.data[:, 0], name)
    return h / norms


def similarity_matrix(h_a: Tensor, h_b: Tensor) -> Tensor:
    """Pairwise cosine similarities, differentiable: (M, M') for M x d inputs.

    Every row's norm must lie in [NORM_FLOOR, inf) (``check_norms``); a NaN
    row passes and gives NaN similarities."""
    return (_normalize_rows(h_a, "similarity_matrix lhs")
            @ _normalize_rows(h_b, "similarity_matrix rhs").T)


def _info_nce(h: Tensor, candidates: Tensor, tau: float) -> Tensor:
    """Mean cross-entropy of anchor i picking candidate row i among all rows."""
    if not 0 < tau < np.inf:
        raise ValueError(f"temperature must be positive and finite, got {tau}")
    sims = similarity_matrix(h, candidates) * (1.0 / tau)  # (M, K)
    rows = np.arange(sims.shape[0])
    return (sims.logsumexp(axis=1) - sims[rows, rows]).mean()


def loss_sup_basic(h: Tensor, h_pos: Tensor, tau: float = DEFAULT_TEMPERATURE) -> Tensor:
    """In-batch negative cross-entropy: anchors vs positives."""
    return _info_nce(h, h_pos, tau)


def loss_unsup(h_view1: Tensor, h_view2: Tensor, tau: float = DEFAULT_TEMPERATURE) -> Tensor:
    """Dropout-pair objective: two stochastic views of the same sentences.

    Structurally identical to the supervised in-batch loss; the views come
    from one encoder pass in which each sentence appears twice, under two
    independent dropout streams. Negatives are drawn only from the second
    view's rows. On frozen features both views are the same pooled stack,
    so the positive term is constant and only the negatives train.
    """
    return _info_nce(h_view1, h_view2, tau)


def loss_sup_hard(h: Tensor, h_pos: Tensor, h_neg: Tensor,
                  tau: float = DEFAULT_TEMPERATURE) -> Tensor:
    """Hard-negative objective: the denominator also sums over contradictions."""
    return _info_nce(h, Tensor.concat([h_pos, h_neg]), tau)  # (M, 2M) similarities
