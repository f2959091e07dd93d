"""Contrastive training objectives over batches of pooled embeddings.

All three losses are one InfoNCE core: cosine similarities of each anchor
with a candidate matrix, scaled by a temperature, where candidate row i is
anchor i's positive and every other row is a negative, and a log-sum-exp
denominator over the candidates. Losses are averaged over the batch so the
learning rate does not depend on batch size. The core is one tape node with
a closed-form backward (`_info_nce`), which gives the bits of the
equivalent chain of Tensor ops; `similarity_matrix` returns the same
similarities as a constant.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, _unbroadcast, check_norms

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


def _unit_rows(x: np.ndarray, name: str):
    """The rows of an (M, d) array over their L2 norms, with the (M, 1) squared
    norms and norms. Every norm must lie in [NORM_FLOOR, inf) (``check_norms``,
    whose error names the row); a NaN row passes and gives NaN rows."""
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        sq = (x * x).sum(axis=1, keepdims=True)
        norms = sq ** 0.5
    check_norms(norms[:, 0], name)
    return x / norms, sq, norms


def similarity_matrix(h_a: Tensor, h_b: Tensor) -> Tensor:
    """Pairwise cosine similarities, (M, M') for M x d and M' x d inputs, as a
    constant Tensor: the losses differentiate the same similarities inside
    their own tape node."""
    return Tensor(_unit_rows(h_a.data, "similarity_matrix lhs")[0]
                  @ _unit_rows(h_b.data, "similarity_matrix rhs")[0].T)


def _unit_rows_grad(g: np.ndarray, x: np.ndarray, sq: np.ndarray,
                    norms: np.ndarray) -> np.ndarray:
    """The gradient of x given the gradient g of x / ‖x‖, summed as Tensor
    ops sum it: the quotient's term, then twice the norm's term, once per
    factor of x * x."""
    g_norms = _unbroadcast(-g * x / norms**2, norms.shape)
    per_row = g_norms * 0.5 * sq ** -0.5 * x
    g_x = g / norms
    g_x += per_row
    g_x += per_row
    return g_x


def _info_nce(h: Tensor, candidates: Tensor, tau: float) -> Tensor:
    """Mean cross-entropy of anchor i picking candidate row i among all rows,
    as one tape node.

    The forward is the cosine similarities of the unit rows over tau and a
    stable log-sum-exp per anchor. The backward is closed-form and
    computes each product and sum on the operands a chain of Tensor
    normalize, transpose, matmul, log-sum-exp, diagonal and mean ops would
    use, so the bits are that chain's.
    """
    if not 0 < tau < np.inf:
        raise ValueError(f"temperature must be positive and finite, got {tau}")
    a, sq_a, norms_a = _unit_rows(h.data, "similarity_matrix lhs")
    c, sq_c, norms_c = _unit_rows(candidates.data, "similarity_matrix rhs")
    sims = (a @ c.T) * (1.0 / tau)  # (M, K)
    m = sims.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(sims - m).sum(axis=1, keepdims=True))
    rows = np.arange(sims.shape[0])
    inv_m = 1.0 / sims.shape[0]
    loss = (lse[:, 0] - sims[rows, rows]).sum() * inv_m

    def bw(g):
        g_row = g * inv_m  # of each anchor's term
        g_sims = g_row * np.exp(sims - lse)  # log-sum-exp: softmax
        g_sims[rows, rows] -= g_row  # the positive's logit
        g_sims *= 1.0 / tau
        if h.requires_grad:
            h._accum(_unit_rows_grad(g_sims @ c, h.data, sq_a, norms_a))
        if candidates.requires_grad:
            g_c = (a.T @ g_sims).T
            candidates._accum(_unit_rows_grad(g_c, candidates.data, sq_c, norms_c))

    return Tensor(loss, parents=(h, candidates), bw=bw)


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
