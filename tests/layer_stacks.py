"""Builders for layer-stack and parameter Tensors in tests.

A layer stack is one (..., N, 2, d) Tensor: [..., i, 0] is layer i's CLS
vector and [..., i, 1] its AVG vector.
"""

import numpy as np

from layerpool.autodiff import Tensor


def layer_stack(h_c, h_a) -> Tensor:
    """Interleave (..., N, d) CLS and AVG vectors into (..., N, 2, d) stacks."""
    return Tensor(np.stack([np.asarray(h_c, dtype=np.float64),
                            np.asarray(h_a, dtype=np.float64)], axis=-2))


def trainable(arrays: dict) -> dict:
    """Named arrays as Tensors that record a tape, as `train()` wraps them."""
    return {name: Tensor(a, requires_grad=True) for name, a in arrays.items()}


def pair_batch(pairs) -> Tensor:
    """(P, 2, N, 2, d) batch from a list of P (stack, stack) pairs."""
    return Tensor(np.stack([np.stack([a.data, b.data]) for a, b in pairs]))
