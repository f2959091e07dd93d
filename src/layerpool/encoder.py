"""Toy transformer encoder producing per-layer CLS and mean-token vectors.

The encoder exists to exercise the pooler and objectives at desk scale: a
pre-norm residual transformer with learned positional embeddings. It can be
bypassed entirely by precomputed frozen features (see `FrozenFeatures`),
in which case only pooler parameters are trainable.

A layer stack is one Tensor of shape (..., N, 2, d): [..., i, 0] is layer
i's CLS vector h^c and [..., i, 1] its mean-token vector h^a.

A token list is CLS followed by vocabulary or UNK ids. A batch runs packed:
the n tokens of its B lists are the rows of one (n, d) array, in list
order, and every per-token op runs on those rows only. Each layer's
attention core alone runs on the padded (B, T) slots, T the longest list,
as one tape node with a closed-form backward (`_attention_core`). With
dropout on, a forward pass draws all its masks into one buffer, thresholded
once (`Encoder._dropout_masks`). Inference (`Encoder.encode_texts`) sorts
its texts by length and cuts them into length groups (see
`length_groups`), so each batch it runs pads to its own longest list.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .artifact import ArtifactCorruptError, read_npy, write_npy
from .autodiff import Rng, Tensor, fill_uniform, uniform_init

CLS_ID = 0
PAD_ID = 1
UNK_ID = 2
_NUM_RESERVED = 3

# most texts per forward pass of encode_texts, which only runs inference: a
# pass's per-token work grows with its tokens, its attention core with
# pass x T^2 (T its longest text) and its AVG averaging matrix with
# pass x tokens, so a length group longer than this runs in several passes
INFERENCE_CHUNK = 64

# padded score entries per head (lists x slots^2) that one more length group
# must save to pay for one more encode call. Serve-like calls of 1-40 word
# texts ran as fast at costs of 1024 and 3072 and slower at 6144 and 12288
# (default encoder, 1 BLAS thread)
GROUP_COST = 3072


@dataclass
class EncoderConfig:
    num_layers: int = 4
    hidden_dim: int = 64
    num_heads: int = 4
    ffn_dim: int = 256
    max_seq_len: int = 32
    dropout_p: float = 0.1

    def __post_init__(self):
        if self.num_heads < 1 or self.hidden_dim < 1 or self.hidden_dim % self.num_heads:
            raise ValueError("hidden_dim must be a positive multiple of num_heads >= 1")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if self.ffn_dim < 1:
            raise ValueError("ffn_dim must be >= 1")
        if self.max_seq_len < 2:
            raise ValueError("max_seq_len must be >= 2 (CLS + one token)")


class Tokenizer:
    """Whitespace vocabulary with reserved CLS/PAD/UNK ids."""

    def __init__(self, vocab: dict[str, int]):
        self.vocab = dict(vocab)

    @classmethod
    def from_texts(cls, texts) -> "Tokenizer":
        counts = Counter(w for t in texts for w in t.split())
        words = sorted(counts, key=lambda w: (-counts[w], w))
        return cls({w: _NUM_RESERVED + i for i, w in enumerate(words)})

    @property
    def vocab_size(self) -> int:
        return _NUM_RESERVED + len(self.vocab)

    def encode(self, text: str, max_seq_len: int) -> list[int]:
        """CLS followed by the ids of the text's whitespace-split words, an
        unknown word as UNK_ID. Only the first ``max_seq_len - 1`` words are
        kept: longer texts are truncated to ``max_seq_len`` tokens."""
        if not text.strip():
            raise ValueError("cannot tokenize empty text")
        return [CLS_ID] + [self.vocab.get(w, UNK_ID) for w in text.split()[:max_seq_len - 1]]


def init_encoder_params(config: EncoderConfig, vocab_size: int,
                        rng: Rng) -> dict[str, np.ndarray]:
    """Seeded symmetric-uniform fan-in initialization of all encoder arrays;
    the token table has one row per id of a `vocab_size` vocabulary."""
    d, f = config.hidden_dim, config.ffn_dim
    gen = rng.child("encoder_init").generator()
    params = {"token_emb": uniform_init(gen, (vocab_size, d), d),
              "pos_emb": uniform_init(gen, (config.max_seq_len, d), d)}
    for i in range(config.num_layers):
        p = f"layer{i}."
        params[p + "ln1_g"] = np.ones(d)
        params[p + "ln1_b"] = np.zeros(d)
        for name in ("attn_q", "attn_k", "attn_v", "attn_o"):
            params[p + name] = uniform_init(gen, (d, d), d)
        params[p + "ln2_g"] = np.ones(d)
        params[p + "ln2_b"] = np.zeros(d)
        params[p + "ffn_w1"] = uniform_init(gen, (d, f), d)
        params[p + "ffn_b1"] = np.zeros(f)
        params[p + "ffn_w2"] = uniform_init(gen, (f, d), f)
        params[p + "ffn_b2"] = np.zeros(d)
    return params


def length_groups(lengths: np.ndarray) -> np.ndarray:
    """The bounds of a call's length groups in its lists sorted by length:
    group g is sorted lists bounds[g]:bounds[g + 1], padded to the longest.
    A group is cut where that saves the most padded score entries, for as
    long as the saving exceeds ``GROUP_COST``; [0, B] is one group. The
    bounds depend only on the multiset of lengths, and a cut never parts two
    lists of one length."""
    sq = np.sort(lengths) ** 2
    bounds, todo = [0, sq.size], [(0, sq.size)]
    while todo:
        lo, hi = todo.pop()
        # a cut before sorted list i + 1 pads lists lo..i to sq[i], not sq[hi - 1]
        saved = np.arange(1, hi - lo) * (sq[hi - 1] - sq[lo:hi - 1])
        if saved.size and saved.max() > GROUP_COST:
            cut = lo + 1 + int(saved.argmax())
            bounds.append(cut)
            todo += [(lo, cut), (cut, hi)]
    return np.sort(bounds)


class Encoder:
    """Forward pass from batches of token ids to (B, N, 2, d) layer stacks."""

    def __init__(self, config: EncoderConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    def encode(self, token_lists, rngs: list[Rng] | None = None) -> Tensor:
        """(B, N, 2, d) layer stacks of B token lists in one packed forward pass.

        A list is CLS followed by integer vocabulary or UNK ids; CLS_ID or
        PAD_ID after the first position is refused. Every per-token op
        (embedding sum, layer norms, projections, FFN, dropout, residuals)
        runs on the ``(n, d)`` packed rows of the n tokens, in list order.
        Only each layer's attention core runs padded: the rows are scattered
        to ``(B, T, ·)``, where T is the longest list, and gathered back, and
        attention never reads a padded slot. CLS is each list's first row;
        AVG averages the rows after it. Given ``rngs``, dropout is on: list b
        draws its ``(T_b, d)`` masks from ``rngs[b]``, so a row does not
        depend on its batch. The pass records a tape exactly when the
        parameters require grad.
        """
        cfg = self.config
        token_lists = list(token_lists)
        if not token_lists:
            raise ValueError("no token sequences to encode")
        if rngs is not None and len(rngs) != len(token_lists):
            raise ValueError("training needs one rng per token sequence for dropout")
        lengths = np.fromiter(map(len, token_lists), dtype=np.int64, count=len(token_lists))
        B, T = len(token_lists), int(lengths.max())
        if T > cfg.max_seq_len:
            raise ValueError(f"token sequence longer than max_seq_len={cfg.max_seq_len}")
        # the (B, T) slots of the packed rows; row r is token pos[r] of list seq[r]
        real = np.arange(T) < lengths[:, None]
        seq, pos = np.nonzero(real)
        starts = np.flatnonzero(pos == 0)
        flat = np.concatenate(token_lists)
        if lengths.min() == 0 or np.any(flat[starts] != CLS_ID):
            raise ValueError("token sequence must start with CLS")
        if not np.issubdtype(flat.dtype, np.integer):
            raise ValueError(f"token ids must be integers, got {flat.dtype}")
        if flat.min() < 0 or flat.max() >= self.params["token_emb"].shape[0]:
            raise ValueError("token id out of vocabulary range")
        after_cls = np.flatnonzero((pos > 0) & (flat < UNK_ID))
        if after_cls.size:
            r = after_cls[0]
            raise ValueError(f"list {seq[r]} has id {flat[r]} at position {pos[r]}: after CLS "
                             f"a list holds UNK_ID ({UNK_ID}) or vocabulary ids, not CLS_ID "
                             f"({CLS_ID}) or PAD_ID ({PAD_ID})")
        # AVG is one (B, n) averaging matrix times the rows: a list averages
        # its rows after CLS, or its CLS row if it has no other
        content = pos > 0
        content[starts[lengths == 1]] = True
        avg = np.zeros((B, seq.size))
        avg[seq[content], np.flatnonzero(content)] = 1.0
        avg = Tensor(avg / avg.sum(axis=1, keepdims=True))

        p = self.params
        masks = self._dropout_masks(rngs, lengths)
        x = p["token_emb"][flat] + p["pos_emb"][pos]
        x = self._dropout(x, masks, 0)

        # additive mask keeping every head's attention off padded slots, per row
        key_mask = np.where(real, 0.0, -1e9)[:, None, None, :]

        layers = []
        for i in range(cfg.num_layers):
            pre = f"layer{i}."
            a_in = x.layer_norm(p[pre + "ln1_g"], p[pre + "ln1_b"])
            attn = self._attention(a_in, p, pre, real, key_mask)
            x = x + self._dropout(attn, masks, 1 + 2 * i)
            f_in = x.layer_norm(p[pre + "ln2_g"], p[pre + "ln2_b"])
            hidden = (f_in @ p[pre + "ffn_w1"] + p[pre + "ffn_b1"]).tanh()
            ffn = hidden @ p[pre + "ffn_w2"] + p[pre + "ffn_b2"]
            x = x + self._dropout(ffn, masks, 2 + 2 * i)
            layers += [x[starts], avg @ x]
        return Tensor.concat(layers, axis=1).reshape(B, cfg.num_layers, 2, cfg.hidden_dim)

    def encode_texts(self, tokenizer: Tokenizer, texts) -> Tensor:
        """(B, N, 2, d) layer stacks of B texts with dropout off.

        The texts' token lists are sorted stably by length and cut into
        length groups (`length_groups`), so no list is padded far past its
        own length. Each group runs as `encode` calls of at most
        ``INFERENCE_CHUNK`` lists, so memory stays bounded however many texts
        there are, and each call's stacks are written at its texts' rows.
        """
        cfg = self.config
        token_lists = [tokenizer.encode(text, cfg.max_seq_len) for text in texts]
        lengths = np.fromiter(map(len, token_lists), dtype=np.int64, count=len(token_lists))
        order, bounds = np.argsort(lengths, kind="stable"), length_groups(lengths)
        pieces = [order[lo:min(lo + INFERENCE_CHUNK, hi)]
                  for start, hi in zip(bounds[:-1], bounds[1:])
                  for lo in range(start, hi, INFERENCE_CHUNK)]
        stacks = np.empty((len(token_lists), cfg.num_layers, 2, cfg.hidden_dim))
        # an empty text list still makes one call, which rejects it
        for piece in pieces or [order]:
            stacks[piece] = self.encode([token_lists[b] for b in piece]).data
        return Tensor(stacks)

    def _attention(self, x: Tensor, p: dict[str, Tensor], prefix: str,
                   real: np.ndarray, key_mask: np.ndarray) -> Tensor:
        """All heads at once: the packed rows' q, k and v come from one
        matmul, `_attention_core` turns them into the heads' packed outputs,
        and one more matmul projects those. The 1/sqrt(dh) score scale
        multiplies the q weights, not the (B, H, T, T) scores (the same bits
        when dh is a power of 4)."""
        H = self.config.num_heads
        dh = x.shape[-1] // H
        w_qkv = Tensor.concat([p[prefix + "attn_q"] * (1.0 / np.sqrt(dh)),
                               p[prefix + "attn_k"], p[prefix + "attn_v"]], axis=1)
        return _attention_core(x @ w_qkv, real, key_mask, H) @ p[prefix + "attn_o"]

    def _dropout_masks(self, rngs, lengths: np.ndarray) -> np.ndarray | None:
        """The call's (1 + 2N, n, d) dropout masks, or None with dropout off:
        mask 0 is the embeddings', 1 + 2i and 2 + 2i layer i's attention and
        FFN outputs'. List b's (T_b, d) rows of the mask tagged ``tag`` hold
        ``dropout_mask((T_b, d), p, rngs[b].child("dropout", tag))``, so a
        row does not depend on its batch; the uniforms of all masks fill one
        buffer, which is thresholded and scaled once."""
        cfg = self.config
        if rngs is None or cfg.dropout_p == 0.0:
            return None
        tags = ["emb"] + [f"{part}{i}" for i in range(cfg.num_layers) for part in ("attn", "ffn")]
        draws = np.empty((len(tags), int(lengths.sum()), cfg.hidden_dim))
        ends = np.cumsum(lengths)
        for rng, lo, hi in zip(rngs, ends - lengths, ends):
            for t, tag in enumerate(tags):
                fill_uniform(draws[t, lo:hi], rng.child("dropout", tag))
        return np.divide(draws >= cfg.dropout_p, 1.0 - cfg.dropout_p, out=draws)

    @staticmethod
    def _dropout(x: Tensor, masks: np.ndarray | None, t: int) -> Tensor:
        """x times the call's mask ``t`` (see `_dropout_masks`), if dropout is on."""
        return x if masks is None else x * Tensor(masks[t])


def _attention_core(qkv: Tensor, real: np.ndarray, key_mask: np.ndarray, H: int) -> Tensor:
    """softmax(q kᵀ + key_mask) v for all heads, as one tape node.

    ``qkv`` holds the packed rows' q, k and v side by side, ``(n, 3d)``; the
    rows are scattered to the ``(B, T)`` slots of ``real``, attention runs on
    the padded ``(B, H, T, dh)`` views, and the heads' outputs are gathered
    back to ``(n, d)`` packed rows. ``key_mask`` (0 at real slots, -1e9 at
    padded ones, shape (B, 1, 1, T)) keeps every row off padded keys. The
    backward is closed-form and writes the q, k and v gradients into one
    buffer, gathered back to rows once. Each product runs on the same
    operand views as in a chain of Tensor scatter, transpose, matmul,
    softmax and gather ops, since numpy's matmul picks its kernel, and so
    its bits, by the operands' memory layout.
    """
    B, T = real.shape
    d = qkv.shape[-1] // 3
    dh = d // H
    slots = np.zeros((B, T, 3 * d))
    slots[real] = qkv.data
    q, k, v = slots.reshape(B, T, 3, H, dh).transpose(2, 0, 3, 1, 4)
    # in place: one (B, H, T, T) array, with the bits of the out-of-place ops
    weights = q @ k.swapaxes(-1, -2)
    weights += key_mask
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    heads = weights @ v
    if not qkv.requires_grad:
        # nothing will run the backward: free the slots and scores before the gather
        del slots, q, k, v, weights
    out = heads.transpose(0, 2, 1, 3)[real].reshape(-1, d)

    def bw(g):
        g_heads = np.zeros_like(heads)
        g_heads.transpose(0, 2, 1, 3)[real] = g.reshape(-1, H, dh)
        # the softmax backward weights * (g - Σ g·weights), in place
        g_scores = g_heads @ v.swapaxes(-1, -2)
        g_scores -= (g_scores * weights).sum(axis=-1, keepdims=True)
        g_scores *= weights
        # every slot of the buffer is written, padded ones too, before the gather
        g_slots = np.empty_like(slots)
        g_q, g_k, g_v = g_slots.reshape(B, T, 3, H, dh).transpose(2, 0, 3, 1, 4)
        g_q[...] = g_scores @ k
        g_k[...] = (q.swapaxes(-1, -2) @ g_scores).swapaxes(-1, -2)
        g_v[...] = weights.swapaxes(-1, -2) @ g_heads
        qkv._accum(g_slots[real])

    return Tensor(out, parents=(qkv,), bw=bw)


@dataclass
class FrozenFeatures:
    """Precomputed layer stacks for a fixed sentence collection.

    Layout: features[sentence] is that sentence's (N, 2, d) layer stack.
    Stacks read from this are constants: no gradients flow to them.
    """

    num_layers: int
    hidden_dim: int
    features: np.ndarray = field(repr=False)  # (m, N, 2, d) float32

    def __post_init__(self):
        # the shape only, no pass over the data: train() reloads the file per call
        n, d, shape = self.num_layers, self.hidden_dim, np.shape(self.features)
        if min(n, d) < 1 or shape[1:] != (n, 2, d):
            raise ValueError(f"frozen features of shape {shape} are not (m, {n}, 2, {d}) "
                             "with N, d >= 1")

    @property
    def num_sentences(self) -> int:
        return self.features.shape[0]

    def stack(self, rows) -> Tensor:
        """Stacks of the given rows: (N, 2, d) for an int, (B, N, 2, d) for B rows."""
        return Tensor(self.features[rows].astype(np.float64))

    @classmethod
    def from_stacks(cls, stacks: Tensor) -> "FrozenFeatures":
        """Store an (m, N, 2, d) batch of layer stacks in float32."""
        _, n, _, d = stacks.shape
        return cls(num_layers=n, hidden_dim=d, features=stacks.data.astype(np.float32))


def save_frozen(features: FrozenFeatures, path) -> None:
    """The (m, N, 2, d) stacks as a `.npy` file of little-endian float32."""
    write_npy(path, np.asarray(features.features, dtype="<f4"))


def load_frozen(path) -> FrozenFeatures:
    data = read_npy(path)
    if data.dtype.str != "<f4" or data.ndim != 4:
        raise ArtifactCorruptError(f"{path}: frozen features are a little-endian float32 "
                                   f"(m, N, 2, d) array, got {data.dtype} of shape {data.shape}")
    return FrozenFeatures(num_layers=data.shape[1], hidden_dim=data.shape[3], features=data)
