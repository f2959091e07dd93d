"""Toy transformer encoder producing per-layer CLS and mean-token vectors.

The encoder exists to exercise the pooler and objectives at desk scale: a
pre-norm residual transformer with learned positional embeddings. It can be
bypassed entirely by precomputed frozen features (see `FrozenFeatures`),
in which case only pooler parameters are trainable.

A layer stack is one Tensor of shape (..., N, 2, d): [..., i, 0] is layer
i's CLS vector h^c and [..., i, 1] its mean-token vector h^a.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .artifact import ArtifactCorruptError, ArtifactVersionError, write_file
from .autodiff import Rng, Tensor, dropout_mask

CLS_ID = 0
PAD_ID = 1
UNK_ID = 2
_NUM_RESERVED = 3

# texts per forward pass outside train_mode
INFERENCE_CHUNK = 64

FROZEN_MAGIC = b"LAPF"
FROZEN_VERSION = 1
_FROZEN_HEADER = 20  # magic + four u32


@dataclass
class EncoderConfig:
    num_layers: int = 4
    hidden_dim: int = 64
    num_heads: int = 4
    ffn_dim: int = 256
    max_seq_len: int = 32
    vocab_size: int = 1000
    dropout_p: float = 0.1

    def __post_init__(self):
        if self.num_heads < 1 or self.hidden_dim % self.num_heads != 0:
            raise ValueError("hidden_dim must be a multiple of num_heads >= 1")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if self.max_seq_len < 2:
            raise ValueError("max_seq_len must be >= 2 (CLS + one token)")


class Tokenizer:
    """Whitespace or byte tokenizer with reserved CLS/PAD/UNK ids."""

    def __init__(self, mode: str = "whitespace", vocab: dict[str, int] | None = None):
        if mode not in ("whitespace", "byte"):
            raise ValueError(f"unknown tokenizer mode {mode!r}")
        self.mode = mode
        self.vocab = dict(vocab) if vocab else {}
        self._inverse = {v: k for k, v in self.vocab.items()}

    @classmethod
    def from_texts(cls, texts, max_vocab: int | None = None) -> "Tokenizer":
        counts: dict[str, int] = {}
        for t in texts:
            for w in t.split():
                counts[w] = counts.get(w, 0) + 1
        words = sorted(counts, key=lambda w: (-counts[w], w))
        if max_vocab is not None:
            words = words[: max_vocab - _NUM_RESERVED]
        vocab = {w: _NUM_RESERVED + i for i, w in enumerate(words)}
        return cls("whitespace", vocab)

    @property
    def vocab_size(self) -> int:
        if self.mode == "byte":
            return _NUM_RESERVED + 256
        return _NUM_RESERVED + len(self.vocab)

    def encode(self, text: str, max_seq_len: int) -> list[int]:
        if not text.strip():
            raise ValueError("cannot tokenize empty text")
        if self.mode == "byte":
            ids = [_NUM_RESERVED + b for b in text.strip().encode("utf-8")]
        else:
            ids = [self.vocab.get(w, UNK_ID) for w in text.split()]
        return ([CLS_ID] + ids)[:max_seq_len]

    def decode(self, ids) -> str:
        if self.mode == "byte":
            return bytes(i - _NUM_RESERVED for i in ids if i >= _NUM_RESERVED).decode(
                "utf-8", errors="replace"
            )
        return " ".join(self._inverse.get(i, "<unk>") for i in ids if i >= _NUM_RESERVED)


def _uniform_init(gen: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(max(1, fan_in))
    return gen.uniform(-bound, bound, size=shape)


def init_encoder_params(config: EncoderConfig, rng: Rng) -> dict[str, Tensor]:
    """Seeded symmetric-uniform fan-in initialization of all encoder tensors."""
    d, f = config.hidden_dim, config.ffn_dim
    gen = rng.child("encoder_init").generator()
    params: dict[str, Tensor] = {
        "token_emb": Tensor(_uniform_init(gen, (config.vocab_size, d), d), requires_grad=True),
        "pos_emb": Tensor(_uniform_init(gen, (config.max_seq_len, d), d), requires_grad=True),
    }
    for i in range(config.num_layers):
        p = f"layer{i}."
        params[p + "ln1_g"] = Tensor(np.ones(d), requires_grad=True)
        params[p + "ln1_b"] = Tensor(np.zeros(d), requires_grad=True)
        for name in ("attn_q", "attn_k", "attn_v", "attn_o"):
            params[p + name] = Tensor(_uniform_init(gen, (d, d), d), requires_grad=True)
        params[p + "ln2_g"] = Tensor(np.ones(d), requires_grad=True)
        params[p + "ln2_b"] = Tensor(np.zeros(d), requires_grad=True)
        params[p + "ffn_w1"] = Tensor(_uniform_init(gen, (d, f), d), requires_grad=True)
        params[p + "ffn_b1"] = Tensor(np.zeros(f), requires_grad=True)
        params[p + "ffn_w2"] = Tensor(_uniform_init(gen, (f, d), f), requires_grad=True)
        params[p + "ffn_b2"] = Tensor(np.zeros(d), requires_grad=True)
    return params


def _layer_norm(x: Tensor, g: Tensor, b: Tensor, eps: float = 1e-6) -> Tensor:
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + eps) ** 0.5 * g + b


class Encoder:
    """Forward pass from batches of token ids to (B, N, 2, d) layer stacks."""

    def __init__(self, config: EncoderConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    def encode(self, token_lists, rngs: list[Rng] | None = None,
               train_mode: bool = False) -> Tensor:
        """(B, N, 2, d) layer stacks of B token lists in one padded forward pass.

        The lists are padded with PAD_ID to the longest one; attention never
        reads a PAD key and the AVG stream averages only non-PAD positions
        after CLS. In train_mode list b draws its dropout masks from
        ``rngs[b]``. Outside train_mode the parameters are read as constants,
        so the pass records no tape and the result requires no grad.
        """
        cfg = self.config
        token_lists = list(token_lists)
        if not token_lists:
            raise ValueError("no token sequences to encode")
        if train_mode and (rngs is None or len(rngs) != len(token_lists)):
            raise ValueError("train_mode requires one rng per token sequence for dropout")
        lengths = np.fromiter(map(len, token_lists), dtype=np.int64, count=len(token_lists))
        B, T = len(token_lists), int(lengths.max())
        if T > cfg.max_seq_len:
            raise ValueError(f"token sequence longer than max_seq_len={cfg.max_seq_len}")
        flat = np.concatenate(token_lists).astype(np.int64)
        if flat.size and (flat.min() < 0 or flat.max() >= cfg.vocab_size):
            raise ValueError("token id out of vocabulary range")
        ids = np.full((B, T), PAD_ID)
        ids[np.arange(T) < lengths[:, None]] = flat
        if lengths.min() == 0 or np.any(ids[:, 0] != CLS_ID):
            raise ValueError("token sequence must start with CLS")
        pad = ids == PAD_ID
        # content positions for the AVG stream: non-pad, excluding CLS; a
        # sequence without any averages its CLS position
        content = ~pad
        content[:, 0] = False
        content[~content.any(axis=1), 0] = True
        # a masked sum times 1/count adds the content rows in the same order
        # as a per-sequence mean, so each row's AVG does not depend on padding
        content_mask = content[:, :, None].astype(np.float64)
        inv_count = 1.0 / content.sum(axis=1, keepdims=True)

        p = self.params if train_mode else {k: Tensor(v.data) for k, v in self.params.items()}
        x = p["token_emb"][ids] + p["pos_emb"][:T]
        x = self._dropout(x, rngs, lengths, train_mode, "emb")

        # additive mask keeping attention off padding keys, per row
        key_mask = np.where(pad, -1e9, 0.0)[:, None, :]

        layers = []
        for i in range(cfg.num_layers):
            pre = f"layer{i}."
            a_in = _layer_norm(x, p[pre + "ln1_g"], p[pre + "ln1_b"])
            attn = self._attention(a_in, p, pre, key_mask)
            x = x + self._dropout(attn, rngs, lengths, train_mode, f"attn{i}")
            f_in = _layer_norm(x, p[pre + "ln2_g"], p[pre + "ln2_b"])
            hidden = (f_in @ p[pre + "ffn_w1"] + p[pre + "ffn_b1"]).tanh()
            ffn = hidden @ p[pre + "ffn_w2"] + p[pre + "ffn_b2"]
            x = x + self._dropout(ffn, rngs, lengths, train_mode, f"ffn{i}")
            layers += [x[:, 0], (x * content_mask).sum(axis=1) * inv_count]
        return Tensor.concat(layers, axis=1).reshape(B, cfg.num_layers, 2, cfg.hidden_dim)

    def encode_texts(self, tokenizer: Tokenizer, texts, rng: Rng | None = None,
                     train_mode: bool = False) -> Tensor:
        """(B, N, 2, d) layer stacks of B texts.

        In train_mode the batch is one forward pass and text b draws its
        dropout masks from ``rng.child(b)``. Outside train_mode the texts are
        encoded in fixed chunks of ``INFERENCE_CHUNK``, so memory stays
        bounded however many texts there are.
        """
        token_lists = [tokenizer.encode(text, self.config.max_seq_len) for text in texts]
        if train_mode:
            rngs = None if rng is None else [rng.child(b) for b in range(len(token_lists))]
            return self.encode(token_lists, rngs, train_mode=True)
        # an empty text list still makes one call, which rejects it
        starts = range(0, max(len(token_lists), 1), INFERENCE_CHUNK)
        return Tensor(np.concatenate(
            [self.encode(token_lists[lo:lo + INFERENCE_CHUNK]).data for lo in starts]))

    def _attention(self, x: Tensor, p: dict[str, Tensor], prefix: str,
                   key_mask: np.ndarray) -> Tensor:
        cfg = self.config
        q = x @ p[prefix + "attn_q"]
        k = x @ p[prefix + "attn_k"]
        v = x @ p[prefix + "attn_v"]
        dh = cfg.hidden_dim // cfg.num_heads
        heads = []
        for h in range(cfg.num_heads):
            sl = slice(h * dh, (h + 1) * dh)
            scores = q[..., sl] @ k[..., sl].T * (1.0 / np.sqrt(dh)) + key_mask
            weights = scores.softmax(axis=-1)
            heads.append(weights @ v[..., sl])
        return Tensor.concat(heads, axis=-1) @ p[prefix + "attn_o"]

    def _dropout(self, x: Tensor, rngs, lengths: np.ndarray, train_mode: bool,
                 tag: str) -> Tensor:
        """Sequence b's (T_b, d) mask from ``rngs[b]``, written into a padded array."""
        if not train_mode or self.config.dropout_p == 0.0:
            return x
        mask = np.zeros(x.shape)
        for b, (rng, n) in enumerate(zip(rngs, lengths)):
            mask[b, :n] = dropout_mask((int(n), x.shape[-1]), self.config.dropout_p,
                                       rng.child("dropout", tag))
        return x * Tensor(mask)


@dataclass
class FrozenFeatures:
    """Precomputed layer stacks for a fixed sentence collection.

    Layout: features[sentence] is that sentence's (N, 2, d) layer stack.
    Stacks read from this are constants: no gradients flow to them.
    """

    num_layers: int
    hidden_dim: int
    features: np.ndarray = field(repr=False)  # (m, N, 2, d) float32

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
    """Magic, then version, m, N and d as little-endian u32, then (m, N, 2, d) f32."""
    data = np.ascontiguousarray(features.features, dtype="<f4")
    header = FROZEN_MAGIC + struct.pack("<IIII", FROZEN_VERSION, data.shape[0],
                                        features.num_layers, features.hidden_dim)
    write_file(path, [header, data])


def load_frozen(path) -> FrozenFeatures:
    with open(path, "rb") as fh:
        head = fh.read(_FROZEN_HEADER)
        if len(head) < _FROZEN_HEADER:
            raise ArtifactCorruptError(f"{path}: frozen-features header truncated")
        version, m, n, d = struct.unpack("<4xIIII", head)
        if head[:4] != FROZEN_MAGIC or version != FROZEN_VERSION:
            raise ArtifactVersionError(f"{path}: magic {head[:4]!r} version {version}, "
                                       f"expected {FROZEN_MAGIC!r} version {FROZEN_VERSION}")
        size, expected = os.fstat(fh.fileno()).st_size, _FROZEN_HEADER + m * n * 2 * d * 4
        if n == 0 or d == 0 or size != expected:
            raise ArtifactCorruptError(f"{path}: {size} bytes, header (N={n}, d={d} > 0) "
                                       f"implies {expected}")
        data = np.empty((m, n, 2, d), dtype="<f4")
        fh.readinto(data)
    return FrozenFeatures(num_layers=n, hidden_dim=d, features=data)
