import re
import struct
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from layer_stacks import trainable
from layerpool import encoder as encoder_module
from layerpool.artifact import ArtifactCorruptError, ArtifactVersionError
from layerpool.autodiff import Rng, Tensor, dropout_mask, grad_check
from layerpool.encoder import (
    CLS_ID,
    INFERENCE_CHUNK,
    PAD_ID,
    UNK_ID,
    Encoder,
    EncoderConfig,
    FrozenFeatures,
    Tokenizer,
    _attention_core,
    _attention_sublayer,
    _ffn_sublayer,
    init_encoder_params,
    length_groups,
    load_frozen,
    save_frozen,
)


def reference_stack(encoder, tokens, rng=None) -> np.ndarray:
    """One token list's (N, 2, d) stack in plain numpy, head by head; AVG
    averages the rows after CLS, or the CLS row alone; given ``rng``, each
    layer's (T, d) dropout masks come from ``rng.child("dropout", tag)``."""
    cfg = encoder.config
    p = {k: t.data for k, t in encoder.params.items()}
    tokens = np.asarray(tokens)
    dh = cfg.hidden_dim // cfg.num_heads

    def dropout(x, tag):
        if rng is None:
            return x
        return x * dropout_mask(x.shape, cfg.dropout_p, rng.child("dropout", tag))

    def layer_norm(x, g, b):
        c = x - x.mean(axis=-1, keepdims=True)
        return c / np.sqrt((c * c).mean(axis=-1, keepdims=True) + 1e-6) * g + b

    content = slice(1, None) if len(tokens) > 1 else slice(None)
    x = dropout(p["token_emb"][tokens] + p["pos_emb"][:len(tokens)], "emb")
    stack = []
    for i in range(cfg.num_layers):
        w = {k[len(f"layer{i}."):]: v for k, v in p.items() if k.startswith(f"layer{i}.")}
        a = layer_norm(x, w["ln1_g"], w["ln1_b"])
        heads = []
        for h in range(cfg.num_heads):
            q, k, v = ((a @ w[n])[:, h * dh:(h + 1) * dh] for n in ("attn_q", "attn_k", "attn_v"))
            scores = q @ k.T / np.sqrt(dh)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            heads.append(e / e.sum(axis=-1, keepdims=True) @ v)
        x = x + dropout(np.concatenate(heads, axis=-1) @ w["attn_o"], f"attn{i}")
        f = layer_norm(x, w["ln2_g"], w["ln2_b"])
        x = x + dropout(np.tanh(f @ w["ffn_w1"] + w["ffn_b1"]) @ w["ffn_w2"] + w["ffn_b2"],
                        f"ffn{i}")
        stack.append([x[0], x[content].mean(axis=0)])
    return np.array(stack)


def scatter(rows, mask):
    """The rows written in order at the True positions of the boolean `mask`,
    zeros elsewhere, as one Tensor op: the inverse of ``x[mask]``, whose gather
    is its backward."""
    out = np.zeros(mask.shape + rows.data.shape[1:])
    out[mask] = rows.data
    return Tensor(out, parents=(rows,), bw=lambda g: rows._accum(g[mask]))


def core_node(a, w_qkv, real, key_mask, H):
    """`_attention_core`'s numpy forward and backward as one Tensor op, with
    the matmul backward of ``a @ w_qkv``."""
    out, backward = _attention_core(a.data, w_qkv.data, real, key_mask, H, True)

    def bw(g):
        g_qkv = backward(g)
        a._accum(g_qkv @ w_qkv.data.T)
        w_qkv._accum(a.data.T @ g_qkv)

    return Tensor(out, parents=(a, w_qkv), bw=bw)


def composite_core(a, w_qkv, real, key_mask, H):
    """The attention core as a chain of Tensor ops: the rows' q, k and v
    from one matmul, scattered to (B, T, 3d), split into (B, H, T, dh)
    views, a masked softmax of q kᵀ times v, and a boolean gather back to
    rows."""
    B, T = real.shape
    d = a.shape[-1]
    dh = d // H
    qkv = scatter(a @ w_qkv, real).reshape(B, T, 3, H, dh).transpose(2, 0, 3, 1, 4)
    q, k, v = qkv[0], qkv[1], qkv[2]
    weights = (q @ k.T + Tensor(key_mask)).softmax(axis=-1)
    return (weights @ v).transpose(0, 2, 1, 3)[real].reshape(-1, d)


def chain_attention(x, p, prefix, real, key_mask, H, mask, core=composite_core):
    """`_attention_sublayer` as the chain of Tensor ops it replaced: layer
    norm, one matmul for q, k and v, the attention core, the output
    projection, dropout and the residual add."""
    dh = x.shape[-1] // H
    w_qkv = Tensor.concat([p[prefix + "attn_q"] * (1.0 / np.sqrt(dh)),
                           p[prefix + "attn_k"], p[prefix + "attn_v"]], axis=1)
    a = x.layer_norm(p[prefix + "ln1_g"], p[prefix + "ln1_b"])
    attn = core(a, w_qkv, real, key_mask, H) @ p[prefix + "attn_o"]
    return x + (attn if mask is None else attn * Tensor(mask))


def chain_ffn(x, p, prefix, mask):
    """`_ffn_sublayer` as the chain of Tensor ops it replaced: layer norm,
    matmul, bias add, tanh, matmul, bias add, dropout and the residual add."""
    f = x.layer_norm(p[prefix + "ln2_g"], p[prefix + "ln2_b"])
    hidden = (f @ p[prefix + "ffn_w1"] + p[prefix + "ffn_b1"]).tanh()
    ffn = hidden @ p[prefix + "ffn_w2"] + p[prefix + "ffn_b2"]
    return x + (ffn if mask is None else ffn * Tensor(mask))


def use_chains(monkeypatch, core=composite_core):
    """Make `Encoder.encode` run both sub-layers as Tensor chains around ``core``."""
    monkeypatch.setattr(encoder_module, "_attention_sublayer",
                        partial(chain_attention, core=core))
    monkeypatch.setattr(encoder_module, "_ffn_sublayer", chain_ffn)


def stacks_and_grads(encoder, token_lists, rngs):
    """An encode's stacks and every parameter's gradient of a fixed weighted sum."""
    for t in encoder.params.values():
        t.grad = None
    out = encoder.encode(token_lists, rngs)
    weights = np.random.default_rng(4).normal(size=out.shape)
    (out * weights).sum().backward()
    return out.data, {k: t.grad for k, t in encoder.params.items()}


@pytest.fixture
def small_config():
    return EncoderConfig(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16,
                         max_seq_len=6, dropout_p=0.1)


@pytest.fixture
def encoder(small_config):
    return Encoder(small_config, trainable(init_encoder_params(small_config, 12, Rng(0))))


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            EncoderConfig(hidden_dim=10, num_heads=4)

    def test_min_seq_len(self):
        with pytest.raises(ValueError):
            EncoderConfig(max_seq_len=1)

    def test_at_least_one_layer(self):
        with pytest.raises(ValueError, match="num_layers"):
            EncoderConfig(num_layers=0)

    @pytest.mark.parametrize("ffn_dim", [0, -4])
    def test_at_least_one_ffn_unit(self, ffn_dim):
        with pytest.raises(ValueError, match="ffn_dim"):
            EncoderConfig(ffn_dim=ffn_dim)


class TestTokenizer:
    def test_whitespace_mapping(self):
        tok = Tokenizer({"a": 3, "b": 4})
        assert tok.encode("a b a", 10) == [CLS_ID, 3, 4, 3]

    def test_unknown_word(self):
        tok = Tokenizer({"a": 3})
        assert tok.encode("a zzz", 10) == [CLS_ID, 3, UNK_ID]

    def test_truncation_keeps_cls(self):
        tok = Tokenizer({"a": 3})
        ids = tok.encode("a a a a a a", 4)
        assert len(ids) == 4 and ids[0] == CLS_ID

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            Tokenizer({}).encode("   ", 10)

    def test_long_texts_keep_their_first_words(self):
        # a text is cut to max_seq_len - 1 words before any lookup
        tok = Tokenizer({f"w{i}": 3 + i for i in range(20)})
        gen = np.random.default_rng(5)
        for n in range(1, 46):
            words = [f"w{i}" for i in gen.integers(0, 24, size=n)]  # w20-w23 unknown
            ids = [CLS_ID] + [tok.vocab.get(w, UNK_ID) for w in words]
            assert tok.encode(" ".join(words), 32) == ids[:32], n

    def test_roundtrip_known_tokens(self):
        # ids follow the reserved ones, by descending count, then alphabetically
        tok = Tokenizer.from_texts(["red green blue", "green red"])
        assert tok.vocab == {"green": 3, "red": 4, "blue": 5}
        assert tok.vocab_size == 6
        assert tok.encode("red green blue pink", 10) == [CLS_ID, 4, 3, 5, UNK_ID]


class TestEncode:
    def test_shape_contract(self, encoder, small_config):
        stack = encoder.encode([[CLS_ID, 3, 4]])
        assert stack.shape == (1, small_config.num_layers, 2, small_config.hidden_dim)

    def test_eval_mode_deterministic(self, encoder):
        a = encoder.encode([[CLS_ID, 3, 4, 5]])
        b = encoder.encode([[CLS_ID, 3, 4, 5]])
        assert np.array_equal(a.data, b.data)

    def test_independent_dropout_streams_differ(self, encoder):
        diffs = 0
        for trial in range(10):
            a = encoder.encode([[CLS_ID, 3, 4]], rngs=[Rng(trial).child("z")])
            b = encoder.encode([[CLS_ID, 3, 4]], rngs=[Rng(trial).child("z2")])
            if not np.array_equal(a.data[0, :, 0], b.data[0, :, 0]):
                diffs += 1
        assert diffs >= 9

    def test_out_of_vocab_rejected(self, encoder):
        with pytest.raises(ValueError, match="vocabulary"):
            encoder.encode([[CLS_ID, 99]])

    def test_ids_checked_against_the_token_table(self, encoder):
        # the fixture's table has 12 rows, for ids 0..11
        encoder.encode([[CLS_ID, 11]])
        with pytest.raises(ValueError, match="vocabulary"):
            encoder.encode([[CLS_ID, 12]])

    def test_no_token_lists_rejected(self, encoder):
        with pytest.raises(ValueError, match="no token sequences"):
            encoder.encode([])

    def test_longer_than_max_seq_len_rejected(self, encoder, small_config):
        encoder.encode([[CLS_ID] + [3] * (small_config.max_seq_len - 1)])
        with pytest.raises(ValueError, match="max_seq_len=6"):
            encoder.encode([[CLS_ID], [CLS_ID] + [3] * small_config.max_seq_len])

    def test_must_start_with_cls(self, encoder):
        with pytest.raises(ValueError, match="CLS"):
            encoder.encode([[3, 4]])
        with pytest.raises(ValueError, match="CLS"):  # numpy makes [] a float array
            encoder.encode([[CLS_ID, 3], []])

    @pytest.mark.parametrize("tokens", [[CLS_ID, 3, PAD_ID, 4], [CLS_ID, 3, PAD_ID]],
                             ids=["interior", "trailing"])
    def test_pad_id_is_refused(self, encoder, tokens):
        # the tokenizer never emits PAD_ID: a list is CLS then vocabulary or UNK ids
        with pytest.raises(ValueError, match="PAD_ID"):
            encoder.encode([[CLS_ID, 5], tokens])

    def test_interior_cls_is_refused(self, encoder):
        # CLS marks a list's first position; the tokenizer never emits it after
        with pytest.raises(ValueError, match=re.escape("list 1 has id 0 at position 2")):
            encoder.encode([[CLS_ID, 5], [CLS_ID, 3, CLS_ID, 4]])

    @pytest.mark.parametrize("tokens", [[CLS_ID, 3.7], [CLS_ID, 3.0], [0.0, 3.0]],
                             ids=["fraction", "whole-float", "float-cls"])
    def test_float_ids_are_refused(self, encoder, tokens):
        # an index cast would silently read [CLS_ID, 3.7] as [CLS_ID, 3]
        with pytest.raises(ValueError, match="integers, got float64"):
            encoder.encode([tokens])

    def test_sentences_independent_of_batch_order(self, encoder):
        # encoding is per-sentence, so any interleaving gives identical stacks
        s1 = encoder.encode([[CLS_ID, 3, 4]])
        _ = encoder.encode([[CLS_ID, 5]])
        s1_again = encoder.encode([[CLS_ID, 3, 4]])
        assert np.array_equal(s1.data, s1_again.data)


class TestBatchedEncode:
    @pytest.fixture
    def long_encoder(self):
        config = EncoderConfig(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16,
                               max_seq_len=41, dropout_p=0.1)
        return Encoder(config, trainable(init_encoder_params(config, 30, Rng(6))))

    def test_rows_match_singleton_encodes(self, long_encoder):
        # 1-40 words, so rows are padded across numpy's 8-accumulator summation
        # boundary; values and parameter gradients must still match each row
        # encoded alone, gradients relative to max(1, |g|)
        gen = np.random.default_rng(7)
        token_lists = [[CLS_ID] + list(gen.integers(3, 30, size=n))
                       for n in (1, 3, 7, 8, 9, 16, 23, 40)]
        token_lists.append([CLS_ID, 5, 6, UNK_ID, 7, 8, UNK_ID, 9])
        rngs = [Rng(8).child("a", b) for b in range(len(token_lists))]
        weights = gen.normal(size=(len(token_lists), 2, 2, 8))
        params = long_encoder.params

        def grads(loss):
            for t in params.values():
                t.grad = None
            loss.backward()
            return {k: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                    for k, t in params.items()}

        batch = long_encoder.encode(token_lists, rngs)
        batch_grads = grads((batch * weights).sum())
        singles = [long_encoder.encode([tokens], [rng])
                   for tokens, rng in zip(token_lists, rngs)]
        single_grads = grads(sum((s[0] * w).sum() for s, w in zip(singles, weights)))
        for b, single in enumerate(singles):
            assert np.max(np.abs(batch.data[b] - single.data[0])) < 1e-12
        for k in params:
            rel = np.abs(batch_grads[k] - single_grads[k]) / np.maximum(
                1.0, np.abs(batch_grads[k]))
            assert rel.max() < 1e-12, k

    @pytest.fixture
    def long_texts(self):
        # 164 shuffled texts of 1-40 words (2-41 tokens): the 90 of 1-3 words
        # form one length group of more than INFERENCE_CHUNK lists
        gen = np.random.default_rng(12)
        tok = Tokenizer({f"w{i}": 3 + i for i in range(27)})
        words = np.concatenate([np.tile(np.arange(1, 4), 30), np.tile(np.arange(4, 41), 2)])
        texts = [" ".join(f"w{w}" for w in gen.integers(0, 27, size=n))
                 for n in gen.permutation(words)]
        return tok, texts

    def test_inference_runs_sorted_group_pieces(self, long_encoder, long_texts):
        # other batchings pad the longer texts' rows differently and change their
        # low bits, so the bits pin the batching
        tok, texts = long_texts
        whole = long_encoder.encode_texts(tok, texts).data
        token_lists = [tok.encode(t, 41) for t in texts]
        lengths = np.array([len(t) for t in token_lists])
        order, bounds = np.argsort(lengths, kind="stable"), length_groups(lengths)
        assert len(bounds) > 3 and np.diff(bounds).max() > INFERENCE_CHUNK
        expected = np.full_like(whole, np.nan)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            for start in range(lo, hi, INFERENCE_CHUNK):
                piece = order[start:min(start + INFERENCE_CHUNK, hi)]
                expected[piece] = long_encoder.encode([token_lists[b] for b in piece]).data
        assert np.array_equal(whole, expected)

    def test_inference_rows_match_singleton_encodes(self, long_encoder, long_texts):
        # the texts run sorted and grouped, yet row i is text i's stack
        tok, texts = long_texts
        whole = long_encoder.encode_texts(tok, texts).data
        assert len(length_groups(np.array([len(tok.encode(t, 41)) for t in texts]))) > 2
        for i, text in enumerate(texts):
            single = long_encoder.encode([tok.encode(text, 41)]).data[0]
            assert np.max(np.abs(whole[i] - single)) <= 1e-13

    @pytest.mark.parametrize("dropout", [False, True])
    def test_matches_a_per_sequence_reference(self, long_encoder, dropout):
        # lists of 1 to 10 tokens: each is computed as if it were alone
        token_lists = [[CLS_ID, 5, 6, UNK_ID, 7, 8], [CLS_ID], [CLS_ID, UNK_ID, 9],
                       [CLS_ID, 3, 4, 5, 6, 7, 8, 9, 10, 11], [CLS_ID, 12, UNK_ID]]
        rngs = [Rng(9).child(b) for b in range(len(token_lists))] if dropout else None
        batch = long_encoder.encode(token_lists, rngs)
        for b, tokens in enumerate(token_lists):
            ref = reference_stack(long_encoder, tokens, rngs[b] if dropout else None)
            assert np.max(np.abs(batch.data[b] - ref)) < 1e-12

    def test_per_token_matmuls_see_only_real_tokens(self, long_encoder, monkeypatch):
        # lists of 1, 3 and 9 tokens fill 3 x 9 = 27 padded slots; both
        # sub-layer nodes, whose projection and FFN matmuls run on the rows
        # they are given, and the attention core's q, k and v matmul must
        # see the 13 tokens only
        cfg, seen = long_encoder.config, []

        def recording(fn):
            def wrapper(rows, *args):
                seen.append(rows.shape)
                return fn(rows, *args)
            return wrapper

        for name in ("_attention_sublayer", "_ffn_sublayer", "_attention_core"):
            monkeypatch.setattr(encoder_module, name, recording(getattr(encoder_module, name)))
        token_lists = [[CLS_ID], [CLS_ID, 3, 4], [CLS_ID] + list(range(3, 11))]
        long_encoder.encode(token_lists, [Rng(2).child(b) for b in range(3)])
        assert len(seen) == 3 * cfg.num_layers
        assert set(seen) == {(13, cfg.hidden_dim)}

    @pytest.fixture
    def long_chunk(self):
        # 64 lists of 1-41 tokens, every length but one twice
        gen = np.random.default_rng(11)
        lengths = gen.permutation(np.tile(np.arange(1, 42), 2))[:INFERENCE_CHUNK]
        return [[CLS_ID] + list(gen.integers(UNK_ID, 30, size=n - 1)) for n in lengths]

    def test_long_chunk_runs_length_groups(self, long_encoder, long_texts, monkeypatch):
        # encode_texts makes one encode call per piece of a length group, each
        # padded to its own longest list, so its attention cores see fewer
        # score entries than the (B, H, T, T) of one call over the same lists
        cfg, encode = long_encoder.config, Encoder.encode
        calls, scores = [], []

        def recording(self, token_lists, rngs=None):
            calls.append(sorted(map(len, token_lists)))
            return encode(self, token_lists, rngs)

        def counting(a, w_qkv, real, key_mask, H, keep):
            scores.append((real.shape[0], H, real.shape[1], real.shape[1]))
            return _attention_core(a, w_qkv, real, key_mask, H, keep)

        tok, texts = long_texts
        lengths = np.array([len(tok.encode(t, 41)) for t in texts])
        monkeypatch.setattr(Encoder, "encode", recording)
        monkeypatch.setattr(encoder_module, "_attention_core", counting)
        long_encoder.encode_texts(tok, texts)
        bounds, ordered = length_groups(lengths), np.sort(lengths)
        assert len(bounds) > 2
        assert calls == [list(ordered[lo:min(lo + INFERENCE_CHUNK, hi)])
                         for start, hi in zip(bounds[:-1], bounds[1:])
                         for lo in range(start, hi, INFERENCE_CHUNK)]
        assert len(scores) == len(calls) * cfg.num_layers
        B, T, H = len(lengths), lengths.max(), cfg.num_heads
        assert sum(np.prod(s) for s in scores) < cfg.num_layers * B * H * T * T

    def test_attention_core_gradient(self):
        # lists of 1, 4, 6 (max_seq_len) and 2 tokens; d = 8 in 2 heads
        lengths = np.array([1, 4, 6, 2])
        real = np.arange(6) < lengths[:, None]
        key_mask = np.where(real, 0.0, -1e9)[:, None, None, :]
        gen = np.random.default_rng(8)
        a, w_qkv = gen.normal(size=(lengths.sum(), 8)), gen.normal(size=(8, 24))
        weights = gen.normal(size=(lengths.sum(), 8))
        err = grad_check(lambda ts: (core_node(ts[0], ts[1], real, key_mask, 2) * weights).sum(),
                         [a, w_qkv])
        assert err < 1e-6

    @staticmethod
    def _bit_pin_case(heads):
        # an encoder of d = 16 and lists of 1 to 41 (max_seq_len) tokens
        cfg = EncoderConfig(num_layers=2, hidden_dim=16, num_heads=heads, ffn_dim=16,
                            max_seq_len=41, dropout_p=0.1)
        encoder = Encoder(cfg, trainable(init_encoder_params(cfg, 30, Rng(6))))
        gen = np.random.default_rng(9)
        token_lists = [[CLS_ID] + list(gen.integers(UNK_ID, 30, size=n - 1))
                       for n in (5, 1, 41, 17, 2, 41, 8)]
        return encoder, token_lists, [Rng(10).child(b) for b in range(len(token_lists))]

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_attention_core_matches_the_composite_bit_for_bit(self, heads, monkeypatch):
        # stacks and every parameter gradient, dropout on, both sub-layers as
        # Tensor chains: the core's products run on the same operand views as
        # the composite's, so every bit is the same
        encoder, token_lists, rngs = self._bit_pin_case(heads)
        use_chains(monkeypatch, core_node)
        fused, fused_grads = stacks_and_grads(encoder, token_lists, rngs)
        use_chains(monkeypatch, composite_core)
        chain, chain_grads = stacks_and_grads(encoder, token_lists, rngs)
        assert np.array_equal(fused, chain)
        for k in chain_grads:
            assert np.array_equal(fused_grads[k], chain_grads[k]), k

    @pytest.mark.parametrize("dropout", [False, True], ids=["no-dropout", "dropout"])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_sublayer_nodes_match_the_chains_bit_for_bit(self, heads, dropout, monkeypatch):
        # stacks and every parameter gradient against both sub-layers as
        # Tensor chains: the nodes' products run on the chains' operand
        # views, and x's gradient adds the residual's share and then the
        # layer norm's, after those of the layer's stack rows, as the chain's
        # add and layer-norm nodes do
        encoder, token_lists, rngs = self._bit_pin_case(heads)
        rngs = rngs if dropout else None
        fused, fused_grads = stacks_and_grads(encoder, token_lists, rngs)
        use_chains(monkeypatch)
        chain, chain_grads = stacks_and_grads(encoder, token_lists, rngs)
        assert np.array_equal(fused, chain)
        for k in chain_grads:
            assert np.array_equal(fused_grads[k], chain_grads[k]), k

    def test_inference_matches_the_chains_bit_for_bit(self, monkeypatch):
        # constant parameters, as Checkpoint.encoder() passes them, so the
        # nodes run in place; texts of 1-40 words as serve embeds them, and
        # of 3-14 words as STS pairs are, at the default widths
        cfg = EncoderConfig(num_layers=2, hidden_dim=64, num_heads=4, ffn_dim=256,
                            max_seq_len=41)
        arrays = init_encoder_params(cfg, 40, Rng(3))
        encoder = Encoder(cfg, {k: Tensor(v) for k, v in arrays.items()})
        tok = Tokenizer({f"w{i}": 3 + i for i in range(36)})
        gen = np.random.default_rng(13)
        texts = [" ".join(f"w{w}" for w in gen.integers(0, 40, size=n))
                 for n in np.concatenate([gen.permutation(np.arange(1, 41)),
                                          gen.integers(3, 15, size=60)])]
        nodes = encoder.encode_texts(tok, texts).data
        use_chains(monkeypatch)
        assert np.array_equal(nodes, encoder.encode_texts(tok, texts).data)

    @pytest.mark.parametrize("dropout", [False, True], ids=["no-dropout", "dropout"])
    def test_sublayer_nodes_pass_grad_check(self, dropout):
        # lists of 3, 1 and 2 tokens; d = 4 in 2 heads, ffn_dim 6; every
        # parameter drawn away from its initial ones and zeros
        cfg = EncoderConfig(num_layers=1, hidden_dim=4, num_heads=2, ffn_dim=6, max_seq_len=3)
        gen = np.random.default_rng(14)
        params = {k: gen.normal(size=v.shape)
                  for k, v in init_encoder_params(cfg, 5, Rng(0)).items()}
        lengths = np.array([3, 1, 2])
        real = np.arange(3) < lengths[:, None]
        key_mask = np.where(real, 0.0, -1e9)[:, None, None, :]
        x, weights = gen.normal(size=(6, 4)), gen.normal(size=(6, 4))
        mask = dropout_mask((6, 4), 0.3, Rng(15)) if dropout else None
        attention = [f"layer0.{n}" for n in ("ln1_g", "ln1_b", "attn_q", "attn_k", "attn_v",
                                             "attn_o")]
        ffn = [f"layer0.{n}" for n in ("ln2_g", "ln2_b", "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2")]
        nodes = [
            (attention, lambda ts, p: _attention_sublayer(ts[0], p, "layer0.", real, key_mask,
                                                          2, mask)),
            (ffn, lambda ts, p: _ffn_sublayer(ts[0], p, "layer0.", mask)),
        ]
        for names, node in nodes:
            def f(ts):
                return (node(ts, dict(zip(names, ts[1:]))) * weights).sum()

            assert grad_check(f, [x] + [params[n] for n in names]) < 1e-6, names[0]

    def test_inference_peak_memory(self):
        # one inference call of 64 lists of 9-24 tokens at the default widths:
        # the nodes keep no intermediates and work in place, so the traced
        # peak, whose largest arrays are the attention core's padded slots
        # and scores, stays under 3.2 (n, ffn_dim) float64 arrays (about 2.9
        # here). Keeping the layer norms' outputs apart from x̂ and the
        # core's slots and scores through its gather reads about 3.4, and
        # the per-op Tensor chains about 5.4
        cfg = EncoderConfig(num_layers=4, hidden_dim=64, num_heads=4, ffn_dim=256)
        arrays = init_encoder_params(cfg, 40, Rng(1))
        encoder = Encoder(cfg, {k: Tensor(v) for k, v in arrays.items()})
        gen = np.random.default_rng(11)
        lengths = np.repeat(np.arange(9, 25), 4)
        token_lists = [[CLS_ID] + list(gen.integers(UNK_ID, 40, size=n - 1)) for n in lengths]
        encoder.encode(token_lists)
        tracemalloc.start()
        try:
            encoder.encode(token_lists)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.2 * lengths.sum() * cfg.ffn_dim * 8

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_call_masks_are_the_per_list_masks(self, long_encoder, p):
        # one buffer per call, yet list b's rows of mask `tag` are exactly
        # dropout_mask((T_b, d), p, rngs[b].child("dropout", tag))
        cfg = replace(long_encoder.config, dropout_p=p)
        encoder = Encoder(cfg, long_encoder.params)
        lengths = np.array([3, 1, 41, 2, 41, 1, 7])
        rngs = [Rng(11).child("step", b % 3, "view", b) for b in range(len(lengths))]
        open_rng = Rng(11).child("open")
        gen = open_rng.generator()
        head = gen.random(5)
        masks = encoder._dropout_masks(rngs, lengths)
        tail = gen.random(5)
        tags = ["emb"] + [f"{part}{i}" for i in range(cfg.num_layers) for part in ("attn", "ffn")]
        assert masks.shape == (len(tags), lengths.sum(), cfg.hidden_dim)
        for t, tag in enumerate(tags):
            expected = np.concatenate([dropout_mask((n, cfg.hidden_dim), p,
                                                    rng.child("dropout", tag))
                                       for rng, n in zip(rngs, lengths)])
            assert np.array_equal(masks[t], expected), tag
        assert np.array_equal(np.concatenate([head, tail]), open_rng.generator().random(10))

    def test_grouped_rows_match_singleton_encodes(self, long_encoder, long_chunk):
        batch = long_encoder.encode(long_chunk).data
        for b, tokens in enumerate(long_chunk):
            assert np.max(np.abs(batch[b] - long_encoder.encode([tokens]).data[0])) <= 1e-13

    def test_grouped_call_names_the_callers_list(self, long_encoder, long_chunk):
        # in a long call of mixed lengths, a refusal names the list as passed
        b = next(b for b, tokens in enumerate(long_chunk) if len(tokens) == 20)
        long_chunk[b][7] = PAD_ID
        with pytest.raises(ValueError, match=re.escape(f"list {b} has id 1 at position 7")):
            long_encoder.encode(long_chunk)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 64), min_size=1, max_size=96), st.randoms())
    def test_groups_depend_only_on_the_lengths(self, lengths, random):
        bounds = length_groups(np.array(lengths))
        shuffled = list(lengths)
        random.shuffle(shuffled)
        assert np.array_equal(length_groups(np.array(shuffled)), bounds)
        ordered = np.sort(lengths)
        assert bounds[0] == 0 and bounds[-1] == len(lengths) and np.all(np.diff(bounds) > 0)
        # a cut never parts two lists of one length
        assert all(ordered[c - 1] < ordered[c] for c in bounds[1:-1])

    def test_uniform_or_short_lists_take_one_group(self):
        assert list(length_groups(np.full(256, 41))) == [0, 256]
        assert list(length_groups(np.array([3, 1, 2]))) == [0, 3]

    def test_inference_records_no_tape(self, small_config):
        # constant parameters, as Checkpoint.encoder() passes them
        arrays = init_encoder_params(small_config, 12, Rng(0))
        encoder = Encoder(small_config, {k: Tensor(v) for k, v in arrays.items()})
        out = encoder.encode([[CLS_ID, 3, 4], [CLS_ID, 5]])
        assert out.shape == (2, 2, 2, 8)
        assert not out.requires_grad and out._parents == () and out._bw is None
        out.sum().backward()
        assert all(t.grad is None for t in encoder.params.values())

    def test_training_needs_one_rng_per_sequence(self, encoder):
        with pytest.raises(ValueError, match="rng"):
            encoder.encode([[CLS_ID, 3], [CLS_ID, 4]], [Rng(0)])


class TestInitParams:
    def test_same_seed_identical(self, small_config):
        a = init_encoder_params(small_config, 12, Rng(4))
        b = init_encoder_params(small_config, 12, Rng(4))
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_different_seed_differs(self, small_config):
        a = init_encoder_params(small_config, 12, Rng(4))
        b = init_encoder_params(small_config, 12, Rng(5))
        assert any(not np.array_equal(a[k], b[k]) for k in a)

    def test_within_init_bound(self, small_config):
        params = init_encoder_params(small_config, 12, Rng(0))
        for a in params.values():
            assert np.all(np.isfinite(a))
            assert np.all(np.abs(a) <= 1.0)


class TestFrozenFeatures:
    def _features(self, m=3, n=2, d=4):
        arr = np.arange(m * n * 2 * d, dtype=np.float32).reshape(m, n, 2, d)
        return FrozenFeatures(num_layers=n, hidden_dim=d, features=arr)

    def test_roundtrip(self, tmp_path):
        feats = self._features()
        path = tmp_path / "f.npy"
        save_frozen(feats, path)
        loaded = load_frozen(path)
        assert loaded.num_layers == 2 and loaded.hidden_dim == 4
        assert np.array_equal(loaded.features, feats.features)

    @pytest.mark.parametrize("n, d, shape", [
        (8, 32, (10, 4, 2, 64)),  # same byte count as (10, 8, 2, 32)
        (2, 4, (3, 2, 4)),
        (2, 4, (3, 2, 1, 4)),
        (0, 4, (3, 0, 2, 4)),
        (2, 0, (3, 2, 2, 0)),
    ], ids=["other-n-d", "3-d", "one-stream", "zero-layers", "zero-dim"])
    def test_header_must_match_the_array(self, n, d, shape):
        with pytest.raises(ValueError, match="frozen features of shape"):
            FrozenFeatures(num_layers=n, hidden_dim=d, features=np.zeros(shape, np.float32))

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "f.npy"
        save_frozen(self._features(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(ArtifactCorruptError):
            load_frozen(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.npy"
        save_frozen(self._features(), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactVersionError):
            load_frozen(path)

    def test_file_is_the_npy_of_its_array(self, tmp_path):
        feats = self._features()
        save_frozen(feats, tmp_path / "f.npy")
        assert np.array_equal(np.load(tmp_path / "f.npy"), feats.features)
        # a dump of any encoder's layers trains as it is
        stacks = np.random.default_rng(0).normal(size=(5, 3, 2, 7)).astype("<f4")
        np.save(tmp_path / "dump.npy", stacks)
        loaded = load_frozen(tmp_path / "dump.npy")
        assert (loaded.num_layers, loaded.hidden_dim) == (3, 7)
        assert np.array_equal(loaded.features, stacks)

    def test_old_lapf_file_is_a_version_error(self, tmp_path):
        # the single-file layout before .npy: magic, version, m, N, d, f32 stacks
        data = self._features().features
        path = tmp_path / "f.lapf"
        path.write_bytes(b"LAPF" + struct.pack("<IIII", 1, 3, 2, 4) + data.tobytes())
        with pytest.raises(ArtifactVersionError, match="not a .npy file"):
            load_frozen(path)

    @pytest.mark.parametrize("array, named", [
        (np.zeros((3, 2, 2, 4)), "float64"),
        (np.zeros((3, 2, 4), np.float32), "(3, 2, 4)"),
        (np.zeros((3, 2, 2, 4), ">f4"), ">f4"),
    ], ids=["float64", "3-d", "big-endian"])
    def test_other_dtype_or_rank_is_typed(self, tmp_path, array, named):
        np.save(tmp_path / "f.npy", array)
        with pytest.raises(ArtifactCorruptError, match=re.escape(named)):
            load_frozen(tmp_path / "f.npy")

    def test_shape_rule_is_frozen_features_own(self, tmp_path):
        np.save(tmp_path / "f.npy", np.zeros((3, 2, 1, 4), np.float32))
        with pytest.raises(ValueError, match="frozen features of shape"):
            load_frozen(tmp_path / "f.npy")

    def test_stack_layout(self):
        feats = self._features(m=2, n=2, d=4)
        stack = feats.stack(1)
        assert np.array_equal(stack.data[0, 0], feats.features[1, 0, 0])
        assert np.array_equal(stack.data[1, 1], feats.features[1, 1, 1])
        assert not stack.requires_grad
        batch = feats.stack(np.array([1, 0, 1]))
        assert batch.data.dtype == np.float64
        assert np.array_equal(batch.data, feats.features[[1, 0, 1]])
