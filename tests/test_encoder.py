import numpy as np
import pytest

from layerpool.artifact import ArtifactCorruptError, ArtifactVersionError
from layerpool.autodiff import Rng
from layerpool.encoder import (
    CLS_ID,
    INFERENCE_CHUNK,
    PAD_ID,
    UNK_ID,
    Encoder,
    EncoderConfig,
    FrozenFeatures,
    Tokenizer,
    init_encoder_params,
    load_frozen,
    save_frozen,
)


@pytest.fixture
def small_config():
    return EncoderConfig(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16,
                         max_seq_len=6, vocab_size=12, dropout_p=0.1)


@pytest.fixture
def encoder(small_config):
    return Encoder(small_config, init_encoder_params(small_config, Rng(0)))


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            EncoderConfig(hidden_dim=10, num_heads=4)

    def test_min_seq_len(self):
        with pytest.raises(ValueError):
            EncoderConfig(max_seq_len=1)


class TestTokenizer:
    def test_whitespace_mapping(self):
        tok = Tokenizer("whitespace", {"a": 3, "b": 4})
        assert tok.encode("a b a", 10) == [CLS_ID, 3, 4, 3]

    def test_unknown_word(self):
        tok = Tokenizer("whitespace", {"a": 3})
        assert tok.encode("a zzz", 10) == [CLS_ID, 3, UNK_ID]

    def test_truncation_keeps_cls(self):
        tok = Tokenizer("whitespace", {"a": 3})
        ids = tok.encode("a a a a a a", 4)
        assert len(ids) == 4 and ids[0] == CLS_ID

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            Tokenizer("whitespace", {}).encode("   ", 10)

    def test_roundtrip_known_tokens(self):
        tok = Tokenizer.from_texts(["red green blue", "green red"])
        assert tok.decode(tok.encode("red green", 10)) == "red green"

    def test_byte_mode(self):
        tok = Tokenizer("byte")
        ids = tok.encode("hi", 10)
        assert ids[0] == CLS_ID and len(ids) == 3
        assert tok.decode(ids) == "hi"


class TestEncode:
    def test_shape_contract(self, encoder, small_config):
        stack = encoder.encode([[CLS_ID, 3, 4]])
        assert stack.shape == (1, small_config.num_layers, 2, small_config.hidden_dim)

    def test_eval_mode_deterministic(self, encoder):
        a = encoder.encode([[CLS_ID, 3, 4, 5]], train_mode=False)
        b = encoder.encode([[CLS_ID, 3, 4, 5]], train_mode=False)
        assert np.array_equal(a.data, b.data)

    def test_independent_dropout_streams_differ(self, encoder):
        diffs = 0
        for trial in range(10):
            a = encoder.encode([[CLS_ID, 3, 4]], rngs=[Rng(trial).child("z")], train_mode=True)
            b = encoder.encode([[CLS_ID, 3, 4]], rngs=[Rng(trial).child("z2")], train_mode=True)
            if not np.array_equal(a.data[0, :, 0], b.data[0, :, 0]):
                diffs += 1
        assert diffs >= 9

    def test_out_of_vocab_rejected(self, encoder):
        with pytest.raises(ValueError, match="vocabulary"):
            encoder.encode([[CLS_ID, 99]])

    def test_must_start_with_cls(self, encoder):
        with pytest.raises(ValueError, match="CLS"):
            encoder.encode([[3, 4]])

    def test_avg_excludes_padding(self, encoder):
        # pads appended after content must not change h^a or h^c
        plain = encoder.encode([[CLS_ID, 3, 4]])
        padded = encoder.encode([[CLS_ID, 3, 4, PAD_ID, PAD_ID]])
        assert np.allclose(plain.data[0, :, 1], padded.data[0, :, 1], atol=1e-12)
        assert np.allclose(plain.data[0, :, 0], padded.data[0, :, 0], atol=1e-12)

    def test_avg_matches_independent_mean(self, small_config):
        # recompute h^a by re-running and averaging token rows by hand:
        # encode returns per-layer means over content positions, so a
        # sentence of one token must have h_a equal to that token's row.
        params = init_encoder_params(small_config, Rng(1))
        enc = Encoder(small_config, params)
        stack = enc.encode([[CLS_ID, 7]])
        stack2 = enc.encode([[CLS_ID, 7, PAD_ID]])
        assert np.allclose(stack.data[0, :, 1], stack2.data[0, :, 1], atol=1e-12)

    def test_sentences_independent_of_batch_order(self, encoder):
        # encoding is per-sentence, so any interleaving gives identical stacks
        s1 = encoder.encode([[CLS_ID, 3, 4]], train_mode=False)
        _ = encoder.encode([[CLS_ID, 5]], train_mode=False)
        s1_again = encoder.encode([[CLS_ID, 3, 4]], train_mode=False)
        assert np.array_equal(s1.data, s1_again.data)

    def test_encode_texts_keeps_per_sentence_streams(self, encoder):
        tok = Tokenizer("whitespace", {"a": 3, "b": 4, "c": 5})
        texts = ["a b", "c", "b a c"]
        rng = Rng(2).child("a")
        batch = encoder.encode_texts(tok, texts, rng, train_mode=True)
        assert batch.shape == (3, 2, 2, 8)
        for pos, text in enumerate(texts):
            single = encoder.encode([tok.encode(text, 6)], rngs=[rng.child(pos)], train_mode=True)
            assert np.array_equal(batch.data[pos], single.data[0])


class TestBatchedEncode:
    @pytest.fixture
    def long_encoder(self):
        config = EncoderConfig(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16,
                               max_seq_len=41, vocab_size=30, dropout_p=0.1)
        return Encoder(config, init_encoder_params(config, Rng(6)))

    def test_rows_match_singleton_encodes(self, long_encoder):
        # 1-40 words, so rows are padded across numpy's 8-accumulator summation
        # boundary; values and parameter gradients must still match each row
        # encoded alone, gradients relative to max(1, |g|)
        gen = np.random.default_rng(7)
        token_lists = [[CLS_ID] + list(gen.integers(3, 30, size=n))
                       for n in (1, 3, 7, 8, 9, 16, 23, 40)]
        rngs = [Rng(8).child("a", b) for b in range(len(token_lists))]
        weights = gen.normal(size=(len(token_lists), 2, 2, 8))
        params = long_encoder.params

        def grads(loss):
            for t in params.values():
                t.grad = None
            loss.backward()
            return {k: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                    for k, t in params.items()}

        batch = long_encoder.encode(token_lists, rngs, train_mode=True)
        batch_grads = grads((batch * weights).sum())
        singles = [long_encoder.encode([tokens], [rng], train_mode=True)
                   for tokens, rng in zip(token_lists, rngs)]
        single_grads = grads(sum((s[0] * w).sum() for s, w in zip(singles, weights)))
        for b, single in enumerate(singles):
            assert np.max(np.abs(batch.data[b] - single.data[0])) < 1e-12
        for k in params:
            rel = np.abs(batch_grads[k] - single_grads[k]) / np.maximum(
                1.0, np.abs(batch_grads[k]))
            assert rel.max() < 1e-12, k

    def test_inference_runs_fixed_chunks(self, long_encoder):
        # lengths differ between chunks, so any other chunking would pad the
        # rows differently and change their low bits
        tok = Tokenizer("whitespace", {f"w{i}": 3 + i for i in range(27)})
        texts = [" ".join(f"w{(i + j) % 27}" for j in range(1 + (i * 7) % 40))
                 for i in range(130)]
        whole = long_encoder.encode_texts(tok, texts)
        token_lists = [tok.encode(t, 41) for t in texts]
        parts = [long_encoder.encode(token_lists[lo:lo + INFERENCE_CHUNK]).data
                 for lo in range(0, len(texts), INFERENCE_CHUNK)]
        assert np.array_equal(whole.data, np.concatenate(parts))

    def test_inference_records_no_tape(self, encoder):
        out = encoder.encode([[CLS_ID, 3, 4], [CLS_ID, 5]])
        assert out.shape == (2, 2, 2, 8)
        assert not out.requires_grad and out._parents == () and out._bw is None
        out.sum().backward()
        assert all(t.grad is None for t in encoder.params.values())

    def test_train_mode_needs_one_rng_per_sequence(self, encoder):
        with pytest.raises(ValueError, match="rng"):
            encoder.encode([[CLS_ID, 3], [CLS_ID, 4]], [Rng(0)], train_mode=True)


class TestInitParams:
    def test_same_seed_identical(self, small_config):
        a = init_encoder_params(small_config, Rng(4))
        b = init_encoder_params(small_config, Rng(4))
        assert all(np.array_equal(a[k].data, b[k].data) for k in a)

    def test_different_seed_differs(self, small_config):
        a = init_encoder_params(small_config, Rng(4))
        b = init_encoder_params(small_config, Rng(5))
        assert any(not np.array_equal(a[k].data, b[k].data) for k in a)

    def test_within_init_bound(self, small_config):
        params = init_encoder_params(small_config, Rng(0))
        for k, t in params.items():
            assert np.all(np.isfinite(t.data))
            assert np.all(np.abs(t.data) <= 1.0)


class TestFrozenFeatures:
    def _features(self, m=3, n=2, d=4):
        arr = np.arange(m * n * 2 * d, dtype=np.float32).reshape(m, n, 2, d)
        return FrozenFeatures(num_layers=n, hidden_dim=d, features=arr)

    def test_roundtrip(self, tmp_path):
        feats = self._features()
        path = tmp_path / "f.lapf"
        save_frozen(feats, path)
        loaded = load_frozen(path)
        assert loaded.num_layers == 2 and loaded.hidden_dim == 4
        assert np.array_equal(loaded.features, feats.features)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "f.lapf"
        save_frozen(self._features(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(ArtifactCorruptError):
            load_frozen(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.lapf"
        save_frozen(self._features(), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactVersionError):
            load_frozen(path)

    def test_stack_layout(self):
        feats = self._features(m=2, n=2, d=4)
        stack = feats.stack(1)
        assert np.array_equal(stack.data[0, 0], feats.features[1, 0, 0])
        assert np.array_equal(stack.data[1, 1], feats.features[1, 1, 1])
        assert not stack.requires_grad
        batch = feats.stack(np.array([1, 0, 1]))
        assert batch.data.dtype == np.float64
        assert np.array_equal(batch.data, feats.features[[1, 0, 1]])
