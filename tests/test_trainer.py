import copy
import json

import numpy as np
import pytest

from layerpool.artifact import ArtifactCorruptError, ArtifactVersionError
from layerpool.autodiff import Rng
from layerpool.corpus import make_synthetic_triplets
from layerpool.encoder import EncoderConfig, FrozenFeatures, load_frozen, save_frozen
from layerpool.trainer import (
    Checkpoint,
    TrainConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
    write_loss_trace,
)

TINY_ENCODER = dict(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16,
                    max_seq_len=8, vocab_size=64, dropout_p=0.1)


def tiny_config(**overrides):
    base = dict(objective="sup_basic", strategy="attn_cls_avg_concat",
                batch_size=4, learning_rate=1e-3, epochs=1, seed=0,
                encoder=EncoderConfig(**TINY_ENCODER))
    base.update(overrides)
    return TrainConfig(**base)


def pair_corpus(n=16):
    return [{"sent1": f"w{i} w{(i + 1) % n}", "sent2": f"w{i} w{(i + 2) % n}"}
            for i in range(n)]


def array_files(directory):
    """The array file names a saved checkpoint's header lists, in order."""
    header = json.loads((directory / "header.json").read_text())
    return [entry["file"] for entry in header["arrays"]]


def bare_corpus(n=16):
    return [{"text": f"w{i} w{(i + 3) % n} w{i}"} for i in range(n)]


def triplet_corpus(n=16):
    return [{"anchor": f"w{i} a", "positive": f"w{i} b", "negative": f"w{(i + 5) % n} c"}
            for i in range(n)]


class TestInitParams:
    def test_same_seed_identical(self):
        cfg = tiny_config()
        a = init_params(cfg, Rng(3))
        b = init_params(tiny_config(), Rng(3))
        assert set(a) == set(b)
        assert all(np.array_equal(a[k].data, b[k].data) for k in a)

    def test_different_seed_differs(self):
        a = init_params(tiny_config(), Rng(3))
        b = init_params(tiny_config(), Rng(4))
        assert any(not np.array_equal(a[k].data, b[k].data) for k in a)

    def test_finite_and_bounded(self):
        params = init_params(tiny_config(), Rng(0))
        for t in params.values():
            assert np.all(np.isfinite(t.data)) and np.all(np.abs(t.data) <= 1.0)


class TestTrain:
    def test_corpus_objective_mismatch(self):
        with pytest.raises(ValueError, match="sup_hard"):
            train(tiny_config(objective="sup_hard"), pair_corpus())

    def test_singleton_batch_loss_zero(self):
        cfg = tiny_config(objective="sup_basic", batch_size=1, epochs=1)
        cfg.encoder.dropout_p = 0.0
        _, trace = train(cfg, pair_corpus(1))
        assert trace[0][1] == 0.0

    def test_determinism(self):
        corpus = pair_corpus()
        _, trace_a = train(tiny_config(seed=7), corpus)
        _, trace_b = train(tiny_config(seed=7), corpus)
        assert trace_a == trace_b

    def test_seed_changes_trace(self):
        corpus = pair_corpus()
        _, trace_a = train(tiny_config(seed=1), corpus)
        _, trace_b = train(tiny_config(seed=2), corpus)
        assert trace_a != trace_b

    def test_all_objectives_run(self):
        for objective, corpus in (("sup_basic", pair_corpus()),
                                  ("unsup", bare_corpus()),
                                  ("sup_hard", triplet_corpus())):
            ckpt, trace = train(tiny_config(objective=objective), corpus)
            assert len(trace) == 4
            assert all(np.isfinite(loss) for _, loss in trace)

    def test_incomplete_batch_dropped(self):
        _, trace = train(tiny_config(batch_size=5), pair_corpus(13))
        assert len(trace) == 2  # 13 // 5

    def test_freeze_mlp(self):
        cfg = tiny_config(freeze_mlp=True)
        before = init_params(tiny_config(freeze_mlp=True), Rng(cfg.seed))
        ckpt, _ = train(cfg, pair_corpus())
        assert np.array_equal(ckpt.params["pooler.mlp_weight"].data,
                              before["pooler.mlp_weight"].data)
        assert np.array_equal(ckpt.params["pooler.mlp_bias"].data,
                              before["pooler.mlp_bias"].data)

    def test_cls_last_leaves_pooler_untouched(self):
        cfg = tiny_config(strategy="cls_last")
        before = init_params(tiny_config(strategy="cls_last"), Rng(cfg.seed))
        ckpt, _ = train(cfg, pair_corpus())
        for name in before:
            if name.startswith("pooler."):
                assert np.array_equal(ckpt.params[name].data, before[name].data)
            else:
                pass  # encoder params do move


class TestFrozenFeatures:
    def _frozen_file(self, tmp_path, m, n=2, d=6, seed=0):
        gen = Rng(seed).generator()
        arr = gen.normal(size=(m, n, 2, d)).astype(np.float32)
        feats = FrozenFeatures(num_layers=n, hidden_dim=d, features=arr)
        path = tmp_path / "feats.lapf"
        save_frozen(feats, path)
        return str(path)

    def test_only_pooler_trains(self, tmp_path):
        path = self._frozen_file(tmp_path, m=16)
        cfg = tiny_config(objective="unsup", frozen_features=path, batch_size=4)
        ckpt, trace = train(cfg, bare_corpus(16))
        assert len(trace) == 4
        assert all(name.startswith("pooler.") for name in ckpt.params)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_loss_stops_the_run(self, tmp_path):
        path = self._frozen_file(tmp_path, m=16)
        feats = load_frozen(path)
        feats.features[5, 0, 1, 2] = np.inf
        save_frozen(feats, path)
        cfg = tiny_config(objective="unsup", frozen_features=path, batch_size=16)
        with pytest.raises(ValueError, match="non-finite loss .* at step 0"):
            train(cfg, bare_corpus(16))

    def test_too_few_features(self, tmp_path):
        path = self._frozen_file(tmp_path, m=4)
        cfg = tiny_config(objective="unsup", frozen_features=path)
        with pytest.raises(ValueError, match="frozen features"):
            train(cfg, bare_corpus(16))


class TestConfigUntouched:
    def test_encoder_path(self, tmp_path):
        cfg = tiny_config()
        before = copy.deepcopy(cfg)
        ckpt, _ = train(cfg, pair_corpus(), max_steps=0)
        assert cfg == before
        save_checkpoint(ckpt, tmp_path / "ck")
        fitted = load_checkpoint(tmp_path / "ck")
        assert fitted.config.encoder.vocab_size == ckpt.tokenizer().vocab_size != 64

    def test_frozen_path(self, tmp_path):
        arr = Rng(0).generator().normal(size=(16, 3, 2, 6)).astype(np.float32)
        save_frozen(FrozenFeatures(num_layers=3, hidden_dim=6, features=arr),
                    tmp_path / "f.lapf")
        cfg = tiny_config(objective="unsup", frozen_features=str(tmp_path / "f.lapf"))
        before = copy.deepcopy(cfg)
        ckpt, _ = train(cfg, bare_corpus(16), max_steps=1)
        assert cfg == before
        save_checkpoint(ckpt, tmp_path / "ck")
        enc = load_checkpoint(tmp_path / "ck").config.encoder
        assert (enc.num_layers, enc.hidden_dim) == (3, 6)


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        ckpt, _ = train(tiny_config(), pair_corpus())
        save_checkpoint(ckpt, tmp_path / "ck")
        loaded = load_checkpoint(tmp_path / "ck")
        assert loaded.step == ckpt.step
        assert set(loaded.params) == set(ckpt.params)
        for k in ckpt.params:
            assert np.array_equal(loaded.params[k].data, ckpt.params[k].data)
        for k in ckpt.adam_m:
            assert np.array_equal(loaded.adam_m[k], ckpt.adam_m[k])

    def test_version_mismatch(self, tmp_path):
        ckpt, _ = train(tiny_config(), pair_corpus())
        save_checkpoint(ckpt, tmp_path / "ck")
        header = json.loads((tmp_path / "ck" / "header.json").read_text())
        header["version"] = 99
        (tmp_path / "ck" / "header.json").write_text(json.dumps(header))
        with pytest.raises(ArtifactVersionError):
            load_checkpoint(tmp_path / "ck")

    def test_truncated_tensor(self, tmp_path):
        ckpt, _ = train(tiny_config(), pair_corpus())
        save_checkpoint(ckpt, tmp_path / "ck")
        victim = tmp_path / "ck" / array_files(tmp_path / "ck")[0]
        victim.write_bytes(victim.read_bytes()[:-8])
        with pytest.raises(ArtifactCorruptError):
            load_checkpoint(tmp_path / "ck")

    def test_version_1_rejected(self, tmp_path):
        # older checkpoints (versions 1 and 2) had no header.json; this is
        # the version check itself
        ckpt, _ = train(tiny_config(), pair_corpus(), max_steps=0)
        save_checkpoint(ckpt, tmp_path / "ck")
        header = json.loads((tmp_path / "ck" / "header.json").read_text())
        header["version"] = 1
        (tmp_path / "ck" / "header.json").write_text(json.dumps(header))
        with pytest.raises(ArtifactVersionError):
            load_checkpoint(tmp_path / "ck")

    def test_rewritten_tensor_rejected(self, tmp_path):
        # same length, other bytes
        ckpt, _ = train(tiny_config(), pair_corpus())
        save_checkpoint(ckpt, tmp_path / "ck")
        victim = tmp_path / "ck" / array_files(tmp_path / "ck")[3]
        blob = victim.read_bytes()
        victim.write_bytes(bytes(reversed(blob)))
        assert len(victim.read_bytes()) == len(blob) and victim.read_bytes() != blob
        with pytest.raises(ArtifactCorruptError, match="sha256"):
            load_checkpoint(tmp_path / "ck")

    def test_corrupt_manifest(self, tmp_path):
        (tmp_path / "ck").mkdir()
        (tmp_path / "ck" / "header.json").write_text("{nope")
        with pytest.raises(ArtifactCorruptError):
            load_checkpoint(tmp_path / "ck")

    def test_resume_matches_uninterrupted(self, tmp_path):
        corpus = pair_corpus()
        _, full_trace = train(tiny_config(epochs=2), corpus)
        half, half_trace = train(tiny_config(epochs=2), corpus, max_steps=4)
        save_checkpoint(half, tmp_path / "half")
        resumed, tail_trace = train(tiny_config(epochs=2), corpus,
                                    resume_from=load_checkpoint(tmp_path / "half"))
        combined = half_trace + tail_trace
        assert len(combined) == len(full_trace)
        for (sa, la), (sb, lb) in zip(combined, full_trace):
            assert sa == sb
            assert abs(la - lb) < 1e-12


class TestWarmStart:
    def test_init_from_copies_encoder_not_pooler(self):
        corpus = pair_corpus()
        pretrained, _ = train(tiny_config(seed=7), corpus)
        warm, _ = train(tiny_config(seed=1), corpus, init_from=pretrained,
                        max_steps=0)
        for name in warm.params:
            same = np.array_equal(warm.params[name].data,
                                  pretrained.params[name].data)
            if name.startswith("pooler."):
                assert not same, name  # fresh pooler under the new seed
            else:
                assert same, name

    def test_init_from_resets_schedule(self):
        corpus = pair_corpus()
        pretrained, _ = train(tiny_config(seed=7), corpus)
        warm, trace = train(tiny_config(seed=1), corpus, init_from=pretrained,
                            max_steps=2)
        assert trace[0][0] == 0
        assert warm.step == 2

    def test_init_from_architecture_mismatch(self):
        corpus = pair_corpus()
        pretrained, _ = train(tiny_config(seed=7), corpus)
        other = tiny_config(encoder=EncoderConfig(**{**TINY_ENCODER,
                                                     "num_layers": 3}))
        with pytest.raises(ValueError, match="architecture"):
            train(other, corpus, init_from=pretrained)

    def test_init_from_excludes_resume(self):
        corpus = pair_corpus()
        pretrained, _ = train(tiny_config(seed=7), corpus)
        with pytest.raises(ValueError, match="mutually exclusive"):
            train(tiny_config(), corpus, resume_from=pretrained,
                  init_from=pretrained)


def test_loss_trace_csv(tmp_path):
    _, trace = train(tiny_config(), pair_corpus())
    path = tmp_path / "loss.csv"
    write_loss_trace(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == len(trace) + 1


# Loss traces recorded from the per-sentence pooling implementation that
# preceded batched layer stacks; every step must match within 1e-12.
GOLDEN_FROZEN_TRACE = [
    21.769892788286498, 18.073389763085263, 15.774318221717495, 16.130249440182016,
    10.025672708813904, 15.891447113068757, 17.41067678057224, 21.261953336328716,
    17.2729081865561, 13.921585995576212, 12.81308476726949, 14.910840034002172,
    15.015630510396516, 15.244172373474868, 9.445880639492712, 15.092461659035342,
    15.144147751722995, 5.362557274237238, 13.057341967924703, 14.108617186697819,
]
GOLDEN_ENCODER_TRACE = [
    8.361594691989541, 6.572393291619093, 8.52922164370943, 5.228896201357934,
    6.794498933228683, 7.214101200355348,
]


def _assert_trace(trace, golden):
    assert [step for step, _ in trace] == list(range(len(golden)))
    for (step, loss), gold in zip(trace, golden):
        assert abs(loss - gold) <= 1e-12, step


def test_golden_trace_frozen_headline(tmp_path):
    gen = np.random.default_rng(2024)
    feats = gen.normal(size=(3 * 32, 3, 2, 8)).astype(np.float32)
    save_frozen(FrozenFeatures(num_layers=3, hidden_dim=8, features=feats),
                tmp_path / "f.lapf")
    cfg = TrainConfig(objective="sup_hard", strategy="attn_cls_avg_concat",
                      norm_mode="softmax", batch_size=8, epochs=5,
                      learning_rate=5e-3, seed=4,
                      frozen_features=str(tmp_path / "f.lapf"))
    _, trace = train(cfg, make_synthetic_triplets(num_pairs=32))
    _assert_trace(trace, GOLDEN_FROZEN_TRACE)


def test_golden_trace_encoder():
    cfg = TrainConfig(objective="sup_hard", strategy="attn_cls_avg_concat",
                      batch_size=8, epochs=2, learning_rate=1e-3, seed=5,
                      encoder=EncoderConfig(**TINY_ENCODER))
    _, trace = train(cfg, make_synthetic_triplets(num_pairs=24))
    _assert_trace(trace, GOLDEN_ENCODER_TRACE)
