import ast
import copy
import json
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from layerpool.artifact import ArtifactCorruptError, ArtifactVersionError
from layerpool.autodiff import Rng, Tensor
from layerpool.corpus import make_synthetic_triplets
from layerpool import trainer
from layerpool.encoder import (Encoder, EncoderConfig, FrozenFeatures, Tokenizer, load_frozen,
                               save_frozen)
from layerpool.objectives import OBJECTIVES, record_keys
from layerpool.pooler import ATTENTION_STRATEGIES, PoolStrategy, attention_matrix, pool
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
                    max_seq_len=8, dropout_p=0.1)
# token-table rows of the tensors that init_params builds outside train()
TINY_VOCAB = 64


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
    return [f"{entry['name']}.npy" for entry in header["arrays"]]


def bare_corpus(n=16):
    return [{"text": f"w{i} w{(i + 3) % n} w{i}"} for i in range(n)]


def triplet_corpus(n=16):
    return [{"anchor": f"w{i} a", "positive": f"w{i} b", "negative": f"w{(i + 5) % n} c"}
            for i in range(n)]


class TestInitParams:
    def test_same_seed_identical(self):
        cfg = tiny_config()
        a = init_params(cfg, TINY_VOCAB, Rng(3))
        b = init_params(tiny_config(), TINY_VOCAB, Rng(3))
        assert set(a) == set(b)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_different_seed_differs(self):
        a = init_params(tiny_config(), TINY_VOCAB, Rng(3))
        b = init_params(tiny_config(), TINY_VOCAB, Rng(4))
        assert any(not np.array_equal(a[k], b[k]) for k in a)

    def test_finite_and_bounded(self):
        params = init_params(tiny_config(), TINY_VOCAB, Rng(0))
        for a in params.values():
            assert np.all(np.isfinite(a)) and np.all(np.abs(a) <= 1.0)


class TestTrain:
    def test_corpus_objective_mismatch(self):
        with pytest.raises(ValueError, match="sup_hard"):
            train(tiny_config(objective="sup_hard"), pair_corpus())

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="empty corpus"):
            train(tiny_config(), [])

    def test_batch_larger_than_corpus(self):
        with pytest.raises(ValueError, match="batch_size larger than corpus"):
            train(tiny_config(batch_size=17), pair_corpus(16))

    @pytest.mark.parametrize("spoil, message", [
        (lambda c: c[5].pop("negative"), r"record 5: .*'negative'.*no such key"),
        (lambda c: c[5].update(negative=7), r"record 5: .*'negative'.*got 7$"),
        (lambda c: c[5].update(positive=" "), r"record 5: .*'positive'.*got ' '$"),
        (lambda c: c.__setitem__(5, ["w1 a"]), r"record 5 is a list"),
    ], ids=["missing", "integer", "blank", "not-an-object"])
    def test_every_record_checked_before_any_work(self, monkeypatch, spoil, message):
        corpus = triplet_corpus(64)
        spoil(corpus)

        def refuse(texts):
            raise AssertionError("the vocabulary was fitted before the corpus check")

        monkeypatch.setattr(Tokenizer, "from_texts", refuse)
        with pytest.raises(ValueError, match=message):
            train(tiny_config(objective="sup_hard"), corpus)

    @pytest.mark.parametrize("frozen", [False, True], ids=["encoder", "frozen"])
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_one_forward_pool_and_loss_per_step(self, tmp_path, monkeypatch, objective,
                                                frozen):
        corpus = {"sup_basic": pair_corpus, "unsup": bare_corpus,
                  "sup_hard": triplet_corpus}[objective]()
        cfg = tiny_config(objective=objective)
        if frozen:
            rows = len(corpus) * len(record_keys(objective))
            feats = Rng(0).generator().normal(size=(rows, 2, 2, 6)).astype(np.float32)
            save_frozen(FrozenFeatures(num_layers=2, hidden_dim=6, features=feats),
                        tmp_path / "f.lapf")
            cfg = tiny_config(objective=objective, frozen_features=str(tmp_path / "f.lapf"))
        ckpt, _ = train(cfg, corpus, max_steps=0)
        calls = Counter()

        def counted(kind, fn):
            def wrapper(*args, **kwargs):
                calls[kind] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Encoder, "encode", counted("forward", Encoder.encode))
        monkeypatch.setattr(FrozenFeatures, "stack", counted("forward", FrozenFeatures.stack))
        monkeypatch.setattr(trainer, "pool", counted("pool", trainer.pool))
        for name in ("loss_sup_basic", "loss_unsup", "loss_sup_hard"):
            monkeypatch.setattr(trainer, name, counted("loss", getattr(trainer, name)))
        _, trace = train(cfg, corpus, resume_from=ckpt, max_steps=1)
        assert len(trace) == 1 and calls == {"forward": 1, "pool": 1, "loss": 1}

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

    def test_cls_last_leaves_pooler_untouched(self):
        cfg = tiny_config(strategy="cls_last")
        before = init_params(tiny_config(strategy="cls_last"), TINY_VOCAB, Rng(cfg.seed))
        ckpt, _ = train(cfg, pair_corpus())
        for name in before:
            if name.startswith("pooler."):
                assert np.array_equal(ckpt.params[name], before[name])
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

    def test_width_need_not_divide_into_encoder_heads(self, tmp_path):
        # d = 30 is no multiple of the default encoder's 4 heads; a frozen run
        # has no encoder, so its pooler takes d from the file and nothing else
        path = self._frozen_file(tmp_path, m=16, d=30)
        cfg = TrainConfig(objective="unsup", batch_size=4, frozen_features=path)
        ckpt, trace = train(cfg, bare_corpus(16))
        assert len(trace) == 4 and ckpt.config == cfg
        assert all(t.shape[0] == 30 for t in ckpt.params.values())

    def test_resume_refuses_another_width(self, tmp_path):
        path = self._frozen_file(tmp_path, m=16, d=6)
        cfg = tiny_config(objective="unsup", frozen_features=path)
        save_checkpoint(train(cfg, bare_corpus(16), max_steps=1)[0], tmp_path / "ck")
        self._frozen_file(tmp_path, m=16, d=8)  # same path, wider features
        with pytest.raises(ValueError, match=rf"{re.escape(path)}.*\b8\b.*\b6\b"):
            train(cfg, bare_corpus(16), resume_from=load_checkpoint(tmp_path / "ck"))

    def test_vocabulary_empty(self, tmp_path, monkeypatch):
        # a frozen run tokenizes nothing, so it fits and stores no vocabulary
        def refuse(texts):
            raise AssertionError("a frozen run fitted a vocabulary")

        monkeypatch.setattr(Tokenizer, "from_texts", refuse)
        cfg = tiny_config(objective="unsup", frozen_features=self._frozen_file(tmp_path, m=16))
        ckpt, _ = train(cfg, bare_corpus(16), max_steps=1)
        assert ckpt.vocab == {}
        save_checkpoint(ckpt, tmp_path / "ck")
        assert load_checkpoint(tmp_path / "ck").vocab == {}

    def test_init_from_refused(self, tmp_path):
        # a warm start copies encoder tensors, which a frozen run never uses
        pretrained, _ = train(tiny_config(), pair_corpus(), max_steps=0)
        cfg = tiny_config(objective="unsup", frozen_features=self._frozen_file(tmp_path, m=16))
        with pytest.raises(ValueError, match="frozen_features"):
            train(cfg, bare_corpus(16), init_from=pretrained)

    def test_frozen_checkpoint_cannot_warm_start_an_encoder(self, tmp_path):
        cfg = tiny_config(objective="unsup", frozen_features=self._frozen_file(tmp_path, m=16))
        frozen_ckpt, _ = train(cfg, bare_corpus(16), max_steps=0)
        with pytest.raises(ValueError, match="no encoder"):
            train(tiny_config(), pair_corpus(), init_from=frozen_ckpt)


class TestConfigUntouched:
    @staticmethod
    def assert_kept(cfg, before, ckpt, path):
        """`cfg` is unchanged, and the checkpoint holds it, saved and loaded too."""
        assert cfg == before and ckpt.config == cfg
        save_checkpoint(ckpt, path)
        assert load_checkpoint(path).config == cfg

    def test_encoder_path(self, tmp_path):
        cfg = tiny_config()
        before = copy.deepcopy(cfg)
        ckpt, _ = train(cfg, pair_corpus(), max_steps=0)
        self.assert_kept(cfg, before, ckpt, tmp_path / "ck")
        # one token-table row per id of the fitted vocabulary
        assert ckpt.params["token_emb"].shape == (ckpt.tokenizer().vocab_size, 8)

    def test_frozen_path(self, tmp_path):
        arr = Rng(0).generator().normal(size=(16, 3, 2, 6)).astype(np.float32)
        save_frozen(FrozenFeatures(num_layers=3, hidden_dim=6, features=arr),
                    tmp_path / "f.lapf")
        cfg = tiny_config(objective="unsup", frozen_features=str(tmp_path / "f.lapf"))
        before = copy.deepcopy(cfg)
        ckpt, _ = train(cfg, bare_corpus(16), max_steps=1)
        self.assert_kept(cfg, before, ckpt, tmp_path / "ck")
        # the pooler is as wide as the file, not the config's encoder
        assert ckpt.params["pooler.w_q"].shape == (6, 6)

    def test_init_from_path(self, tmp_path):
        corpus = pair_corpus()
        pretrained, _ = train(tiny_config(seed=7), corpus, max_steps=0)
        cfg = tiny_config(seed=1)
        before = copy.deepcopy(cfg)
        warm, _ = train(cfg, corpus, init_from=pretrained, max_steps=1)
        self.assert_kept(cfg, before, warm, tmp_path / "ck")


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        ckpt, _ = train(tiny_config(), pair_corpus())
        save_checkpoint(ckpt, tmp_path / "ck")
        loaded = load_checkpoint(tmp_path / "ck")
        assert loaded.step == ckpt.step
        assert set(loaded.params) == set(ckpt.params)
        for k in ckpt.params:
            assert np.array_equal(loaded.params[k], ckpt.params[k])
        for k in ckpt.adam_m:
            assert np.array_equal(loaded.adam_m[k], ckpt.adam_m[k])
        for params in (ckpt.params, loaded.params):
            assert all(type(a) is np.ndarray for a in params.values())

    @pytest.mark.parametrize("strategy", list(PoolStrategy), ids=lambda s: s.value)
    def test_inference_records_no_tape(self, strategy):
        ckpt, _ = train(tiny_config(), pair_corpus(), max_steps=1)
        texts = ["w1 w2", "w3"]
        stacks = ckpt.stacks(texts)
        results = [ckpt.encoder().encode([ckpt.tokenizer().encode(t, 8) for t in texts]),
                   pool(stacks, ckpt.constants(), strategy, ckpt.config.norm_mode)]
        if strategy in ATTENTION_STRATEGIES:
            results.append(attention_matrix(stacks, ckpt.constants(), strategy,
                                            ckpt.config.norm_mode)[0])
        for t in results:
            assert not t.requires_grad and t._parents == () and t._bw is None

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
        # older checkpoints (versions 1 and 2) had no header.json, version 3
        # stored a tokenizer mode, version 4 an encoder vocab_size, version
        # 5 raw member files and version 6 a freeze_mlp option; this is the
        # version check itself
        ckpt, _ = train(tiny_config(), pair_corpus(), max_steps=0)
        save_checkpoint(ckpt, tmp_path / "ck")
        header = json.loads((tmp_path / "ck" / "header.json").read_text())
        header["meta"]["tokenizer_mode"] = "whitespace"
        header["meta"]["config"]["encoder"]["vocab_size"] = 1000
        header["meta"]["config"]["freeze_mlp"] = False
        for version in (1, 3, 4, 5, 6):
            header["version"] = version
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


    def test_resume_past_max_steps_keeps_step(self):
        corpus = pair_corpus()
        ckpt, _ = train(tiny_config(epochs=2), corpus, max_steps=6)
        before = {name: a.copy() for name, a in ckpt.params.items()}
        resumed, trace = train(ckpt.config, corpus, resume_from=ckpt, max_steps=3)
        assert trace == [] and resumed.step == 6
        assert all(np.array_equal(resumed.params[k], v) for k, v in before.items())

    def test_resume_leaves_the_checkpoint_as_given(self):
        corpus = pair_corpus()
        ckpt, _ = train(tiny_config(epochs=2), corpus, max_steps=4)
        params = {name: a.copy() for name, a in ckpt.params.items()}
        adam = [{name: a.copy() for name, a in d.items()} for d in (ckpt.adam_m, ckpt.adam_v)]
        _, first = train(ckpt.config, corpus, resume_from=ckpt, max_steps=6)
        _, second = train(ckpt.config, corpus, resume_from=ckpt, max_steps=6)
        assert len(first) == 2 and first == second
        assert ckpt.step == 4
        assert all(np.array_equal(ckpt.params[k], v) for k, v in params.items())
        for before, after in zip(adam, (ckpt.adam_m, ckpt.adam_v)):
            assert before.keys() == after.keys()
            assert all(np.array_equal(after[k], v) for k, v in before.items())

    @staticmethod
    def edit_meta(path, edit):
        header = json.loads((path / "header.json").read_text())
        edit(header["meta"])
        (path / "header.json").write_text(json.dumps(header))

    @pytest.mark.parametrize("edit, named", [
        (lambda m: m["vocab"].update(w0=m["vocab"]["w1"]), "vocabulary ids"),
        (lambda m: m["vocab"].update(w0=999), "vocabulary ids"),
        (lambda m: m["vocab"].update(w0=0), "vocabulary ids"),
        (lambda m: m["vocab"].update(extra=len(m["vocab"]) + 3), "'token_emb'"),
        (lambda m: m["vocab"].pop("w0"), "vocabulary ids"),
        (lambda m: m["config"].update(frozen_features="f.npy"), "'token_emb'"),
    ], ids=["repeated-id", "id-past-table", "reserved-id", "one-more-word", "one-word-less",
            "now-frozen"])
    def test_header_that_does_not_fit_the_arrays_is_corrupt(self, tmp_path, edit, named):
        # arrays and hashes untouched: only header.json's meta is edited
        ckpt, _ = train(tiny_config(), pair_corpus(), max_steps=1)
        save_checkpoint(ckpt, tmp_path / "ck")
        self.edit_meta(tmp_path / "ck", edit)
        with pytest.raises(ArtifactCorruptError, match=named):
            load_checkpoint(tmp_path / "ck")

    def test_frozen_checkpoint_must_keep_its_pooler_width(self, tmp_path):
        gen = Rng(0).generator()
        save_frozen(FrozenFeatures(num_layers=2, hidden_dim=6,
                                   features=gen.normal(size=(16, 2, 2, 6)).astype(np.float32)),
                    tmp_path / "f.npy")
        cfg = tiny_config(objective="unsup", frozen_features=str(tmp_path / "f.npy"))
        ckpt, _ = train(cfg, bare_corpus(), max_steps=1)
        save_checkpoint(ckpt, tmp_path / "ck")
        assert load_checkpoint(tmp_path / "ck").params["pooler.w_q"].shape == (6, 6)
        # one pooler array of another width, consistent with its Adam state
        for named in (ckpt.params, ckpt.adam_m, ckpt.adam_v):
            named["pooler.mlp_bias"] = np.zeros(7)
        save_checkpoint(ckpt, tmp_path / "ck")
        with pytest.raises(ArtifactCorruptError, match=re.escape("'pooler.mlp_bias' is (7,)")):
            load_checkpoint(tmp_path / "ck")
        # the same arrays read as an encoder run's
        for named in (ckpt.params, ckpt.adam_m, ckpt.adam_v):
            named["pooler.mlp_bias"] = np.zeros(6)
        save_checkpoint(ckpt, tmp_path / "ck")
        self.edit_meta(tmp_path / "ck", lambda m: m["config"].update(frozen_features=None))
        with pytest.raises(ArtifactCorruptError, match="'token_emb' is absent"):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("tamper, named", [
        ("unpaired", "adam_v 'pos_emb' is absent"),
        ("no_param", "adam_m 'nope' is (8,), its config and vocabulary give absent"),
        ("shape", "adam_v 'pos_emb' is (7, 8), its config and vocabulary give (8, 8)"),
        ("untrained", "adam_m 'pooler.w_q' is absent"),
    ], ids=["unpaired", "no_param", "shape", "untrained"])
    def test_adam_state_must_match_params(self, tmp_path, tamper, named):
        ckpt, _ = train(tiny_config(), pair_corpus(), max_steps=1)
        if tamper == "unpaired":
            del ckpt.adam_v["pos_emb"]
        elif tamper == "no_param":
            ckpt.adam_m["nope"] = ckpt.adam_v["nope"] = np.zeros(8)
        elif tamper == "shape":
            ckpt.adam_v["pos_emb"] = ckpt.adam_v["pos_emb"][:-1]
        elif tamper == "untrained":  # a resumed run would never update pooler.w_q
            del ckpt.adam_m["pooler.w_q"], ckpt.adam_v["pooler.w_q"]
        save_checkpoint(ckpt, tmp_path / "ck")
        with pytest.raises(ArtifactCorruptError, match=re.escape(named)):
            load_checkpoint(tmp_path / "ck")


class TestWarmStart:
    def test_init_from_copies_encoder_not_pooler(self):
        corpus = pair_corpus()
        pretrained, _ = train(tiny_config(seed=7), corpus)
        warm, _ = train(tiny_config(seed=1), corpus, init_from=pretrained,
                        max_steps=0)
        for name in warm.params:
            same = np.array_equal(warm.params[name], pretrained.params[name])
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

    def test_init_from_a_dropout_free_pretrain(self):
        # dropout_p shapes no parameter: a dropout-0 pretrain warm-starts an
        # unsup run with dropout, and the run keeps its own dropout_p
        pretrain = tiny_config(seed=7, encoder=EncoderConfig(**{**TINY_ENCODER,
                                                                "dropout_p": 0.0}))
        pretrained, _ = train(pretrain, pair_corpus())
        cfg = tiny_config(objective="unsup", seed=1)
        warm, trace = train(cfg, bare_corpus(), init_from=pretrained, max_steps=2)
        assert warm.config.encoder.dropout_p == 0.1 and len(trace) == 2
        assert np.isfinite([loss for _, loss in trace]).all()

    @pytest.mark.parametrize("field, value", [("num_heads", 4), ("ffn_dim", 32)])
    def test_init_from_refuses_another_architecture(self, field, value):
        pretrained, _ = train(tiny_config(seed=7), pair_corpus())
        other = tiny_config(encoder=EncoderConfig(**{**TINY_ENCODER, field: value}))
        with pytest.raises(ValueError, match="^init_from encoder architecture differs "
                                             "from the new config$"):
            train(other, pair_corpus(), init_from=pretrained, max_steps=0)

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


def _tensors_per_step(monkeypatch, cfg, corpus) -> Counter:
    """Tensors one step builds, by the function that built them: a 2-step call
    minus a 1-step call from the same step-0 checkpoint leaves out what a call
    builds at setup."""
    ckpt, _ = train(cfg, corpus, max_steps=0)
    counts, init = Counter(), Tensor.__init__

    def counting_init(obj, *args, **kwargs):
        counts[sys._getframe(1).f_code.co_name] += 1
        init(obj, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)

    def tensors_built(max_steps):
        counts.clear()
        train(ckpt.config, corpus, resume_from=ckpt, max_steps=max_steps)
        return Counter(counts)

    two, one = tensors_built(2), tensors_built(1)
    return Counter({name: two[name] - one[name] for name in two | one
                    if two[name] != one[name]})


def _by_op(per_op: Counter) -> str:
    return ", ".join(f"{name} {n}" for name, n in sorted(per_op.items()))


def test_encoder_step_tape_size(monkeypatch):
    # one default-encoder sup_hard step (M=16) builds this many Tensors with
    # the three views in one packed forward pass, q, k and v from one matmul,
    # each layer's attention core (scatter to padded slots, all heads'
    # softmax(q kᵀ) v, gather back) and layer norm as single ops, and the
    # attention pooler and the InfoNCE loss as one node each. With the pooler
    # and loss as chains of slice, matmul, softmax, mean, concat, normalize
    # and log-sum-exp ops a step builds 137, and with the core as a chain of
    # scatter, transpose, matmul, softmax and gather ops too, 190; a forward
    # per view, a loop over heads or composite layer norm builds well over
    # twice as many
    cfg = TrainConfig(objective="sup_hard", strategy="attn_cls_avg_concat",
                      batch_size=16, epochs=2, seed=3)
    per_op = _tensors_per_step(monkeypatch, cfg, make_synthetic_triplets(num_pairs=16))
    assert per_op.total() == 98, _by_op(per_op)


def test_frozen_step_tape_size(tmp_path, monkeypatch):
    # one frozen-features sup_hard step (M=16): one stack of the three views'
    # rows, one pool node, three view slices, the candidates' concat and one
    # loss node. The pooler and loss as chains of Tensor ops build 46
    feats = np.random.default_rng(0).normal(size=(3 * 16, 4, 2, 16)).astype(np.float32)
    save_frozen(FrozenFeatures(num_layers=4, hidden_dim=16, features=feats),
                tmp_path / "f.lapf")
    cfg = TrainConfig(objective="sup_hard", strategy="attn_cls_avg_concat",
                      batch_size=16, epochs=2, seed=3, frozen_features=str(tmp_path / "f.lapf"))
    per_op = _tensors_per_step(monkeypatch, cfg, make_synthetic_triplets(num_pairs=16))
    assert per_op.total() == 7, _by_op(per_op)


def test_golden_trace_encoder():
    cfg = TrainConfig(objective="sup_hard", strategy="attn_cls_avg_concat",
                      batch_size=8, epochs=2, learning_rate=1e-3, seed=5,
                      encoder=EncoderConfig(**TINY_ENCODER))
    _, trace = train(cfg, make_synthetic_triplets(num_pairs=24))
    _assert_trace(trace, GOLDEN_ENCODER_TRACE)


def test_only_train_makes_trainable_tensors():
    # parameters at rest are arrays; train() wraps them for one run, and
    # grad_check is the gradient oracle the tests use. Any requires_grad
    # argument but a literal False counts, named by its innermost function.
    makers = set()
    for path in sorted(Path(trainer.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for node in ast.walk(tree):  # breadth first: a parent before its children
            for child in ast.iter_child_nodes(node):
                owner[child] = node.name if isinstance(node, ast.FunctionDef) else owner.get(
                    node, "<module>")
        for node in ast.walk(tree):
            positional = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                          and node.func.id == "Tensor" and len(node.args) > 1)
            keyword = (isinstance(node, ast.keyword) and node.arg == "requires_grad"
                       and not (isinstance(node.value, ast.Constant)
                                and node.value.value is False))
            if positional or keyword:
                makers.add(f"{path.stem}.{owner[node]}")
    assert makers == {"trainer.train", "autodiff.grad_check"}


def test_only_artifact_reads_and_writes_arrays():
    # one reader and one writer per file format: raw-array and numpy-file I/O,
    # byte-layout packing and JSON encoding and parsing stay in artifact.py
    banned = {"np.load", "np.save", "np.fromfile", "np.lib.format", "numpy.load",
              "numpy.save", "numpy.fromfile", "numpy.lib.format",
              "json.dumps", "json.dump", "json.loads", "json.load"}
    found = set()
    for path in sorted(Path(trainer.__file__).parent.glob("*.py")):
        if path.name == "artifact.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and ast.unparse(node) in banned:
                found.add(f"{path.name}: {ast.unparse(node)}")
            elif isinstance(node, ast.Import):
                found.update(f"{path.name}: import {a.name}" for a in node.names
                             if a.name == "struct" or a.name.startswith("numpy.lib"))
            elif isinstance(node, ast.ImportFrom) and (
                    node.module == "struct" or (node.module or "").startswith("numpy.lib")):
                found.add(f"{path.name}: from {node.module} import")
    assert found == set()
