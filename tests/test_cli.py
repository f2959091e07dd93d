"""CLI dispatch, exit codes, and config validation."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import layerpool
from layerpool.cli import dispatch
from layerpool.config import ConfigError, load_config, validate_config
from layerpool.corpus import make_synthetic_sts, make_synthetic_triplets, write_jsonl
from layerpool.trainer import load_checkpoint

ENC = {"num_layers": 2, "hidden_dim": 8, "num_heads": 2, "ffn_dim": 16,
       "max_seq_len": 12, "vocab_size": 200, "dropout_p": 0.0}


def _write_config(tmp_path, **overrides):
    corpus_path = tmp_path / "corpus.jsonl"
    if not corpus_path.exists():
        write_jsonl(make_synthetic_triplets(num_pairs=24), corpus_path)
    doc = {
        "objective": "sup_hard",
        "corpus": str(corpus_path),
        "batch_size": 4,
        "epochs": 1,
        "encoder": ENC,
        "output_dir": str(tmp_path / "run"),
    }
    doc.update(overrides)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    return cfg_path


class TestValidateConfig:
    def test_minimal_defaults(self):
        cfg = validate_config({"objective": "unsup", "corpus": "c.jsonl"})
        assert cfg.train.tau == 0.05
        assert cfg.train.norm_mode == "softmax"
        assert cfg.train.seed == 0
        assert cfg.train.strategy == "attn_cls_avg_concat"

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="objective"):
            validate_config({"corpus": "c.jsonl"})

    def test_negative_temperature_names_key(self):
        with pytest.raises(ConfigError, match="temperature"):
            validate_config({"objective": "unsup", "corpus": "c", "temperature": -1})

    def test_unknown_key_nearest_suggestion(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            validate_config({"objective": "unsup", "corpus": "c", "learningrate": 0.1})

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError, match="strategy"):
            validate_config({"objective": "unsup", "corpus": "c", "strategy": "nope"})

    def test_unknown_encoder_key(self):
        with pytest.raises(ConfigError, match="encoder"):
            validate_config({"objective": "unsup", "corpus": "c",
                             "encoder": {"hiden_dim": 8}})

    def test_bad_objective(self):
        with pytest.raises(ConfigError, match="objective"):
            validate_config({"objective": "triplet", "corpus": "c"})

    def test_load_rejects_missing_corpus(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"objective": "unsup",
                                    "corpus": str(tmp_path / "absent.jsonl")}))
        with pytest.raises(ConfigError, match="corpus"):
            load_config(path)

    @pytest.mark.parametrize("key, value, named", [
        ("freeze_mlp", "false", "freeze_mlp"), ("batch_size", 16.7, "batch_size"),
        ("seed", "3", "seed"), ("seed", True, "seed"),
        ("learning_rate", "0.1", "learning_rate"), ("frozen_features", 3, "frozen_features"),
        ("corpus", None, "corpus"), ("encoder", [], "encoder"),
        ("encoder", {"num_layers": 2.0}, "num_layers"),
        ("encoder", {"dropout_p": "0"}, "dropout_p"),
    ])
    def test_json_types_are_checked_not_coerced(self, key, value, named):
        with pytest.raises(ConfigError, match=named):
            validate_config({"objective": "unsup", "corpus": "c", key: value})

    def test_integer_stands_for_float(self):
        cfg = validate_config({"objective": "unsup", "corpus": "c", "temperature": 1,
                               "learning_rate": 1, "encoder": {"dropout_p": 0}})
        assert (cfg.train.tau, cfg.train.learning_rate) == (1.0, 1.0)
        assert type(cfg.train.tau) is float and type(cfg.train.encoder.dropout_p) is float

    def test_zero_heads_is_a_config_error(self):
        with pytest.raises(ConfigError, match="num_heads"):
            validate_config({"objective": "unsup", "corpus": "c", "encoder": {"num_heads": 0}})

    def test_effective_config_reads_back(self):
        from layerpool.config import effective_config_doc

        doc = {"objective": "sup_hard", "corpus": "c", "temperature": 0.1, "encoder": ENC}
        echoed = effective_config_doc(validate_config(doc))
        assert echoed["temperature"] == 0.1 and echoed["encoder"] == ENC
        assert validate_config(echoed) == validate_config(doc)

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)


class TestDispatch:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            dispatch(["frobnicate"])
        assert excinfo.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            dispatch(["train", "--config", "c.json", "--bogus"])
        assert excinfo.value.code == 2

    def test_threads_must_be_positive(self):
        with pytest.raises(SystemExit) as excinfo:
            dispatch(["--threads", "0", "train", "--config", "c.json"])
        assert excinfo.value.code == 2

    def test_threads_flag_overrides_inherited_env(self, tmp_path):
        # a fresh interpreter: numpy must still be unloaded when dispatch
        # sets the BLAS variables, or the flag cannot take effect
        thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        script = "\n".join([
            "import json, os, sys",
            "from layerpool.cli import dispatch",
            "loaded = 'numpy' in sys.modules",
            "code = dispatch(['--threads', '2', 'eval-sts', '--checkpoint', 'missing',",
            "                 '--data', 'missing'])",
            f"print(json.dumps([loaded, code, [os.environ[v] for v in {thread_vars!r}]]))",
        ])
        src = os.path.dirname(os.path.dirname(layerpool.__file__))
        env = {**os.environ, **dict.fromkeys(thread_vars, "1"),
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        loaded, code, values = json.loads(proc.stdout.strip().splitlines()[-1])
        assert not loaded
        assert code == 1  # the missing checkpoint, after the flag was applied
        assert values == ["2", "2", "2"]

    def test_train_happy_path(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, epochs=1)
        assert dispatch(["train", "--config", str(cfg)]) == 0
        run = tmp_path / "run"
        assert (run / "loss.csv").exists()
        assert (run / "checkpoint" / "header.json").exists()
        assert (run / "effective_config.json").exists()
        echoed = json.loads((run / "effective_config.json").read_text())
        assert echoed["temperature"] == 0.05

    def test_objective_corpus_mismatch_exits_1(self, tmp_path, capsys):
        pair_path = tmp_path / "pairs.jsonl"
        write_jsonl([{"sent1": "a b", "sent2": "a c"} for _ in range(8)], pair_path)
        cfg = _write_config(tmp_path, objective="sup_hard", corpus=str(pair_path))
        assert dispatch(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert not (tmp_path / "run" / "loss.csv").exists()

    def test_missing_config_exits_1(self, tmp_path, capsys):
        assert dispatch(["train", "--config", str(tmp_path / "absent.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_eval_sts_prints_bare_decimal(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        dispatch(["train", "--config", str(cfg)])
        capsys.readouterr()
        sts_path = tmp_path / "sts.jsonl"
        write_jsonl(make_synthetic_sts(16), sts_path)
        code = dispatch(["eval-sts",
                         "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                         "--data", str(sts_path),
                         "--strategy", "cls_last"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        value = float(out)  # bare decimal, nothing else on stdout
        assert -1.0 <= value <= 1.0

    def test_layer_sweep_writes_csv(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        dispatch(["train", "--config", str(cfg)])
        sts_path = tmp_path / "sts.jsonl"
        write_jsonl(make_synthetic_sts(12), sts_path)
        out_csv = tmp_path / "sweep.csv"
        assert dispatch(["layer-sweep",
                         "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                         "--data", str(sts_path),
                         "--out", str(out_csv)]) == 0
        header = out_csv.read_text().splitlines()[0]
        assert "spearman" in header

    def test_embed_and_index_round_trip(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        dispatch(["train", "--config", str(cfg)])
        texts = tmp_path / "texts.txt"
        texts.write_text("\n".join(f"c0w{k} c1w{k}" for k in range(12)) + "\n")
        emb = tmp_path / "emb.npy"
        assert dispatch(["embed",
                         "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                         "--texts", str(texts), "--out", str(emb)]) == 0
        matrix = np.load(emb)
        assert matrix.shape[0] == 12

        index_dir = tmp_path / "index"
        assert dispatch(["index", "build", "--embeddings", str(emb),
                         "--nlist", "2", "--out", str(index_dir)]) == 0
        capsys.readouterr()
        assert dispatch(["index", "search", "--index", str(index_dir),
                         "--query-embeddings", str(emb),
                         "--top-k", "3", "--nprobe", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 12
        hits = json.loads(lines[0])
        assert hits[0]["id"] == 0  # each row's nearest neighbour is itself

        gold = tmp_path / "gold.txt"
        gold.write_text("\n".join(str(i) for i in range(12)) + "\n")
        assert dispatch(["index", "eval", "--index", str(index_dir),
                         "--query-embeddings", str(emb), "--gold", str(gold),
                         "--nprobe", "2", "--timing-repeats", "1"]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["mrr_at_10"] == 1.0
        assert metrics["memory_usage_bytes"] > 0

    def test_inspect_attention_writes_reports(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        dispatch(["train", "--config", str(cfg)])
        texts = tmp_path / "texts.txt"
        texts.write_text("c0w1 c0w2\nc1w1 c1w2\n")
        out_dir = tmp_path / "reports"
        assert dispatch(["inspect-attention",
                         "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                         "--texts", str(texts), "--out-dir", str(out_dir)]) == 0
        assert sorted(os.listdir(out_dir)) == ["attention_0000.csv",
                                               "attention_0001.csv"]

    @pytest.mark.parametrize("flag", ["--seed", "--epochs"])
    def test_resume_rejects_seed_and_epochs(self, tmp_path, flag):
        cfg = _write_config(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            dispatch(["train", "--config", str(cfg), "--resume", str(tmp_path), flag, "3"])
        assert excinfo.value.code == 2
        assert not (tmp_path / "run").exists()

    def test_resume_echoes_the_checkpoint_config(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, epochs=1, seed=0)
        assert dispatch(["train", "--config", str(cfg), "--seed", "5",
                         "--output-dir", str(tmp_path / "base")]) == 0
        _write_config(tmp_path, epochs=3, seed=9)
        assert dispatch(["train", "--config", str(cfg), "--resume",
                         str(tmp_path / "base" / "checkpoint")]) == 0
        echoed = json.loads((tmp_path / "run" / "effective_config.json").read_text())
        assert (echoed["epochs"], echoed["seed"]) == (1, 5)
        resumed = load_checkpoint(tmp_path / "run" / "checkpoint")
        assert (resumed.config.epochs, resumed.config.seed) == (1, 5)

    def test_rejected_override_writes_nothing(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert dispatch(["train", "--config", str(cfg), "--epochs", "0"]) == 1
        assert "epochs" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_malformed_checkpoint_header_exits_1(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        dispatch(["train", "--config", str(cfg)])
        header_path = tmp_path / "run" / "checkpoint" / "header.json"
        header = json.loads(header_path.read_text())
        header["meta"]["config"]["warmup"] = 1
        header_path.write_text(json.dumps(header))
        sts_path = tmp_path / "sts.jsonl"
        write_jsonl(make_synthetic_sts(8), sts_path)
        capsys.readouterr()
        assert dispatch(["eval-sts", "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                         "--data", str(sts_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "warmup" in err and len(err.splitlines()) == 1

    def test_checkpoint_dir_dot_keeps_the_output_dir(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, checkpoint_dir=".")
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "notes.txt").write_text("keep me")
        assert dispatch(["train", "--config", str(cfg)]) == 1
        assert "refusing" in capsys.readouterr().err
        assert (tmp_path / "run" / "notes.txt").read_text() == "keep me"

    def test_index_build_keeps_a_directory_of_files(self, tmp_path, capsys):
        emb = tmp_path / "emb.npy"
        np.save(emb, np.eye(4, dtype=np.float32))
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "notes.txt").write_text("keep me")
        assert dispatch(["index", "build", "--embeddings", str(emb), "--nlist", "2",
                         "--out", str(tmp_path / "out")]) == 1
        assert os.listdir(tmp_path / "out") == ["notes.txt"]

    def test_train_determinism_bit_for_bit(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        dispatch(["train", "--config", str(cfg)])
        first = (tmp_path / "run" / "loss.csv").read_bytes()
        dispatch(["train", "--config", str(cfg)])
        assert (tmp_path / "run" / "loss.csv").read_bytes() == first
