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
        assert (run / "checkpoint" / "manifest.json").exists()
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

    def test_train_determinism_bit_for_bit(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        dispatch(["train", "--config", str(cfg)])
        first = (tmp_path / "run" / "loss.csv").read_bytes()
        dispatch(["train", "--config", str(cfg)])
        assert (tmp_path / "run" / "loss.csv").read_bytes() == first
