"""CLI dispatch, exit codes, and config validation."""

import csv
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layerpool
from layerpool.cli import _build_parser, dispatch
from layerpool.config import ConfigError, load_config, train_config_doc, validate_config
from layerpool.corpus import make_synthetic_sts, make_synthetic_triplets, write_jsonl
from layerpool.encoder import FrozenFeatures, save_frozen
from layerpool.trainer import load_checkpoint

ENC = {"num_layers": 2, "hidden_dim": 8, "num_heads": 2, "ffn_dim": 16,
       "max_seq_len": 12, "dropout_p": 0.0}


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
        assert cfg.train.temperature == 0.05
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

    def test_encoder_vocab_size_is_unknown(self):
        # the token table takes its size from the fitted vocabulary
        with pytest.raises(ConfigError, match="unknown encoder key 'vocab_size'"):
            validate_config({"objective": "unsup", "corpus": "c",
                             "encoder": {"vocab_size": 200}})

    def test_freeze_mlp_is_unknown(self):
        # every param trains, so no config key freezes the pooler MLP
        with pytest.raises(ConfigError, match="unknown config key 'freeze_mlp'"):
            validate_config({"objective": "unsup", "corpus": "c", "freeze_mlp": False})

    def test_bad_objective(self):
        with pytest.raises(ConfigError, match="objective"):
            validate_config({"objective": "triplet", "corpus": "c"})

    @pytest.mark.parametrize("key, value, named", [
        ("temperature", "false", "temperature"), ("batch_size", 16.7, "batch_size"),
        ("seed", "3", "seed"), ("seed", True, "seed"),
        ("learning_rate", "0.1", "learning_rate"), ("frozen_features", 3, "frozen_features"),
        ("corpus", None, "corpus"), ("encoder", [], "encoder"),
        ("encoder", {"num_layers": 2.0}, "num_layers"),
        ("encoder", {"dropout_p": "0"}, "dropout_p"),
    ])
    def test_json_types_are_checked_not_coerced(self, key, value, named):
        with pytest.raises(ConfigError, match=named):
            validate_config({"objective": "unsup", "corpus": "c", key: value})

    @pytest.mark.parametrize("key, value", [
        ("norm_mode", "sparsemax"), ("batch_size", 0), ("learning_rate", 0),
        ("learning_rate", -0.1), ("epochs", 0),
        ("temperature", float("nan")), ("temperature", float("inf")),
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ])
    def test_out_of_range_train_value_is_a_config_error(self, key, value):
        with pytest.raises(ConfigError, match=key):
            validate_config({"objective": "unsup", "corpus": "c", key: value})

    @pytest.mark.parametrize("doc", [[], "run.json", None])
    def test_config_must_be_an_object(self, doc):
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            validate_config(doc)

    def test_integer_stands_for_float(self):
        cfg = validate_config({"objective": "unsup", "corpus": "c", "temperature": 1,
                               "learning_rate": 1, "encoder": {"dropout_p": 0}})
        assert (cfg.train.temperature, cfg.train.learning_rate) == (1.0, 1.0)
        assert type(cfg.train.temperature) is float and type(cfg.train.encoder.dropout_p) is float

    def test_zero_heads_is_a_config_error(self):
        with pytest.raises(ConfigError, match="num_heads"):
            validate_config({"objective": "unsup", "corpus": "c", "encoder": {"num_heads": 0}})

    @pytest.mark.parametrize("encoder, named", [
        ({"hidden_dim": 0}, "hidden_dim"), ({"dropout_p": 1.5}, "dropout_p"),
        ({"dropout_p": 1.0}, "dropout_p"), ({"dropout_p": -0.1}, "dropout_p"),
        ({"num_layers": 0}, "num_layers"), ({"ffn_dim": 0}, "ffn_dim"),
        ({"ffn_dim": -4}, "ffn_dim"),
    ])
    def test_out_of_range_encoder_value_is_a_config_error(self, encoder, named):
        # caught when the config loads, not as a traceback from the first step
        with pytest.raises(ConfigError, match=named):
            validate_config({"objective": "unsup", "corpus": "c", "encoder": encoder})

    def test_effective_config_reads_back(self):
        from layerpool.config import effective_config_doc

        doc = {"objective": "sup_hard", "corpus": "c", "temperature": 0.1, "encoder": ENC}
        echoed = effective_config_doc(validate_config(doc))
        assert echoed["temperature"] == 0.1 and echoed["encoder"] == ENC
        assert validate_config(echoed) == validate_config(doc)

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match=re.escape(f"config {path} is not valid JSON")):
            load_config(path)

    @pytest.mark.parametrize("text, named", [
        ('{"objective": "unsup", "corpus": "c", "seed": 1, "seed": 2}', "duplicate key 'seed'"),
        ('{"objective": "unsup", "corpus": "c", "encoder": {"num_layers": 1, "num_layers": 2}}',
         "duplicate key 'num_layers'"),
        ('{"objective": "unsup", "corpus": "c", "temperature": NaN}', "NaN"),
        ('{"objective": "unsup", "corpus": "c", "temperature": Infinity}', "Infinity"),
        ('{"objective": "unsup", "corpus": "c", "learning_rate": -Infinity}', "-Infinity"),
    ], ids=["duplicate", "nested-duplicate", "nan", "infinity", "minus-infinity"])
    def test_load_refuses_what_json_forbids(self, tmp_path, text, named):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"config {path}: {named}")):
            load_config(path)

    def test_load_names_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe" + '{"objective": "unsup"}'.encode("utf-16-le"))
        with pytest.raises(ConfigError, match=re.escape(f"config {path} is not UTF-8")):
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
        # the echo is the config the checkpoint was trained with
        trained = train_config_doc(load_checkpoint(run / "checkpoint").config)
        assert {key: echoed[key] for key in trained} == trained

    @pytest.mark.parametrize("how", ["config", "flag"])
    def test_empty_output_dir_is_the_working_directory(self, tmp_path, monkeypatch,
                                                       capsys, how):
        monkeypatch.chdir(tmp_path)
        if how == "config":
            argv = ["train", "--config", str(_write_config(tmp_path, output_dir=""))]
        else:
            argv = ["train", "--config", str(_write_config(tmp_path)), "--output-dir", ""]
        assert dispatch(argv) == 0
        assert (tmp_path / "checkpoint" / "header.json").exists()
        assert (tmp_path / "effective_config.json").exists()
        assert (tmp_path / "loss.csv").exists()
        assert not (tmp_path / "run").exists()

    def test_objective_corpus_mismatch_exits_1(self, tmp_path, capsys):
        pair_path = tmp_path / "pairs.jsonl"
        write_jsonl([{"sent1": "a b", "sent2": "a c"} for _ in range(8)], pair_path)
        cfg = _write_config(tmp_path, objective="sup_hard", corpus=str(pair_path))
        assert dispatch(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert not (tmp_path / "run" / "loss.csv").exists()

    def test_bad_corpus_record_exits_1(self, tmp_path, capsys):
        # only record 5 of 64 is bad; the check names it before any work
        corpus = make_synthetic_triplets(num_pairs=64)
        corpus[5]["negative"] = 7
        write_jsonl(corpus, tmp_path / "corpus.jsonl")
        assert dispatch(["train", "--config", str(_write_config(tmp_path))]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: corpus record 5: ")
        assert "'negative'" in err[0] and "got 7" in err[0]
        assert not (tmp_path / "run").exists()

    def test_corpus_that_is_not_utf8_is_named_by_line(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b"\xff\xfe" + '{"anchor": "a"}\n'.encode("utf-16-le"))
        assert dispatch(["train", "--config", str(_write_config(tmp_path))]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {corpus}:1: not UTF-8")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("line, named", [
        ('{"anchor": "a", "positive": "b", "negative": "c", "anchor": "d"}',
         "duplicate key 'anchor'"),
        ('{"anchor": "a", "positive": "b", "negative": "c", "weight": Infinity}',
         "Infinity is not a JSON value"),
    ], ids=["duplicate", "infinity"])
    def test_corpus_line_outside_strict_json_is_named_by_line(self, tmp_path, capsys,
                                                               line, named):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"anchor": "a", "positive": "b", "negative": "c"}\n' + line + "\n")
        assert dispatch(["train", "--config", str(_write_config(tmp_path))]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {corpus}:2: invalid JSON: {named}"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, name", [("corpus", "absent.jsonl"),
                                           ("frozen_features", "absent.lapf")],
                             ids=["corpus", "frozen"])
    def test_missing_input_file_is_named_by_its_reader(self, tmp_path, capsys, key, name):
        absent = str(tmp_path / name)
        cfg = _write_config(tmp_path, **{key: absent})
        assert dispatch(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and absent in err[0]
        assert not (tmp_path / "run").exists()

    def test_resume_ignores_the_config_frozen_file(self, tmp_path, capsys):
        # the resumed run trains the checkpoint's config, which names no frozen file
        cfg = _write_config(tmp_path, epochs=1)
        assert dispatch(["train", "--config", str(cfg),
                         "--output-dir", str(tmp_path / "base")]) == 0
        _write_config(tmp_path, frozen_features=str(tmp_path / "absent.lapf"))
        assert dispatch(["train", "--config", str(cfg), "--resume",
                         str(tmp_path / "base" / "checkpoint")]) == 0
        resumed = load_checkpoint(tmp_path / "run" / "checkpoint")
        assert resumed.config.frozen_features is None

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
                         "--nprobe", "2"]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["mrr_at_10"] == 1.0
        assert 0.0 <= metrics["query_ms_p50"] <= metrics["query_ms_p99"]
        assert metrics["memory_usage_bytes"] > 0
        assert metrics["candidates_per_query"] == 12.0 and metrics["imbalance_factor"] >= 1.0

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

    def test_inspect_attention_csv_holds_the_report_bit_for_bit(self, tmp_path, capsys):
        from layerpool.sts_eval import attention_report

        dispatch(["train", "--config", str(_write_config(tmp_path))])
        ckpt = tmp_path / "run" / "checkpoint"
        texts, out_dir = tmp_path / "texts.txt", tmp_path / "reports"
        texts.write_text("c0w1 c0w2\nc1w1 c1w2 c1w3\n")
        assert dispatch(["inspect-attention", "--checkpoint", str(ckpt),
                         "--texts", str(texts), "--out-dir", str(out_dir)]) == 0
        reports = attention_report(load_checkpoint(ckpt), ["c0w1 c0w2", "c1w1 c1w2 c1w3"])
        for i, report in enumerate(reports):
            with open(out_dir / f"attention_{i:04d}.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            cells = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
            expected = np.vstack([report.weights, report.per_layer_weight])
            assert cells.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("key, value, named", [
        ("num_layers", 3, "'layer2.ln1_g' is absent"),
        ("hidden_dim", 16, "'token_emb' is ({rows}, 8), its config and vocabulary give "
                           "({rows}, 16)"),
        ("ffn_dim", 32, "'layer0.ffn_w1' is (8, 16), its config and vocabulary give (8, 32)"),
    ], ids=["num_layers", "hidden_dim", "ffn_dim"])
    def test_checkpoint_config_that_does_not_fit_its_arrays(self, tmp_path, capsys, key,
                                                            value, named):
        # only the header's config is edited; arrays and hashes stay as saved
        dispatch(["train", "--config", str(_write_config(tmp_path))])
        ckpt = tmp_path / "run" / "checkpoint"
        header = json.loads((ckpt / "header.json").read_text())
        header["meta"]["config"]["encoder"][key] = value
        (ckpt / "header.json").write_text(json.dumps(header))
        sts = tmp_path / "sts.jsonl"
        write_jsonl(make_synthetic_sts(8), sts)
        capsys.readouterr()
        assert dispatch(["eval-sts", "--checkpoint", str(ckpt), "--data", str(sts)]) == 1
        err = capsys.readouterr().err.splitlines()
        rows = 3 + len(header["meta"]["vocab"])  # after the reserved CLS, PAD and UNK ids
        assert len(err) == 1 and err[0].startswith("error: ")
        assert named.format(rows=rows) in err[0]

    @pytest.mark.parametrize("command, out_flag", [("embed", "--out"),
                                                   ("inspect-attention", "--out-dir")])
    def test_texts_that_are_not_utf8_are_named_by_line(self, tmp_path, capsys, command,
                                                       out_flag):
        dispatch(["train", "--config", str(_write_config(tmp_path))])
        texts, out = tmp_path / "texts.txt", tmp_path / "out"
        texts.write_bytes(b"\xff\xfe" + "c0w1 c0w2\n".encode("utf-16-le"))
        capsys.readouterr()
        assert dispatch([command, "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                         "--texts", str(texts), out_flag, str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {texts}:1: not UTF-8")
        assert not out.exists()

    @pytest.mark.parametrize("pooling", ["detached", "trained-pooler"])
    def test_embed_reads_one_text_per_stripped_line(self, tmp_path, capsys, pooling):
        dispatch(["train", "--config", str(_write_config(tmp_path))])
        clean, messy = tmp_path / "clean.txt", tmp_path / "messy.txt"
        clean.write_text("c0w1 c0w2\nc1w1\tc1w2\n")
        messy.write_bytes(b"\r\n  c0w1 c0w2\r\n\n\tc1w1\tc1w2 \r\n")
        for texts in (clean, messy):
            assert dispatch(["embed", "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                             "--texts", str(texts), "--pooling", pooling,
                             "--out", str(texts.with_suffix(".npy"))]) == 0
        assert (tmp_path / "clean.npy").read_bytes() == (tmp_path / "messy.npy").read_bytes()

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

    def test_eval_sts_names_a_record_without_a_score(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        dispatch(["train", "--config", str(cfg)])
        sts_path = tmp_path / "sts.jsonl"
        records = make_synthetic_sts(4)
        del records[2]["score"]
        write_jsonl(records, sts_path)
        capsys.readouterr()
        assert dispatch(["eval-sts", "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                         "--data", str(sts_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {sts_path} record 2: ")
        assert "score" in err[0]

    @pytest.mark.parametrize("command", ["eval-sts", "layer-sweep"])
    def test_sts_text_that_is_not_a_string_exits_1(self, tmp_path, capsys, command):
        cfg = _write_config(tmp_path)
        dispatch(["train", "--config", str(cfg)])
        sts_path = tmp_path / "sts.jsonl"
        records = make_synthetic_sts(4)
        records[1]["sent1"] = 5
        write_jsonl(records, sts_path)
        capsys.readouterr()
        argv = [command, "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                "--data", str(sts_path)]
        if command == "layer-sweep":
            argv += ["--out", str(tmp_path / "sweep.csv")]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {sts_path} record 1: STS needs key 'sent1' as a non-blank "
                       "string, got 5"]
        assert not (tmp_path / "sweep.csv").exists()

    def test_frozen_features_checkpoint_cannot_embed_text(self, tmp_path, capsys):
        features = np.random.default_rng(0).normal(size=(72, 2, 2, 8)).astype(np.float32)
        save_frozen(FrozenFeatures(num_layers=2, hidden_dim=8, features=features),
                    tmp_path / "f.lapf")
        cfg = _write_config(tmp_path, frozen_features=str(tmp_path / "f.lapf"))
        assert dispatch(["train", "--config", str(cfg)]) == 0
        sts_path = tmp_path / "sts.jsonl"
        write_jsonl(make_synthetic_sts(4), sts_path)
        texts = tmp_path / "texts.txt"
        texts.write_text("c0w1 c0w2\n")
        ckpt = str(tmp_path / "run" / "checkpoint")
        commands = [["eval-sts", "--checkpoint", ckpt, "--data", str(sts_path)],
                    ["layer-sweep", "--checkpoint", ckpt, "--data", str(sts_path),
                     "--out", str(tmp_path / "sweep.csv")],
                    ["inspect-attention", "--checkpoint", ckpt, "--texts", str(texts),
                     "--out-dir", str(tmp_path / "attn")],
                    ["embed", "--checkpoint", ckpt, "--texts", str(texts),
                     "--out", str(tmp_path / "emb.npy")]]
        capsys.readouterr()
        errors = set()
        for argv in commands:
            assert dispatch(argv) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:") and "no encoder" in err[0]
            errors.add(err[0])
        assert len(errors) == 1
        assert not (tmp_path / "sweep.csv").exists() and not (tmp_path / "emb.npy").exists()
        assert not (tmp_path / "attn").exists()

    def test_checkpoint_dir_dot_keeps_the_output_dir(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, checkpoint_dir=".")
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "notes.txt").write_text("keep me")
        assert dispatch(["train", "--config", str(cfg)]) == 1
        assert "refusing" in capsys.readouterr().err
        assert (tmp_path / "run" / "notes.txt").read_text() == "keep me"
        assert os.listdir(tmp_path / "run") == ["notes.txt"]

    @pytest.mark.parametrize("kind", ["empty", "npz", "object", "lapf"])
    @pytest.mark.parametrize("use", ["frozen", "build", "search", "eval"])
    def test_bad_array_file_is_one_error_line(self, tmp_path, capsys, kind, use):
        # frozen features, --embeddings and --query-embeddings share one reader
        emb, gold, index = tmp_path / "emb.npy", tmp_path / "gold.txt", tmp_path / "idx"
        np.save(emb, np.eye(4, dtype=np.float32))
        gold.write_text("0\n")
        assert dispatch(["index", "build", "--embeddings", str(emb), "--nlist", "1",
                         "--out", str(index)]) == 0
        bad = tmp_path / {"npz": "bad.npz", "object": "bad.npy"}.get(kind, "bad")
        if kind == "empty":
            bad.write_bytes(b"")
        elif kind == "npz":
            np.savez(bad, x=np.eye(4))
        elif kind == "object":
            np.save(bad, np.array([[1.0, "a"]], dtype=object), allow_pickle=True)
        else:  # a frozen-features file of the earlier single-file layout
            stacks = np.ones((72, 2, 2, 8), dtype="<f4")
            bad.write_bytes(b"LAPF" + struct.pack("<IIII", 1, 72, 2, 8) + stacks.tobytes())
        argv = {"frozen": ["train", "--config",
                           str(_write_config(tmp_path, frozen_features=str(bad)))],
                "build": ["index", "build", "--embeddings", str(bad), "--nlist", "1",
                          "--out", str(tmp_path / "idx2")],
                "search": ["index", "search", "--index", str(index),
                           "--query-embeddings", str(bad)],
                "eval": ["index", "eval", "--index", str(index),
                         "--query-embeddings", str(bad), "--gold", str(gold)]}[use]
        before = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
        capsys.readouterr()
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(bad) in err[0]
        assert captured.out == ""
        assert {p: p.read_bytes() if p.is_file() else None
                for p in tmp_path.rglob("*")} == before

    def test_index_build_keeps_a_directory_of_files(self, tmp_path, capsys):
        emb = tmp_path / "emb.npy"
        np.save(emb, np.eye(4, dtype=np.float32))
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "notes.txt").write_text("keep me")
        assert dispatch(["index", "build", "--embeddings", str(emb), "--nlist", "2",
                         "--out", str(tmp_path / "out")]) == 1
        assert os.listdir(tmp_path / "out") == ["notes.txt"]

    def test_index_build_rejects_a_nan_embedding(self, tmp_path, capsys):
        emb = tmp_path / "nan.npy"
        x = np.eye(4, dtype=np.float32)
        x[2, 1] = np.nan
        np.save(emb, x)
        assert dispatch(["index", "build", "--embeddings", str(emb), "--nlist", "1",
                         "--out", str(tmp_path / "idx")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]
        assert os.listdir(tmp_path) == ["nan.npy"]

    @pytest.mark.parametrize("nlist", ["0", "-1"])
    def test_index_build_rejects_nlist_below_one(self, tmp_path, capsys, nlist):
        emb = tmp_path / "emb.npy"
        np.save(emb, np.eye(4, dtype=np.float32))
        assert dispatch(["index", "build", "--embeddings", str(emb), "--nlist", nlist,
                         "--out", str(tmp_path / "idx")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0] == f"error: k={nlist} is below 1 or exceeds 4 points"
        assert os.listdir(tmp_path) == ["emb.npy"]

    def test_index_eval_rejects_zero_queries(self, tmp_path, capsys):
        emb, none, gold = tmp_path / "emb.npy", tmp_path / "none.npy", tmp_path / "gold.txt"
        np.save(emb, np.eye(4, dtype=np.float32))
        np.save(none, np.zeros((0, 4), dtype=np.float32))
        gold.write_text("")
        assert dispatch(["index", "build", "--embeddings", str(emb), "--nlist", "1",
                         "--out", str(tmp_path / "idx")]) == 0
        assert dispatch(["index", "eval", "--index", str(tmp_path / "idx"),
                         "--query-embeddings", str(none), "--gold", str(gold),
                         "--nprobe", "1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "query" in err[0]

    def test_index_eval_names_a_bad_gold_line(self, tmp_path, capsys):
        emb, gold = tmp_path / "emb.npy", tmp_path / "gold.txt"
        np.save(emb, np.eye(4, dtype=np.float32))
        gold.write_text("0\n\nx\n1\n2\n")
        assert dispatch(["index", "build", "--embeddings", str(emb), "--nlist", "1",
                         "--out", str(tmp_path / "idx")]) == 0
        assert dispatch(["index", "eval", "--index", str(tmp_path / "idx"),
                         "--query-embeddings", str(emb), "--gold", str(gold),
                         "--nprobe", "1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {gold}:3: gold id must be an integer, got 'x'"]

    def test_train_determinism_bit_for_bit(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        dispatch(["train", "--config", str(cfg)])
        first = (tmp_path / "run" / "loss.csv").read_bytes()
        dispatch(["train", "--config", str(cfg)])
        assert (tmp_path / "run" / "loss.csv").read_bytes() == first


def test_every_exported_name_resolves():
    # the package loads its submodules lazily, so a stale entry in its export
    # table would otherwise fail only on first use
    for name in layerpool.__all__:
        assert getattr(layerpool, name) is not None, name


def test_readme_cli_lines_parse():
    # a renamed or removed flag fails here instead of leaving the README stale
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    lines = [line.split("#")[0].split() for line in block.splitlines()
             if line.startswith("layerpool ")]
    parser = _build_parser()
    commands = {parser.parse_args(words[1:]).command for words in lines}
    assert commands == {"train", "eval-sts", "layer-sweep", "inspect-attention", "embed",
                        "index"}
