import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layer_stacks import layer_stack, pair_batch, trainable
from layerpool.autodiff import Rng
from layerpool.encoder import EncoderConfig, FrozenFeatures, save_frozen
from layerpool.pooler import PoolStrategy, attention_matrix, init_pooler_params
from layerpool.search import embed_corpus
from layerpool.sts_eval import (
    StsRecord,
    attention_report,
    evaluate,
    evaluate_stacks,
    layer_sweep,
    layer_sweep_stacks,
    load_sts_records,
    rank_average_ties,
    spearman,
)
from layerpool.trainer import TrainConfig, train


def naive_spearman(xs, ys):
    """Sort-based rank oracle with explicit tie averaging, then Pearson."""
    def ranks(vals):
        out = []
        for v in vals:
            less = sum(1 for w in vals if w < v)
            equal = sum(1 for w in vals if w == v)
            out.append(less + (equal + 1) / 2.0)
        return out

    rx, ry = ranks(list(xs)), ranks(list(ys))
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = (sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)) ** 0.5
    return num / den


class TestSpearman:
    def test_identity(self):
        assert spearman([1, 2, 3], [1, 2, 3]) == 1.0

    def test_antisymmetry(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == -1.0

    def test_derived_formula_value(self):
        # 1 - 6 * sum d^2 / (n (n^2 - 1)) = 1 - 12/60
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError):
            spearman([1.0], [1.0])

    def test_zero_variance_surfaced(self):
        with pytest.raises(ValueError, match="variance"):
            spearman([1, 2, 3], [5, 5, 5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            spearman([bad, 0.2, 0.9, 0.5], [1, 2, 3, 4])
        with pytest.raises(ValueError, match="finite"):
            spearman([1, 2, 3, 4], [0.5, bad, 0.9, 0.2])

    def test_exhaustive_against_rank_oracle(self):
        # all ys patterns (with ties) against fixed xs, lengths <= 6
        for n in range(2, 7):
            xs = list(range(n))
            for ys in itertools.product(range(3), repeat=n):
                if len(set(ys)) == 1:
                    continue
                ours = spearman(xs, list(map(float, ys)))
                assert ours == pytest.approx(naive_spearman(xs, ys), abs=1e-12)

    def test_all_permutations_length_le_6(self):
        for n in range(2, 7):
            xs = list(range(n))
            for perm in itertools.permutations(range(n)):
                assert spearman(xs, perm) == pytest.approx(
                    naive_spearman(xs, perm), abs=1e-12
                )

    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        gen = Rng(0).generator()
        for _ in range(50):
            n = int(gen.integers(3, 30))
            xs = gen.integers(0, 8, size=n).astype(float)
            ys = gen.normal(size=n)
            if len(set(xs)) == 1:
                continue
            ref = scipy_stats.spearmanr(xs, ys).statistic
            assert spearman(xs, ys) == pytest.approx(ref, abs=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.integers(-50, 50), min_size=3, max_size=12, unique=True),
           st.sampled_from([np.exp, np.tanh, lambda v: v * 3 + 2]))
    def test_monotone_transform_invariance(self, xs, transform):
        ys = list(np.linspace(0, 1, len(xs)))
        a = spearman([float(x) for x in xs], ys)
        b = spearman([float(transform(np.float64(x) / 10)) for x in xs], ys)
        assert a == pytest.approx(b, abs=1e-9)

    def test_rank_average_ties(self):
        assert np.array_equal(rank_average_ties([10.0, 20.0, 20.0, 30.0]),
                              [1.0, 2.5, 2.5, 4.0])

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.one_of(st.sampled_from([-2.5, -0.0, 0.0, 1.0, 3.0]),
                              st.floats(-1e6, 1e6)), min_size=1, max_size=60))
    def test_ranks_match_scipy_with_heavy_ties(self, xs):
        from scipy.stats import rankdata

        # -0.0 and 0.0 are one value; half-integer ranks are exact in float64
        assert np.array_equal(rank_average_ties(xs), rankdata(xs, method="average"))


def const_stack(vec, n=2):
    vec = np.asarray(vec, dtype=np.float64)
    return layer_stack([vec] * n, [vec] * n)


class TestEvaluateStacks:
    def test_planted_gold_scores_one(self):
        # golds equal exact cosines of hand-planted embeddings
        gen = Rng(1).generator()
        pairs, golds = [], []
        for i in range(10):
            a, b = gen.normal(size=4), gen.normal(size=4)
            cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            pairs.append((const_stack(a), const_stack(b)))
            golds.append(2.5 + 2.5 * cos)  # monotone map into [0, 5]
        params = trainable(init_pooler_params(4, Rng(0)))
        score = evaluate_stacks(pair_batch(pairs), golds, params, PoolStrategy.AVG_LAST)
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_duplicating_records_preserves_score(self):
        gen = Rng(2).generator()
        pairs = [(const_stack(gen.normal(size=3)), const_stack(gen.normal(size=3)))
                 for _ in range(6)]
        golds = list(gen.uniform(0, 5, size=6))
        params = trainable(init_pooler_params(3, Rng(0)))
        a = evaluate_stacks(pair_batch(pairs), golds, params, PoolStrategy.AVG_LAST)
        b = evaluate_stacks(pair_batch(pairs * 2), golds * 2, params, PoolStrategy.AVG_LAST)
        assert a == pytest.approx(b, abs=1e-12)

    def test_record_permutation_invariance(self):
        gen = Rng(3).generator()
        pairs = [(const_stack(gen.normal(size=3)), const_stack(gen.normal(size=3)))
                 for _ in range(8)]
        golds = list(gen.uniform(0, 5, size=8))
        params = trainable(init_pooler_params(3, Rng(0)))
        a = evaluate_stacks(pair_batch(pairs), golds, params, PoolStrategy.AVG_LAST)
        perm = list(gen.permutation(8))
        b = evaluate_stacks(pair_batch([pairs[i] for i in perm]), [golds[i] for i in perm],
                            params, PoolStrategy.AVG_LAST)
        assert a == pytest.approx(b, abs=1e-12)

    def test_constant_gold_raises(self):
        gen = Rng(4).generator()
        pairs = [(const_stack(gen.normal(size=3)), const_stack(gen.normal(size=3)))
                 for _ in range(4)]
        with pytest.raises(ValueError, match="variance"):
            evaluate_stacks(pair_batch(pairs), [3.0] * 4,
                            trainable(init_pooler_params(3, Rng(0))), PoolStrategy.AVG_LAST)


class TestLayerSweepStacks:
    def _planted_pairs(self, gold_layer=1, n=3, d=4, count=12):
        # layer `gold_layer` AVG carries the gold-generating vectors;
        # other layers hold noise
        gen = Rng(5).generator()
        pairs, golds = [], []
        for _ in range(count):
            a, b = gen.normal(size=d), gen.normal(size=d)
            cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            golds.append(2.5 + 2.5 * cos)

            def mk(vec):
                h_c = gen.normal(size=(n, d))
                h_a = gen.normal(size=(n, d))
                h_a[gold_layer] = vec
                return layer_stack(h_c, h_a)

            pairs.append((mk(a), mk(b)))
        return pair_batch(pairs), golds

    def test_row_count(self):
        pairs, golds = self._planted_pairs(gold_layer=0, n=1)
        result = layer_sweep_stacks(pairs, golds)
        assert len(result.rows) == 2  # cls + avg for the single layer

    def test_planted_layer_ranks_first(self):
        pairs, golds = self._planted_pairs(gold_layer=1, n=3)
        result = layer_sweep_stacks(pairs, golds)
        scores = dict(result.rows)
        assert scores["layer2_avg"] == pytest.approx(1.0, abs=1e-12)
        for name, val in scores.items():
            if name != "layer2_avg":
                assert val < 1.0

    def test_csv_output(self, tmp_path):
        pairs, golds = self._planted_pairs()
        result = layer_sweep_stacks(pairs, golds)
        path = tmp_path / "sweep.csv"
        result.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "configuration,spearman"
        assert len(lines) == len(result.rows) + 1


@pytest.fixture(scope="module")
def trained_checkpoint():
    corpus = [{"text": f"tok{i} tok{(i * 3) % 11}"} for i in range(12)]
    cfg = TrainConfig(
        objective="unsup", strategy="attn_cls_avg_concat", batch_size=4,
        epochs=1, seed=0,
        encoder=EncoderConfig(num_layers=2, hidden_dim=8, num_heads=2,
                              ffn_dim=16, max_seq_len=8, dropout_p=0.1),
    )
    ckpt, _ = train(cfg, corpus)
    return ckpt


class TestEvaluateEndToEnd:
    def test_runs_and_reproducible(self, trained_checkpoint):
        records = [StsRecord("tok1 tok2", "tok1 tok3", 4.0),
                   StsRecord("tok4", "tok9 tok10", 1.0),
                   StsRecord("tok5 tok5", "tok5", 5.0),
                   StsRecord("tok7 tok8", "tok2", 0.5)]
        a = evaluate(trained_checkpoint, "cls_last", records)
        b = evaluate(trained_checkpoint, "cls_last", records)
        assert a == b and -1.0 <= a <= 1.0

    def test_gold_range_enforced(self):
        with pytest.raises(ValueError, match="gold"):
            StsRecord("a", "b", 6.0)

    def test_nan_gold_rejected(self):
        # an STS file cannot hold NaN since it is not JSON, but a caller can pass it
        with pytest.raises(ValueError, match="got nan"):
            StsRecord("a", "b", float("nan"))

    @pytest.mark.parametrize("call", [lambda c: evaluate(c, "cls_last", []),
                                      lambda c: layer_sweep(c, [])],
                             ids=["evaluate", "layer_sweep"])
    def test_no_records_rejected(self, trained_checkpoint, call):
        with pytest.raises(ValueError, match="no STS records"):
            call(trained_checkpoint)

    def test_sweep_reproducible(self, trained_checkpoint):
        records = [StsRecord(f"tok{i}", f"tok{i + 1} tok2", float(i % 6))
                   for i in range(8)]
        a = layer_sweep(trained_checkpoint, records)
        b = layer_sweep(trained_checkpoint, records)
        assert a.rows == b.rows


class TestAttentionReport:
    def test_rows_sum_to_one(self, trained_checkpoint):
        reports = attention_report(trained_checkpoint, ["tok1 tok2 tok3"])
        assert len(reports) == 1
        assert np.allclose(reports[0].weights.sum(axis=1), 1.0, atol=1e-9)

    def test_two_lengths_well_formed(self, trained_checkpoint):
        reports = attention_report(
            trained_checkpoint, ["tok1", "tok1 tok2 tok3 tok4 tok5 tok6"]
        )
        n = trained_checkpoint.config.encoder.num_layers
        for rep in reports:
            assert rep.weights.shape == (n, n)
            assert np.allclose(rep.weights.sum(axis=1), 1.0, atol=1e-9)

    def test_fixed_pooling_rejected(self, trained_checkpoint):
        import dataclasses

        fixed = dataclasses.replace(trained_checkpoint.config, strategy="cls_last")
        ckpt = dataclasses.replace(trained_checkpoint, config=fixed)
        with pytest.raises(ValueError, match="not an attention strategy"):
            attention_report(ckpt, ["tok1"])

    def test_ratio_mode_splits_weights_and_fallback_per_text(self):
        import dataclasses

        corpus = [{"text": f"tok{i} tok{(i * 3) % 11}"} for i in range(12)]
        cfg = TrainConfig(objective="unsup", strategy="attn_cls_avg_concat", batch_size=4,
                          epochs=1, seed=0, norm_mode="ratio",
                          encoder=EncoderConfig(num_layers=3, hidden_dim=8, num_heads=2,
                                                ffn_dim=16, max_seq_len=8, dropout_p=0.1))
        ckpt, _ = train(cfg, corpus)
        falls, keeps = "tok1 tok2 tok3", "tok4 tok9 tok5 tok7 tok10"
        # W_k projects out the sum of `falls`'s AVG vectors, so each of its
        # rows of raw scores q_i·W_k h_j sums to ~0 and falls back
        total = ckpt.stacks([falls]).data[0, :, 1].sum(axis=0)
        w_k = np.eye(8) - np.outer(total, total) / (total @ total)
        ckpt = dataclasses.replace(ckpt, params={**ckpt.params, "pooler.w_k": w_k})
        reports = attention_report(ckpt, [falls, keeps])
        for text, rep in zip([falls, keeps], reports):
            matrix, fallback = attention_matrix(ckpt.stacks([text]), ckpt.constants(),
                                                PoolStrategy.ATTN_CLS_AVG_CONCAT, "ratio")
            assert np.allclose(rep.weights, matrix.data[0], atol=1e-12)
            assert np.array_equal(rep.fallback, fallback[0])
        assert reports[0].fallback.all() and not reports[1].fallback.any()
        assert np.array_equal(reports[0].weights, np.full((3, 3), 1.0 / 3.0))

    def test_identical_layers_uniform_on_fresh_init(self):
        vec_c, vec_a = np.ones(4), np.full(4, 2.0)
        stack = layer_stack([vec_c] * 3, [vec_a] * 3)
        matrix, _ = attention_matrix(stack, trainable(init_pooler_params(4, Rng(0))),
                                     PoolStrategy.ATTN_CLS_AVG, "softmax")
        assert np.allclose(matrix.data, 1.0 / 3.0, atol=1e-12)


def test_load_sts_records(tmp_path):
    jsonl = tmp_path / "r.jsonl"
    jsonl.write_text('{"sent1": "a", "sent2": "b", "score": 3.5}\n\n'
                     '{"sent1": "c d", "sent2": "e", "score": 5}\n')
    first, second = load_sts_records(jsonl)
    assert (first.sent1, first.sent2, first.gold) == ("a", "b", 3.5)
    assert (second.sent1, second.gold) == ("c d", 5)


@pytest.mark.parametrize("line, why", [
    ('{"sent1": "a", "sent2": "b", "score": 3.5', r"r.txt:3: invalid JSON"),
    ('{"sent1": "a", "sent2": "b"}', r"r.txt record 1: .*score.*got None"),
    ('{"sent1": "a", "sent2": "b", "score": null}', r"r.txt record 1: .*score.*got None"),
    ('{"sent1": "a", "sent2": "b", "score": "high"}', r"r.txt record 1: .*got 'high'"),
    ('{"sent1": "a", "sent2": "b", "score": 6.0}', r"r.txt record 1: .*\[0, 5\], got 6.0"),
    # NaN, Infinity and a repeated key are not JSON: refused as the line is parsed
    ('{"sent1": "a", "sent2": "b", "score": NaN}',
     r"r.txt:3: invalid JSON: NaN is not a JSON value"),
    ('{"sent1": "a", "sent2": "b", "score": -Infinity}',
     r"r.txt:3: invalid JSON: -Infinity is not a JSON value"),
    ('{"sent1": "a", "sent2": "b", "score": 9.0, "score": 1.0}',
     r"r.txt:3: invalid JSON: duplicate key 'score'"),
    ('{"sent1": "a", "sent2": "b", "score": true}', r"r.txt record 1: .*got True"),
    ('{"sent1": "a", "sent2": "b", "score": "3.5"}', r"r.txt record 1: .*got '3.5'"),
    ('{"sent1": 5, "sent2": "b", "score": 1.0}', r"r.txt record 1: .*'sent1'.*got 5$"),
    ('{"sent1": "a", "sent2": " ", "score": 1.0}', r"r.txt record 1: .*'sent2'.*got ' '$"),
    ('{"sent2": "b", "score": 1.0}', r"r.txt record 1: .*'sent1'.*no such key"),
    ('["a", "b", 1.0]', r"r.txt record 1 is a list, not an object"),
], ids=["bad-json", "missing-key", "null-score", "non-numeric", "out-of-range", "nan-score",
        "infinite-score", "duplicate-score", "bool-score", "string-score", "integer-text",
        "blank-text", "missing-text", "json-array"])
def test_bad_sts_record_names_its_line(tmp_path, line, why):
    # the bad record is the second, on line 3 after a blank line
    path = tmp_path / "r.txt"
    path.write_text(f'{{"sent1": "a", "sent2": "b", "score": 1.0}}\n\n{line}\n')
    with pytest.raises(ValueError, match=why):
        load_sts_records(path)


def test_sts_file_that_is_not_utf8_is_named_by_line(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_bytes(b"\xff\xfe" + '{"sent1": "a"}\n'.encode("utf-16-le"))
    with pytest.raises(ValueError, match=r"r.jsonl:1: not UTF-8"):
        load_sts_records(path)


def test_frozen_features_checkpoint_refuses_text_in_one_place(tmp_path):
    gen = Rng(0).generator()
    features = gen.normal(size=(8, 2, 2, 4)).astype(np.float32)
    save_frozen(FrozenFeatures(num_layers=2, hidden_dim=4, features=features),
                tmp_path / "f.lapf")
    cfg = TrainConfig(objective="unsup", batch_size=4, epochs=1,
                      frozen_features=str(tmp_path / "f.lapf"))
    ckpt, _ = train(cfg, [{"text": f"tok{i}"} for i in range(8)])
    with pytest.raises(ValueError, match="no encoder") as direct:
        ckpt.encoder()
    records = [StsRecord("tok1", "tok2", 1.0), StsRecord("tok3", "tok4", 2.0)]
    for call in (lambda: evaluate(ckpt, "cls_last", records),
                 lambda: layer_sweep(ckpt, records),
                 lambda: attention_report(ckpt, ["tok1"]),
                 lambda: embed_corpus(ckpt, ["tok1"])):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == str(direct.value)
