"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they print;
under default capture they appear in the captured output of failing tests.
"""

import itertools
import math
import time

import numpy as np
import pytest

from layer_stacks import layer_stack, pair_batch, trainable
from layerpool.autodiff import Rng, Tensor, grad_check
from layerpool.corpus import make_synthetic_sts, make_synthetic_triplets
from layerpool.encoder import EncoderConfig
from layerpool.objectives import loss_sup_basic, loss_sup_hard, loss_unsup
from layerpool.pooler import PoolStrategy, attention_matrix, init_pooler_params, pool
from layerpool.search import (
    EmbeddingMatrix,
    brute_force_query,
    build_index,
    embed_corpus,
    evaluate_search,
    query,
)
from layerpool.sts_eval import evaluate, layer_sweep_stacks, spearman
from layerpool.trainer import (
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
    write_loss_trace,
)


_CAPFD = None


@pytest.fixture(autouse=True)
def _expose_capfd(capfd):
    # pytest captures file descriptors by default; keep a handle so _report
    # can emit the per-criterion verdict to the real run log.
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def _report(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[acceptance {criterion}] {label}: {status}{suffix}"
    if _CAPFD is not None:
        with _CAPFD.disabled():
            print(line, flush=True)
    else:
        print(line)


def _random_stacks(gen, lead, n, d) -> Tensor:
    """Stacks of leading shape `lead`; each draws N CLS, then N AVG vectors."""
    x = gen.normal(size=(*lead, 2, n, d))
    return layer_stack(x[..., 0, :, :], x[..., 1, :, :])


def test_criterion_1_gradient_suite():
    """Analytic vs central-difference gradients for each objective + pooler."""
    n_layers, d, m = 4, 8, 4
    gen = np.random.default_rng(11)
    start = time.perf_counter()

    init = init_pooler_params(d, Rng(5))
    seeds = list(init.values())
    strategy = PoolStrategy.ATTN_CLS_AVG_CONCAT

    def embed(stacks, params):
        return pool(stacks, dict(zip(init, params)), strategy)

    anchors = _random_stacks(gen, (m,), n_layers, d)
    positives = _random_stacks(gen, (m,), n_layers, d)
    negatives = _random_stacks(gen, (m,), n_layers, d)
    views2 = _random_stacks(gen, (m,), n_layers, d)

    errors = {
        "sup_basic": grad_check(
            lambda p: loss_sup_basic(embed(anchors, p), embed(positives, p)),
            seeds),
        "unsup": grad_check(
            lambda p: loss_unsup(embed(anchors, p), embed(views2, p)),
            seeds),
        "sup_hard": grad_check(
            lambda p: loss_sup_hard(embed(anchors, p), embed(positives, p),
                                    embed(negatives, p)),
            seeds),
    }
    elapsed = time.perf_counter() - start
    worst = max(errors.values())
    ok = worst < 1e-4 and elapsed < 10.0
    _report(1, "gradient suite", ok,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4, errors
    assert elapsed < 10.0, f"gradient suite took {elapsed:.1f}s"


def _naive_cos(a, b):
    num = sum(x * y for x, y in zip(a, b))
    return num / (math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b)))


def _naive_sup_basic(h, hp, tau):
    m = len(h)
    total = 0.0
    for i in range(m):
        denom = sum(math.exp(_naive_cos(h[i], hp[j]) / tau) for j in range(m))
        total += -math.log(math.exp(_naive_cos(h[i], hp[i]) / tau) / denom)
    return total / m


def _naive_sup_hard(h, hp, hn, tau):
    m = len(h)
    total = 0.0
    for i in range(m):
        denom = sum(math.exp(_naive_cos(h[i], hp[j]) / tau)
                    + math.exp(_naive_cos(h[i], hn[j]) / tau) for j in range(m))
        total += -math.log(math.exp(_naive_cos(h[i], hp[i]) / tau) / denom)
    return total / m


def _naive_rank(xs):
    ranks = []
    for i, x in enumerate(xs):
        below = sum(1 for y in xs if y < x)
        tied = sum(1 for j, y in enumerate(xs) if y == x and j != i)
        ranks.append(1.0 + below + tied / 2.0)
    return ranks


def _naive_spearman(xs, ys):
    rx, ry = _naive_rank(xs), _naive_rank(ys)
    n = len(xs)
    mx = sum(rx) / n
    my = sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx)
                    * sum((b - my) ** 2 for b in ry))
    return num / den


def test_criterion_2_oracle_equivalence():
    """Losses vs naive double loops; spearman vs the exhaustive rank oracle."""
    gen = np.random.default_rng(23)
    worst_loss = 0.0
    for _ in range(100):
        m = int(gen.integers(1, 17))
        d = int(gen.integers(2, 7))
        tau = float(gen.uniform(0.05, 1.0))
        h = gen.normal(size=(m, d))
        hp = gen.normal(size=(m, d))
        hn = gen.normal(size=(m, d))
        worst_loss = max(
            worst_loss,
            abs(loss_sup_basic(Tensor(h), Tensor(hp), tau).item()
                - _naive_sup_basic(h, hp, tau)),
            abs(loss_unsup(Tensor(h), Tensor(hp), tau).item()
                - _naive_sup_basic(h, hp, tau)),
            abs(loss_sup_hard(Tensor(h), Tensor(hp), Tensor(hn), tau).item()
                - _naive_sup_hard(h, hp, hn, tau)),
        )

    xs_base = [1.0, 2.0, 2.0, 3.0, 1.0, 4.0]  # tied inputs included
    ys_base = [5.0, 1.0, 5.0, 3.0, 2.0, 2.0]
    worst_rho = 0.0
    checked = 0
    for n in range(2, 7):
        xs = xs_base[:n]
        for perm in itertools.permutations(range(n)):
            ys = [ys_base[p] for p in perm]
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            worst_rho = max(worst_rho,
                            abs(spearman(xs, ys) - _naive_spearman(xs, ys)))
            checked += 1

    ok = worst_loss < 1e-10 and worst_rho < 1e-12
    _report(2, "oracle equivalence", ok,
            f"loss {worst_loss:.2e}, spearman {worst_rho:.2e} "
            f"over {checked} permutations")
    assert worst_loss < 1e-10
    assert worst_rho < 1e-12


def test_criterion_3_attention_normalization():
    """Every attention row is a probability distribution (or a flagged fallback)."""
    gen = np.random.default_rng(31)
    params_by_d = {}
    worst = 0.0
    fallbacks = 0
    for i in range(1000):
        n = int(gen.integers(1, 6))
        d = int(gen.integers(2, 9))
        if d not in params_by_d:
            params_by_d[d] = trainable(init_pooler_params(d, Rng(d)))
        stack = _random_stacks(gen, (), n, d)
        strategy = [PoolStrategy.ATTN_CLS, PoolStrategy.ATTN_AVG,
                    PoolStrategy.ATTN_CLS_AVG][i % 3]

        soft, fb = attention_matrix(stack, params_by_d[d], strategy, "softmax")
        assert not fb.any()
        worst = max(worst, float(np.abs(soft.data.sum(axis=1) - 1.0).max()))

        ratio, fb = attention_matrix(stack, params_by_d[d], strategy, "ratio")
        fallbacks += int(fb.sum())
        for row in range(n):
            if fb[row]:
                assert np.allclose(ratio.data[row], 1.0 / n)
            else:
                worst = max(worst, abs(float(ratio.data[row].sum()) - 1.0))

        if n == 1:
            assert soft.data[0, 0] == 1.0
            if not fb.any():
                assert ratio.data[0, 0] == 1.0

    ok = worst < 1e-9
    _report(3, "attention normalization", ok,
            f"max row-sum error {worst:.2e}, {fallbacks} ratio fallbacks")
    assert worst < 1e-9


def test_criterion_4_closed_form_losses():
    """M=1 loss is exactly 0; orthogonal constructions give ln(1 + e^-1)."""
    d = 4
    e1 = np.zeros((1, d)); e1[0, 0] = 1.0
    e2 = np.zeros((1, d)); e2[0, 1] = 1.0
    target = math.log(1.0 + math.exp(-1.0))

    single = loss_sup_basic(Tensor(e1), Tensor(e1), tau=1.0).item()

    pair = np.concatenate([e1, e2])  # two mutually orthogonal unit anchors
    two_basic = loss_sup_basic(Tensor(pair), Tensor(pair.copy()), tau=1.0).item()
    two_unsup = loss_unsup(Tensor(pair), Tensor(pair.copy()), tau=1.0).item()
    hard = loss_sup_hard(Tensor(e1), Tensor(e1), Tensor(e2), tau=1.0).item()

    errs = {
        "M=1 zero": abs(single),
        "eq6": abs(two_basic - target),
        "eq7": abs(two_unsup - target),
        "eq8": abs(hard - target),
    }
    ok = single == 0.0 and max(errs.values()) < 1e-12
    _report(4, "closed-form losses", ok,
            ", ".join(f"{k} {v:.1e}" for k, v in errs.items()))
    assert single == 0.0
    for name, err in errs.items():
        assert err < 1e-12, name


EXPERIMENT_ENCODER = EncoderConfig(num_layers=2, hidden_dim=16, num_heads=2,
                                   ffn_dim=32, max_seq_len=11, dropout_p=0.0)
PRETRAIN_SEED = 17
PRETRAIN_STEPS = 150
POOLER_STEPS = 300


def test_criterion_5_directional_experiment(tmp_path):
    """attn_cls_avg_concat >= cls_last on held-out Spearman in >= 4/5 seeds.

    Protocol: a shared pretrained encoder is held fixed
    while each pooling strategy trains the hard-negative objective over its
    frozen per-layer features. cls_last reads the pretrained CLS feature
    directly; the attention strategy must beat that bar by learning to mix
    the layer streams.
    """
    from layerpool.encoder import FrozenFeatures, save_frozen
    from layerpool.sts_eval import StsRecord, evaluate_stacks

    corpus = make_synthetic_triplets(num_pairs=2000)
    records = [StsRecord(r["sent1"], r["sent2"], r["score"])
               for r in make_synthetic_sts(240)]

    pretrain_cfg = TrainConfig(objective="sup_hard", strategy="avg_last",
                               batch_size=16, epochs=3, learning_rate=5e-3,
                               seed=PRETRAIN_SEED, encoder=EXPERIMENT_ENCODER)
    pretrained, _ = train(pretrain_cfg, corpus, max_steps=PRETRAIN_STEPS)

    encoder = pretrained.encoder()
    tokenizer = pretrained.tokenizer()

    stacks = encoder.encode_texts(tokenizer, [
        rec[key] for rec in corpus for key in ("anchor", "positive", "negative")])
    frozen_path = str(tmp_path / "frozen.bin")
    save_frozen(FrozenFeatures.from_stacks(stacks), frozen_path)
    eval_stacks = encoder.encode_texts(tokenizer, [s for r in records for s in (r.sent1, r.sent2)])
    eval_pairs = eval_stacks.reshape(len(records), 2, *eval_stacks.shape[1:])
    golds = [r.gold for r in records]

    def run(strategy, seed):
        cfg = TrainConfig(objective="sup_hard", strategy=strategy,
                          batch_size=16, epochs=5, learning_rate=5e-3,
                          seed=seed, encoder=EXPERIMENT_ENCODER,
                          frozen_features=frozen_path)
        start = time.perf_counter()
        ckpt, _ = train(cfg, corpus, max_steps=POOLER_STEPS)
        assert time.perf_counter() - start < 300.0  # <= 5 min per run
        return evaluate_stacks(eval_pairs, golds, ckpt.constants(),
                               strategy, cfg.norm_mode)

    wins = 0
    scores = []
    for seed in range(5):
        per_seed = {s: run(s, seed) for s in ("cls_last", "attn_cls_avg_concat")}
        wins += per_seed["attn_cls_avg_concat"] >= per_seed["cls_last"]
        scores.append(per_seed)

    ok = wins >= 4
    detail = "; ".join(
        f"seed {i}: attn {s['attn_cls_avg_concat']:.3f} vs cls {s['cls_last']:.3f}"
        for i, s in enumerate(scores))
    _report(5, "directional experiment", ok, f"{wins}/5 wins; {detail}")
    assert wins >= 4, detail


def _train_tiny(strategy, seed=0):
    corpus = make_synthetic_triplets(num_pairs=64)
    cfg = TrainConfig(objective="sup_hard", strategy=strategy, batch_size=8,
                      epochs=1, learning_rate=1e-3, seed=seed,
                      encoder=EXPERIMENT_ENCODER)
    ckpt, _ = train(cfg, corpus)
    return ckpt


def test_criterion_6_detachment_equivalence():
    """Detached embeddings ignore the pooler; index memory matches baselines."""
    texts = [f"c{c}w{k} c{c}w{k + 1} the0" for c in range(8) for k in range(4)]

    ckpt = _train_tiny("attn_cls_avg_concat")
    before = embed_corpus(ckpt, texts, inference_pooling="detached")

    gen = np.random.default_rng(99)
    for name, array in ckpt.params.items():
        if name.startswith("pooler."):
            ckpt.params[name] = gen.normal(size=array.shape)
    after = embed_corpus(ckpt, texts, inference_pooling="detached")
    bitwise = (before.vectors.tobytes() == after.vectors.tobytes())

    baseline = _train_tiny("cls_last")
    emb_pooler = embed_corpus(ckpt, texts, inference_pooling="detached")
    emb_base = embed_corpus(baseline, texts, inference_pooling="detached")
    idx_pooler = build_index(emb_pooler, nlist=4, rng=Rng(1))
    idx_base = build_index(emb_base, nlist=4, rng=Rng(1))
    memory_equal = idx_pooler.memory_bytes() == idx_base.memory_bytes()

    ok = bitwise and memory_equal
    _report(6, "detachment equivalence", ok,
            f"bitwise={bitwise}, memory {idx_pooler.memory_bytes()} "
            f"vs {idx_base.memory_bytes()}")
    assert bitwise
    assert memory_equal


def test_criterion_7_search_exactness_and_mrr():
    """Full-probe IVF equals brute force; planted corpus gives MRR 0.4."""
    gen = np.random.default_rng(47)
    mismatches = 0
    for _ in range(100):
        m = int(gen.integers(20, 2001))
        d = 32
        nlist = int(gen.integers(1, min(17, m + 1)))
        vecs = gen.normal(size=(m, d)).astype(np.float32)
        matrix = EmbeddingMatrix(vectors=vecs)
        index = build_index(matrix, nlist, Rng(int(gen.integers(1 << 30))))
        q = gen.normal(size=d)
        if query(index, q, top_k=10, nprobe=nlist) != brute_force_query(matrix, q, top_k=10):
            mismatches += 1

    # planted corpus: 4 query blocks whose gold ranks are forced to 1, 2, 10, 11
    d = 32
    target_ranks = [1, 2, 10, 11]
    docs, gold_ids = [], []
    queries = np.zeros((4, d))
    distractor_sims = [0.9 - 0.04 * r for r in range(10)]  # 0.9 .. 0.54
    for j, rank in enumerate(target_ranks):
        queries[j, j] = 1.0
        gold_sim = {1: 0.95, 2: 0.88, 10: 0.56, 11: 0.1}[rank]
        sims = distractor_sims[: rank - 1] + [gold_sim] + distractor_sims[rank - 1:]
        for pos, s in enumerate(sims):
            v = np.zeros(d, dtype=np.float32)
            v[j] = s
            v[4 + j] = math.sqrt(1.0 - s * s)
            if pos == rank - 1:
                gold_ids.append(len(docs))
            docs.append(v)
    planted = EmbeddingMatrix(vectors=np.stack(docs))
    index = build_index(planted, nlist=1, rng=Rng(3))
    metrics = evaluate_search(index, queries, gold_ids, nprobe=1)
    expected = float(np.mean([1.0, 0.5, 0.1, 0.0]))
    mrr_exact = metrics.mrr_at_10 == expected

    ok = mismatches == 0 and mrr_exact
    _report(7, "search exactness and metrics", ok,
            f"{mismatches}/100 mismatches, MRR {metrics.mrr_at_10!r} "
            f"(expected {expected!r})")
    assert mismatches == 0
    assert mrr_exact


def test_criterion_8_determinism_and_resume(tmp_path):
    """Identical runs are bit-identical; resume tracks the full run to 1e-12."""
    corpus = make_synthetic_triplets(num_pairs=48)
    cfg = dict(objective="sup_hard", strategy="attn_cls_avg_concat",
               batch_size=8, epochs=2, learning_rate=1e-3,
               encoder=EXPERIMENT_ENCODER)

    ckpt_a, trace_a = train(TrainConfig(**cfg, seed=3), corpus)
    ckpt_b, trace_b = train(TrainConfig(**cfg, seed=3), corpus)
    write_loss_trace(trace_a, tmp_path / "a.csv")
    write_loss_trace(trace_b, tmp_path / "b.csv")
    csv_identical = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    save_checkpoint(ckpt_a, tmp_path / "ck_a")
    save_checkpoint(ckpt_b, tmp_path / "ck_b")
    ckpt_identical = all(
        (tmp_path / "ck_a" / f.name).read_bytes() == f.read_bytes()
        for f in sorted((tmp_path / "ck_b").iterdir())
    )

    half, half_trace = train(TrainConfig(**cfg, seed=3), corpus, max_steps=6)
    save_checkpoint(half, tmp_path / "half")
    _, tail_trace = train(TrainConfig(**cfg, seed=3), corpus,
                          resume_from=load_checkpoint(tmp_path / "half"))
    combined = half_trace + tail_trace
    resume_err = max(abs(la - lb) for (_, la), (_, lb) in zip(combined, trace_a))
    steps_match = [s for s, _ in combined] == [s for s, _ in trace_a]

    ok = csv_identical and ckpt_identical and steps_match and resume_err < 1e-12
    _report(8, "determinism and resume", ok,
            f"csv={csv_identical}, checkpoint={ckpt_identical}, "
            f"resume err {resume_err:.2e}")
    assert csv_identical
    assert ckpt_identical
    assert steps_match
    assert resume_err < 1e-12


def test_criterion_9_layer_sweep_plumbing():
    """A planted gold layer's AVG stream ranks strictly first with rho = 1."""
    gen = np.random.default_rng(61)
    n_layers, d, n_pairs, gold_layer = 4, 8, 25, 2
    golds = [5.0 * i / (n_pairs - 1) for i in range(n_pairs)]
    pairs = []
    for i in range(n_pairs):
        theta = (1.0 - golds[i] / 5.0) * (math.pi / 2)  # cosine rises with gold
        a_planted = np.zeros(d); a_planted[0] = 1.0
        b_planted = np.zeros(d)
        b_planted[0], b_planted[1] = math.cos(theta), math.sin(theta)

        def stack(planted):
            return layer_stack(
                gen.normal(size=(n_layers, d)),
                [planted if k == gold_layer else gen.normal(size=d)
                 for k in range(n_layers)],
            )

        pairs.append((stack(a_planted), stack(b_planted)))

    result = layer_sweep_stacks(pair_batch(pairs), golds)
    scores = dict(result.rows)
    gold_name = f"layer{gold_layer + 1}_avg"
    gold_score = scores.pop(gold_name)
    strictly_first = all(v < gold_score for v in scores.values())

    ok = gold_score == 1.0 and strictly_first
    _report(9, "layer-sweep plumbing", ok,
            f"{gold_name} rho {gold_score!r}, runner-up "
            f"{max(scores.values()):.3f}")
    assert gold_score == 1.0
    assert strictly_first
