"""Corpus file formats and the synthetic cluster-paraphrase generator.

JSONL record shapes: pairs {"sent1","sent2"}, triplets {"anchor","positive",
"negative"}, bare {"text"}; STS adds "score". The synthetic generator builds
a topic-cluster world where sentences from the same cluster are paraphrases,
used by the desk-scale directional experiment. Its default seed is fixed and
published here so runs are reproducible.
"""

from __future__ import annotations

import json

import numpy as np

from .artifact import write_file
from .autodiff import Rng

# published seed of the synthetic paraphrase corpus
SYNTH_CORPUS_SEED = 230817

_CORPUS_KEYS = {
    "pairs": ("sent1", "sent2"),
    "triplets": ("anchor", "positive", "negative"),
    "bare": ("text",),
}


def load_jsonl(path) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
    return records


def write_jsonl(records: list[dict], path) -> None:
    write_file(path, ((json.dumps(rec, sort_keys=True) + "\n").encode() for rec in records))


def _sentence(gen: np.random.Generator, cluster_words, shared_words,
              min_len=4, max_len=9) -> str:
    length = int(gen.integers(min_len, max_len + 1))
    words = []
    for _ in range(length):
        if shared_words and gen.random() < 0.35:
            words.append(shared_words[gen.integers(len(shared_words))])
        else:
            words.append(cluster_words[gen.integers(len(cluster_words))])
    return " ".join(words)


def make_synthetic_triplets(num_pairs: int = 2000, num_clusters: int = 8,
                            seed: int = SYNTH_CORPUS_SEED) -> list[dict]:
    """Paraphrase triplets: anchor/positive share a cluster, negative does not."""
    gen = Rng(seed).child("triplets").generator()
    vocab = [[f"c{c}w{k}" for k in range(12)] for c in range(num_clusters)]
    shared = [f"the{k}" for k in range(6)]
    triplets = []
    for i in range(num_pairs):
        c = i % num_clusters
        other = int(gen.integers(num_clusters - 1))
        other = other + 1 if other >= c else other
        triplets.append({
            "anchor": _sentence(gen, vocab[c], shared),
            "positive": _sentence(gen, vocab[c], shared),
            "negative": _sentence(gen, vocab[other], shared),
        })
    return triplets


def make_synthetic_sts(num_records: int = 200, num_clusters: int = 8,
                       seed: int = SYNTH_CORPUS_SEED) -> list[dict]:
    """Held-out STS records: same-cluster pairs gold 5, cross-cluster gold 0."""
    gen = Rng(seed).child("sts").generator()
    vocab = [[f"c{c}w{k}" for k in range(12)] for c in range(num_clusters)]
    shared = [f"the{k}" for k in range(6)]
    records = []
    for i in range(num_records):
        c = int(gen.integers(num_clusters))
        if i % 2 == 0:
            records.append({
                "sent1": _sentence(gen, vocab[c], shared),
                "sent2": _sentence(gen, vocab[c], shared),
                "score": 5.0,
            })
        else:
            other = int(gen.integers(num_clusters - 1))
            other = other + 1 if other >= c else other
            records.append({
                "sent1": _sentence(gen, vocab[c], shared),
                "sent2": _sentence(gen, vocab[other], shared),
                "score": 0.0,
            })
    return records
