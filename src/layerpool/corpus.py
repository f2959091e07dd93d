"""Record files and the synthetic cluster-paraphrase generator.

Training corpora and STS sets are both JSONL files of records, read by
`load_jsonl` and checked by `check_records`. Record shapes: pairs
{"sent1","sent2"}, triplets {"anchor","positive","negative"}, bare {"text"};
STS adds "score". The synthetic generator builds a topic-cluster world where
sentences from the same cluster are paraphrases, used by the desk-scale
directional experiment. Its default seed is fixed and published here so runs
are reproducible.
"""

from __future__ import annotations

import json

import numpy as np

from .artifact import loads_json, write_file
from .autodiff import Rng

# published seed of the synthetic paraphrase corpus
SYNTH_CORPUS_SEED = 230817


def numbered_lines(path) -> list[tuple[int, str]]:
    """(line number, stripped text) of each non-blank line. Lines are decoded
    one at a time, so a line that is not UTF-8 is named by path:line."""
    lines = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not UTF-8: {exc}") from exc
            if line:
                lines.append((lineno, line))
    return lines


def load_jsonl(path) -> list:
    """The JSON value of each non-blank line, parsed by `artifact.loads_json`; a
    line that is not UTF-8 or not strict JSON is named by path:line."""
    records = []
    for lineno, line in numbered_lines(path):
        try:
            records.append(loads_json(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
    return records


def check_records(records: list, keys, where: str, reader: str) -> None:
    """Every record must be an object holding each key as a non-blank string;
    the first that is not is named by `where`, its index and the key that
    `reader` needs."""
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            raise ValueError(f"{where} record {i} is a {type(record).__name__}, not an object")
        for key in keys:
            if not isinstance(record.get(key), str) or not record[key].strip():
                got = repr(record[key]) if key in record else "no such key"
                raise ValueError(f"{where} record {i}: {reader} needs key {key!r} "
                                 f"as a non-blank string, got {got}")


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
        c = other = int(gen.integers(num_clusters))
        if i % 2:  # odd records pair two clusters, even ones stay in one
            other = int(gen.integers(num_clusters - 1))
            other = other + 1 if other >= c else other
        records.append({
            "sent1": _sentence(gen, vocab[c], shared),
            "sent2": _sentence(gen, vocab[other], shared),
            "score": 0.0 if i % 2 else 5.0,
        })
    return records
