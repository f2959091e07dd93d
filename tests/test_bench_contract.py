"""The names the benchmark in `perfbench/` patches, reads and calls.

A traced benchmark run wraps every entry of `tracing.PATCH_POINTS`, and
`session.py` reads a few attributes of the search types and trains with
the configs it builds; a rename or a config change that breaks them must
fail here, in the fast suite, and not only in a benchmark run.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from layerpool.autodiff import Rng
from layerpool.corpus import make_synthetic_triplets
from layerpool.encoder import FrozenFeatures, save_frozen
from layerpool.search import EmbeddingMatrix, build_index
from layerpool.trainer import train

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


PATCH_POINTS = _load_perfbench("tracing").PATCH_POINTS


@pytest.mark.parametrize("module_name, attr, method, span", PATCH_POINTS,
                         ids=[f"{m}.{a}" + (f".{f}" if f else "")
                              for m, a, f, _ in PATCH_POINTS])
def test_patch_point_resolves(module_name, attr, method, span):
    # as Tracer.install: a module attribute, or a method in the class's own __dict__
    module = importlib.import_module(module_name)
    if method is None:
        target = getattr(module, attr)
    else:
        owner = getattr(module, attr)
        assert isinstance(owner, type)
        target = owner.__dict__[method]
    assert callable(target)


def test_attributes_the_session_reads():
    matrix = EmbeddingMatrix(np.eye(6, 3, dtype=np.float32) + 0.5)
    index = build_index(matrix, 2, Rng(0))
    assert matrix.num_rows == 6
    assert index.nlist == 2
    assert index.centroids.shape == (2, 3)
    assert isinstance(index.posting_ids, list) and len(index.posting_ids) == 2
    assert all(isinstance(p, np.ndarray) for p in index.posting_ids)


def _session_and_frozen(tmp_path, monkeypatch, batches=1):
    """session.py, a corpus of `batches` batches of triplets, and its frozen file."""
    # session.py imports its sibling as `from tracing import ...`
    monkeypatch.syspath_prepend(str(PERFBENCH))
    session = _load_perfbench("session")
    corpus = make_synthetic_triplets(num_pairs=session.BATCH_SIZE * batches)
    path = str(tmp_path / "frozen.bin")
    save_frozen(FrozenFeatures(num_layers=session.NUM_LAYERS, hidden_dim=session.DIM,
                               features=session.frozen_rows(corpus, 0)), path)
    return session, corpus, path


def test_session_train_configs_train(tmp_path, monkeypatch):
    session, corpus, path = _session_and_frozen(tmp_path, monkeypatch)
    # as session.setup and session.initial_checkpoint build their checkpoints
    train(session._train_config(0), corpus, max_steps=0)
    ckpt, trace = train(session._train_config(0, path), corpus, max_steps=1)
    assert len(trace) == 1 and ckpt.config == session._train_config(0, path)


@pytest.mark.parametrize("phase", ["train_pooler", "train_encoder"])
def test_train_loop_matches_one_run(tmp_path, monkeypatch, phase):
    # TrainLoop resumes the in-memory checkpoint of its previous unit every
    # `chunk` steps; two batches per epoch make the chunks cross epochs
    session, corpus, path = _session_and_frozen(tmp_path, monkeypatch, batches=2)
    inputs = SimpleNamespace(corpus=corpus, frozen_path=path)
    ledger = session.Ledger()
    loop = session.TrainLoop(phase, session.initial_checkpoint(phase, inputs, 0), corpus,
                             session.TrainPlan(share=1.0, chunk=2, loss_steps=6), ledger)
    for k in range(3):
        loop.unit(k)
    # an uninterrupted run from a fresh step-0 checkpoint, as the loop's first
    # checkpoint was advanced in place
    _, trace = train(loop.ckpt.config, corpus, max_steps=6)
    assert loop.trace == trace and loop.ckpt.step == 6
    assert ledger.attempted == {phase: 6} and ledger.failed == {}


@pytest.mark.parametrize("phase, forward", [("train_pooler", "encoder.frozen_stack"),
                                            ("train_encoder", "encoder.forward")])
def test_traced_unit_sees_each_step(tmp_path, monkeypatch, phase, forward):
    # a trainer change that bypasses a patched name would leave its per-layer
    # metrics without spans; each step is one forward (or frozen stack), one
    # pool, one loss and one backward
    session, corpus, path = _session_and_frozen(tmp_path, monkeypatch)
    inputs = SimpleNamespace(corpus=corpus, frozen_path=path)
    loop = session.TrainLoop(phase, session.initial_checkpoint(phase, inputs, 0), corpus,
                             session.TrainPlan(share=1.0, chunk=2, loss_steps=2),
                             session.Ledger())
    with session.Tracer() as tracer:
        tracer.phase = phase
        loop.unit(0)
    spans = Counter(row[0] for row in tracer.spans if row[1] == phase)
    steps = len(loop.trace)
    assert steps == 2 and spans["trainer.train"] == 1
    for name in (forward, "pooler.pool", "objectives.loss", "autodiff.backward"):
        assert spans[name] == steps, name
