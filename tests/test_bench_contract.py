"""The names the benchmark in `perfbench/` patches, reads and calls.

A traced benchmark run wraps every entry of `tracing.PATCH_POINTS`, and
`session.py` reads a few attributes of the search types and trains with
the configs it builds; a rename or a config change that breaks them must
fail here, in the fast suite, and not only in a benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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


def test_session_train_configs_train(tmp_path, monkeypatch):
    # session.py imports its sibling as `from tracing import ...`
    monkeypatch.syspath_prepend(str(PERFBENCH))
    session = _load_perfbench("session")
    corpus = make_synthetic_triplets(num_pairs=session.BATCH_SIZE)
    path = str(tmp_path / "frozen.bin")
    save_frozen(FrozenFeatures(num_layers=session.NUM_LAYERS, hidden_dim=session.DIM,
                               features=session.frozen_rows(corpus, 0)), path)
    # as session.setup and session.initial_checkpoint build their checkpoints
    train(session._train_config(0), corpus, max_steps=0)
    ckpt, trace = train(session._train_config(0, path), corpus, max_steps=1)
    assert len(trace) == 1 and ckpt.config == session._train_config(0, path)
