"""The artifact module: atomic files, the checked `.npy` reader and writer,
and the checked directory format of checkpoints and indexes under
truncation, corruption and interrupted writes."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import struct
import tempfile
import tracemalloc
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from layerpool import artifact
from layerpool.artifact import (
    ArtifactCorruptError,
    ArtifactVersionError,
    read_dir,
    read_npy,
    write_dir,
    write_file,
    write_npy,
)
from layerpool.autodiff import Rng
from layerpool.cli import _load_embeddings
from layerpool.config import train_config_doc
from layerpool.corpus import write_jsonl
from layerpool.encoder import EncoderConfig, FrozenFeatures, load_frozen, save_frozen
from layerpool.search import EmbeddingMatrix, build_index, load_index, save_index
from layerpool.trainer import TrainConfig, load_checkpoint, save_checkpoint, train

TYPED = (ArtifactCorruptError, ArtifactVersionError)
PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def tiny_checkpoint(steps):
    corpus = [{"sent1": f"w{i} w{(i + 1) % 8}", "sent2": f"w{i} w{(i + 2) % 8}"}
              for i in range(8)]
    config = TrainConfig(objective="sup_basic", batch_size=4, epochs=2,
                         encoder=EncoderConfig(num_layers=1, hidden_dim=4, num_heads=2,
                                               ffn_dim=8, max_seq_len=6, dropout_p=0.0))
    return train(config, corpus, max_steps=steps)[0]


def tiny_index(seed):
    gen = Rng(seed).generator()
    return build_index(EmbeddingMatrix(gen.normal(size=(30, 4)).astype(np.float32)), 3, Rng(2))


def checkpoint_arrays(ckpt):
    return {f"{group}.{k}": v for group, named in (("param", ckpt.params),
                                                    ("adam_m", ckpt.adam_m),
                                                    ("adam_v", ckpt.adam_v))
            for k, v in named.items()}


def index_arrays(index):
    return {"centroids": index.centroids, "posting_ids": index.ids,
            "posting_vectors": index.vectors}


def checkpoint_state(ckpt):
    """Everything a checkpoint holds, as comparable bytes and JSON values."""
    return ({k: (v.dtype.str, v.shape, v.tobytes()) for k, v in checkpoint_arrays(ckpt).items()},
            ckpt.step, ckpt.vocab, train_config_doc(ckpt.config))


def index_state(index):
    return (index.centroids.tobytes(), [p.tobytes() for p in index.posting_ids],
            [v.tobytes() for v in np.split(index.vectors, index.offsets[1:-1])])


KINDS = {
    "checkpoint": (lambda: tiny_checkpoint(1), lambda: tiny_checkpoint(4),
                   save_checkpoint, load_checkpoint, checkpoint_state),
    # same m, d and nlist, so old and new files have the same lengths
    "index": (lambda: tiny_index(14), lambda: tiny_index(15),
              save_index, load_index, index_state),
}


@pytest.fixture(scope="module", params=sorted(KINDS))
def saved(request, tmp_path_factory):
    """(directory of a saved artifact, its loader) per kind."""
    make_old, _, save, load, _ = KINDS[request.param]
    path = tmp_path_factory.mktemp(request.param) / "artifact"
    save(make_old(), path)
    return path, load


def files_of(path):
    return sorted(p.name for p in path.iterdir())


@contextlib.contextmanager
def mutated_copy(path, mutate):
    """A copy of the artifact at `path`, after `mutate(copy)`."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "artifact"
        shutil.copytree(path, copy)
        mutate(copy)
        yield copy


@PROPERTY
@given(data=st.data())
def test_truncating_any_file_at_any_offset_is_typed(saved, data):
    path, load = saved
    name = data.draw(st.sampled_from(files_of(path)))
    blob = (path / name).read_bytes()
    cut = data.draw(st.integers(0, len(blob) - 1))
    with mutated_copy(path, lambda c: (c / name).write_bytes(blob[:cut])) as copy:
        with pytest.raises(TYPED):
            load(copy)


@PROPERTY
@given(data=st.data())
def test_flipping_any_byte_of_any_array_file_is_typed(saved, data):
    path, load = saved
    name = data.draw(st.sampled_from([n for n in files_of(path) if n != "header.json"]))
    blob = bytearray((path / name).read_bytes())
    blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
    with mutated_copy(path, lambda c: (c / name).write_bytes(bytes(blob))) as copy:
        with pytest.raises(ArtifactCorruptError, match="sha256"):
            load(copy)


def test_deleting_any_file_is_typed(saved):
    path, load = saved
    for name in files_of(path):
        with mutated_copy(path, lambda c: (c / name).unlink()) as copy:
            with pytest.raises(ArtifactCorruptError):
                load(copy)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_save_load_round_trip_bit_for_bit(kind, tmp_path):
    _, make_new, save, load, state = KINDS[kind]
    artifact_ = make_new()
    save(artifact_, tmp_path / "a")
    assert state(load(tmp_path / "a")) == state(artifact_)
    save(artifact_, tmp_path / "b")
    for name in files_of(tmp_path / "a"):  # the bytes do not depend on the path
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


MEMBERS = {"checkpoint": (lambda: tiny_checkpoint(4), save_checkpoint, checkpoint_arrays),
           "index": (lambda: tiny_index(15), save_index, index_arrays)}


@pytest.mark.parametrize("kind", sorted(MEMBERS))
def test_every_member_is_a_plain_npy_file(kind, tmp_path):
    make, save, arrays_of = MEMBERS[kind]
    artifact_ = make()
    save(artifact_, tmp_path / "a")
    arrays = arrays_of(artifact_)
    assert files_of(tmp_path / "a") == sorted(["header.json", *(f"{n}.npy" for n in arrays)])
    for name, array in arrays.items():
        got = np.load(tmp_path / "a" / f"{name}.npy", allow_pickle=False)
        assert (got.dtype.str, got.shape) == (array.dtype.str, array.shape), name
        assert got.tobytes() == array.tobytes(), name


@pytest.mark.parametrize("kind", sorted(MEMBERS))
def test_valid_npy_member_of_other_bytes_fails_its_digest(kind, tmp_path):
    make, save, arrays_of = MEMBERS[kind]
    artifact_ = make()
    save(artifact_, tmp_path / "a")
    load = KINDS[kind][3]
    for name, array in arrays_of(artifact_).items():
        # same dtype and shape, so only the digest tells the files apart
        with mutated_copy(tmp_path / "a",
                          lambda c: np.save(c / f"{name}.npy", array + 1)) as copy:
            with pytest.raises(ArtifactCorruptError, match=re.escape(f"{name}.npy: sha256")):
                load(copy)


@PROPERTY
@given(arrays=st.dictionaries(
           st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True),
           hnp.arrays(st.sampled_from(["<f8", "<f4", "<u4"]),
                      hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)),
           max_size=4),
       meta=st.dictionaries(st.text(max_size=5),
                            st.none() | st.booleans() | st.integers() | st.text(max_size=5)
                            | st.floats(allow_nan=False, allow_infinity=False), max_size=3))
def test_write_dir_read_dir_round_trip(arrays, meta):
    with tempfile.TemporaryDirectory() as tmp:
        write_dir(Path(tmp) / "d", "fmt", 7, meta, arrays)
        got_meta, got = read_dir(Path(tmp) / "d", "fmt", 7)
    assert got_meta == meta
    assert list(got) == list(arrays)
    for name, a in arrays.items():
        assert (got[name].dtype.str, got[name].shape) == (a.dtype.str, a.shape)
        assert got[name].tobytes() == a.tobytes()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_json_writers_refuse_what_the_reader_refuses(value, tmp_path):
    # `loads_json` refuses NaN and ±Infinity, so no writer may write them
    write_dir(tmp_path / "d", "fmt", 1, {"t": 1.0}, {"x": np.zeros(2)})
    write_jsonl([{"text": "a b", "score": 1.0}], tmp_path / "c.jsonl")
    before = tree(tmp_path)
    with pytest.raises(ValueError, match="JSON"):
        write_dir(tmp_path / "d", "fmt", 1, {"t": value}, {"x": np.zeros(2)})
    with pytest.raises(ValueError, match="JSON"):
        write_jsonl([{"text": "a b", "score": value}], tmp_path / "c.jsonl")
    assert tree(tmp_path) == before


def test_frozen_truncated_at_any_offset_is_typed(tmp_path):
    # both readers of the one .npy format: frozen features and embeddings
    feats = FrozenFeatures(num_layers=2, hidden_dim=3,
                           features=np.arange(36, dtype=np.float32).reshape(3, 2, 2, 3))
    vectors = np.arange(1, 13, dtype=np.float32).reshape(4, 3)
    save_frozen(feats, tmp_path / "f")
    write_npy(tmp_path / "e", vectors)
    assert np.array_equal(load_frozen(tmp_path / "f").features, feats.features)
    assert _load_embeddings(tmp_path / "e").num_rows == 4
    for name, load in (("f", load_frozen), ("e", _load_embeddings)):
        blob = (tmp_path / name).read_bytes()
        for cut in range(len(blob)):
            (tmp_path / name).write_bytes(blob[:cut])
            with pytest.raises(TYPED):
                load(tmp_path / name)


# ---- .npy files ----------------------------------------------------------


@pytest.mark.parametrize("array", [
    np.arange(24, dtype="<f4").reshape(2, 3, 4),
    np.arange(6, dtype=">i8").reshape(3, 2),
    np.asfortranarray(np.arange(12.0).reshape(3, 4)),
    np.array([True, False]),
    np.float64(2.5),
    np.zeros((0, 5), dtype="<u4"),
], ids=["f32-3d", "big-endian", "fortran", "bool", "0-d", "empty"])
def test_npy_round_trip_matches_numpy(array, tmp_path):
    write_npy(tmp_path / "a", array)
    written = (tmp_path / "a").read_bytes()
    buf = io.BytesIO()
    np.save(buf, np.asarray(array, order="C"))
    assert written == buf.getvalue()  # any numpy reads it
    np.save(tmp_path / "b.npy", array)  # Fortran order kept, as numpy writes it
    for path in (tmp_path / "a", tmp_path / "b.npy"):
        got = read_npy(path)
        assert got.dtype == np.asarray(array).dtype and np.array_equal(got, array)


def test_write_npy_streams_the_array(tmp_path):
    array = np.ones((1024, 1024), dtype=np.float32)  # 4 MiB
    tracemalloc.start()
    try:
        write_npy(tmp_path / "a", array)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < array.nbytes // 8


@pytest.mark.parametrize("digest", [False, True], ids=["plain", "digest"])
def test_read_npy_reads_into_one_buffer(digest, tmp_path):
    array = np.ones((1024, 1024), dtype=np.float32)  # 4 MiB
    write_npy(tmp_path / "a", array)
    sha256 = hashlib.sha256((tmp_path / "a").read_bytes()).hexdigest() if digest else None
    tracemalloc.start()
    try:
        got = read_npy(tmp_path / "a", sha256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, array)
    assert array.nbytes <= peak < array.nbytes * 9 // 8  # no second full-size copy


@pytest.mark.parametrize("array", [
    np.arange(12.0).reshape(3, 4),
    np.asfortranarray(np.arange(24, dtype=">i4").reshape(2, 3, 4)),
    np.array(2.5),
    np.zeros((0, 3), dtype=np.float32),
    np.array([True, False]),
], ids=["c-order", "fortran-order", "0-d", "empty", "bool"])
def test_read_npy_returns_an_array_that_owns_its_buffer(array, tmp_path):
    # not a view of a buffer holding the whole file, header bytes included
    np.save(tmp_path / "a.npy", array)
    got = read_npy(tmp_path / "a.npy")
    assert got.base is None and got.flags.writeable
    assert got.dtype == array.dtype and got.shape == array.shape
    assert (got.flags.c_contiguous, got.flags.f_contiguous) == (array.flags.c_contiguous,
                                                                array.flags.f_contiguous)
    assert np.array_equal(got, array)


def _npy_with_header(header: str, data: bytes = b"") -> bytes:
    text = header.encode("latin1")
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", len(text)) + text + data


@pytest.mark.parametrize("kind, blob", [
    ("npz", None),
    ("object", None),
    ("structured", None),
    ("complex", None),
    ("lapf", b"LAPF" + struct.pack("<IIII", 1, 1, 1, 1) + bytes(8)),
    ("text", b"1.0 2.0\n"),
    ("version-2", None),
    ("version-3", b"\x93NUMPY\x03\x00" + bytes(8)),
], ids=lambda x: x if isinstance(x, str) else "")
def test_npy_of_another_format_is_a_version_error(kind, blob, tmp_path):
    path = tmp_path / "a"
    if kind == "version-2":  # np.save writes it only for headers over 64 KiB
        with open(path, "wb") as fh:
            np.lib.format.write_array(fh, np.ones(3), version=(2, 0))
    elif kind == "npz":
        np.savez(tmp_path / "a.npz", x=np.ones(3))
        path = tmp_path / "a.npz"
    elif blob is None:
        dtype = {"object": object, "structured": [("x", "<f4"), ("y", "<i4")],
                 "complex": np.complex64}[kind]
        np.save(tmp_path / "a.npy", np.zeros(3, dtype=dtype), allow_pickle=True)
        path = tmp_path / "a.npy"
    else:
        path.write_bytes(blob)
    with pytest.raises(ArtifactVersionError):
        read_npy(path)


@pytest.mark.parametrize("header, data", [
    ("{'descr': '<f4', 'fortran_order': False, 'shape': (2,), }", bytes(12)),
    ("{'descr': '<f4', 'fortran_order': False, 'shape': (2,), }", bytes(4)),
    ("{'descr': '<f4', 'fortran_order': False, 'shape': (-1, -1), }", bytes(4)),
    ("{'descr': '<f4', 'fortran_order': False, 'shape': (10**12, 10**12), }", b""),
    ("{'descr': '<f4', 'fortran_order': False}", b""),
    ("{'descr': 'zz', 'fortran_order': False, 'shape': (1,), }", bytes(4)),
    ("not a dict", b""),
    ("{'descr': '<f4', 'fortran_order': False, 'shape': (2,", bytes(8)),
    ("{'descr': '<f4', 'fortran_order': False, 'shape': (2,), }\n    x\n  y\n", bytes(8)),
], ids=["long", "short", "negative", "huge", "no-shape", "bad-dtype", "not-a-dict",
        "token-error", "indentation-error"])
def test_malformed_npy_is_corrupt(header, data, tmp_path):
    (tmp_path / "a").write_bytes(_npy_with_header(header, data))
    with pytest.raises(ArtifactCorruptError):
        read_npy(tmp_path / "a")


# ---- interrupted writes --------------------------------------------------


def crash_states(monkeypatch, root, save):
    """Copies of `root` as the process dying after each file write and each
    rename that `save` makes would leave it, in order."""
    states = []
    real_write, real_rename = artifact._write, os.rename

    def snapshot():
        states.append(root.parent / f"crash{len(states)}")
        shutil.copytree(root, states[-1], symlinks=True)

    def write(path, chunks):
        real_write(path, chunks)
        snapshot()

    def rename(src, dst):
        real_rename(src, dst)
        snapshot()

    with monkeypatch.context() as m:
        m.setattr(artifact, "_write", write)
        m.setattr(os, "rename", rename)
        save()
    return states


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_interrupted_rewrite_never_loads_a_mix(kind, tmp_path, monkeypatch):
    make_old, make_new, save, load, state = KINDS[kind]
    old, new = make_old(), make_new()
    root = tmp_path / "root"
    save(old, root / "target")
    n_arrays = len(files_of(root / "target")) - 1
    states = crash_states(monkeypatch, root, lambda: save(new, root / "target"))
    # one write per array, the header, then the two renames
    assert len(states) == n_arrays + 3
    outcomes = []
    for crashed in states:
        try:
            outcomes.append(state(load(crashed / "target")))
        except TYPED:
            outcomes.append("typed error")
    assert outcomes[:-2] == [state(old)] * (n_arrays + 1)
    assert outcomes[-2:] == ["typed error", state(new)]  # between the renames, then done
    assert state(old) != state(new)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_failed_rewrite_keeps_previous_and_cleans_up(kind, tmp_path, monkeypatch):
    make_old, make_new, save, load, state = KINDS[kind]
    old, new = make_old(), make_new()
    save(old, tmp_path / "target")
    n_steps = len(files_of(tmp_path / "target")) + 2
    real_write, real_rename = artifact._write, os.rename
    for fail_at in range(n_steps):
        calls = []

        def failing(real):
            def call(*args):
                calls.append(args)
                if len(calls) - 1 == fail_at:
                    raise OSError("injected")
                real(*args)
            return call

        with monkeypatch.context() as m:
            m.setattr(artifact, "_write", failing(real_write))
            m.setattr(os, "rename", failing(real_rename))
            with pytest.raises(OSError, match="injected"):
                save(new, tmp_path / "target")
        assert state(load(tmp_path / "target")) == state(old)
        assert files_of(tmp_path) == ["target"]


# hidden names that no save of `target` (or `out.bin`) makes
UNRELATED = [".target", ".target.keep", ".target.tmp-notahex0", ".target.old.tmp-0123abcd",
             ".other.tmp-0123abcd", ".out.bin.keep"]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_save_removes_leftovers_of_killed_saves(kind, tmp_path):
    make_old, make_new, save, load, state = KINDS[kind]
    new = make_new()
    save(make_old(), tmp_path / "target")
    # a save killed before its renames leaves a partial `.tmp-*` directory, one
    # killed between them the previous artifact as `.old-*`
    shutil.copytree(tmp_path / "target", tmp_path / ".target.old-89abcdef")
    (tmp_path / ".target.tmp-0123abcd").mkdir()
    (tmp_path / ".target.tmp-0123abcd" / "centroids.npy").write_bytes(b"part")
    (tmp_path / ".target.tmp-deadbeef").write_bytes(b"partial")
    for name in UNRELATED:
        (tmp_path / name).write_text("keep me")
    save(new, tmp_path / "target")
    assert state(load(tmp_path / "target")) == state(new)
    assert files_of(tmp_path) == sorted(["target", *UNRELATED])


def test_write_file_removes_its_leftover_temp_files(tmp_path):
    (tmp_path / ".out.bin.tmp-0123abcd").write_bytes(b"partial")
    keep = [*UNRELATED, ".out.bin.old-0123abcd"]  # write_file never makes `.old-*`
    for name in keep:
        (tmp_path / name).write_text("keep me")
    write_file(tmp_path / "out.bin", [b"new"])
    assert (tmp_path / "out.bin").read_bytes() == b"new"
    assert files_of(tmp_path) == sorted(["out.bin", *keep])


# ---- what write_dir may replace ------------------------------------------


def tree(path):
    return {str(p.relative_to(path)): p.read_bytes() if p.is_file() else None
            for p in sorted(path.rglob("*"))}


def other_files(target):
    target.mkdir()
    (target / "notes.txt").write_text("keep me")


def other_format(target):
    save_index(tiny_index(14), target)


def broken_header(target):
    target.mkdir()
    (target / "header.json").write_text("{nope")


@pytest.mark.parametrize("setup", [other_files, other_format, broken_header])
def test_write_dir_refuses_a_directory_of_other_files(setup, tmp_path):
    target = tmp_path / "target"
    setup(target)
    before = tree(tmp_path)
    with pytest.raises(ValueError, match="refusing"):
        save_checkpoint(tiny_checkpoint(0), target)
    assert tree(tmp_path) == before


def test_write_dir_refuses_a_file_or_a_link(tmp_path):
    (tmp_path / "file").write_text("keep me")
    save_index(tiny_index(14), tmp_path / "real")
    (tmp_path / "link").symlink_to(tmp_path / "real")
    before = tree(tmp_path)
    for name in ("file", "link"):
        with pytest.raises(ValueError, match="refusing"):
            save_index(tiny_index(15), tmp_path / name)
    assert tree(tmp_path) == before


def test_write_dir_fills_an_empty_directory(tmp_path):
    (tmp_path / "target").mkdir()
    save_index(tiny_index(14), tmp_path / "target")
    assert index_state(load_index(tmp_path / "target")) == index_state(tiny_index(14))


# ---- write_file and malformed headers --------------------------------------


def test_write_file_replaces_whole_or_not_at_all(tmp_path, monkeypatch):
    target = tmp_path / "out.bin"
    write_file(target, [b"old"])
    write_file(target, [b"new ", memoryview(b"bytes"), np.arange(2, dtype="<u4")])
    assert target.read_bytes() == b"new bytes" + np.arange(2, dtype="<u4").tobytes()

    def chunks():
        yield b"partial"
        raise OSError("injected")

    with pytest.raises(OSError, match="injected"):
        write_file(target, chunks())
    assert target.read_bytes() == b"new bytes" + np.arange(2, dtype="<u4").tobytes()
    assert files_of(tmp_path) == ["out.bin"]


def edit_header(path, edit):
    header = json.loads((path / "header.json").read_text())
    edit(header)
    (path / "header.json").write_text(json.dumps(header))


def set_in(keys, value):
    def edit(header):
        node = header
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value
    return edit


def drop(keys):
    def edit(header):
        node = header
        for k in keys[:-1]:
            node = node[k]
        del node[keys[-1]]
    return edit


CHECKPOINT_EDITS = {
    "unknown config key": set_in(["meta", "config", "warmup"], 1),
    "unknown encoder key": set_in(["meta", "config", "encoder", "layers"], 2),
    "freeze_mlp key": set_in(["meta", "config", "freeze_mlp"], False),
    "missing config key": drop(["meta", "config", "seed"]),
    "missing encoder key": drop(["meta", "config", "encoder", "num_heads"]),
    "string seed": set_in(["meta", "config", "seed"], "3"),
    "float batch_size": set_in(["meta", "config", "batch_size"], 4.5),
    "bool epochs": set_in(["meta", "config", "epochs"], True),
    "list encoder": set_in(["meta", "config", "encoder"], []),
    "zero heads": set_in(["meta", "config", "encoder", "num_heads"], 0),
    "config not an object": set_in(["meta", "config"], "sup_basic"),
    "infinite temperature": set_in(["meta", "config", "temperature"], float("inf")),
    "nan learning_rate": set_in(["meta", "config", "learning_rate"], float("nan")),
    "negative step": set_in(["meta", "step"], -1),
    "float step": set_in(["meta", "step"], 2.0),
    "vocab list": set_in(["meta", "vocab"], [1, 2]),
    "vocab string id": set_in(["meta", "vocab", "w0"], "3"),
    "tokenizer mode": set_in(["meta", "tokenizer_mode"], "bpe"),
    "missing step": drop(["meta", "step"]),
    "unknown meta key": set_in(["meta", "extra"], 0),
    "unknown top key": set_in(["extra"], 0),
    "meta not an object": set_in(["meta"], []),
    "arrays not a list": set_in(["arrays"], {}),
    "shape string": set_in(["arrays", 0, "shape"], "4"),
    "negative extent": set_in(["arrays", 0, "shape"], [-4]),
    "unknown dtype": set_in(["arrays", 0, "dtype"], "<i8"),
    "dtype list": set_in(["arrays", 0, "dtype"], ["<f8"]),
    "file outside": set_in(["arrays", 0, "file"], "../outside.f64"),
    "name outside": set_in(["arrays", 0, "name"], "../outside"),
    "missing sha256": drop(["arrays", 0, "sha256"]),
    "null sha256": set_in(["arrays", 0, "sha256"], None),
}


@pytest.mark.parametrize("edit", CHECKPOINT_EDITS.values(), ids=CHECKPOINT_EDITS)
def test_malformed_checkpoint_header_is_corrupt(edit, tmp_path):
    save_checkpoint(tiny_checkpoint(1), tmp_path / "ck")
    edit_header(tmp_path / "ck", edit)
    with pytest.raises(ArtifactCorruptError):
        load_checkpoint(tmp_path / "ck")


def test_unknown_checkpoint_array_group_is_corrupt(tmp_path):
    # a consistent directory (file name and sha256 match) with an array
    # outside the param/adam_m/adam_v groups
    path = tmp_path / "ck"
    save_checkpoint(tiny_checkpoint(1), path)
    first = json.loads((path / "header.json").read_text())["arrays"][0]
    os.rename(path / f"{first['name']}.npy", path / "other.x.npy")
    edit_header(path, lambda h: h["arrays"][0].update(name="other.x"))
    with pytest.raises(ArtifactCorruptError, match="other.x"):
        load_checkpoint(path)


INDEX_EDITS = {
    "posting_sizes string": set_in(["meta", "posting_sizes"], "10"),
    "posting_sizes float": set_in(["meta", "posting_sizes", 0], 10.0),
    "posting_sizes bool": set_in(["meta", "posting_sizes", 0], True),
    "posting_sizes negative": set_in(["meta", "posting_sizes", 0], -1),
    "posting_sizes short": lambda h: h["meta"]["posting_sizes"].pop(),
    "missing posting_sizes": drop(["meta", "posting_sizes"]),
    "other metric": set_in(["meta", "metric"], "l2"),
    "version string": set_in(["version"], "2"),
}


@pytest.mark.parametrize("edit", INDEX_EDITS.values(), ids=INDEX_EDITS)
def test_malformed_index_header_is_typed(edit, tmp_path):
    save_index(tiny_index(14), tmp_path / "idx")
    edit_header(tmp_path / "idx", edit)
    with pytest.raises(TYPED):
        load_index(tmp_path / "idx")


@pytest.mark.parametrize("pattern, repl, named", [
    # plain `json` read this checkpoint as step 7
    (r'"step": 1\b', '"step": 1, "step": 7', "duplicate key 'step'"),
    (r'"learning_rate": [^,\n]+', '"learning_rate": NaN', "NaN is not a JSON value"),
    (r'"temperature": [^,\n]+', '"temperature": Infinity', "Infinity is not a JSON value"),
], ids=["duplicate", "nan", "infinity"])
def test_checkpoint_header_outside_strict_json_is_corrupt(pattern, repl, named, tmp_path):
    save_checkpoint(tiny_checkpoint(1), tmp_path / "ck")
    header = tmp_path / "ck" / "header.json"
    text, found = re.subn(pattern, repl, header.read_text())
    assert found == 1
    header.write_text(text)
    with pytest.raises(ArtifactCorruptError, match=named):
        load_checkpoint(tmp_path / "ck")


@pytest.mark.parametrize("body", ["[]", "null", "", "\xff", '{"format": 1}'])
def test_header_not_an_object_is_typed(body, tmp_path):
    save_index(tiny_index(14), tmp_path / "idx")
    (tmp_path / "idx" / "header.json").write_bytes(body.encode("latin-1"))
    with pytest.raises(TYPED):
        load_index(tmp_path / "idx")
