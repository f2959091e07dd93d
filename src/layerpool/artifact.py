"""Every file layerpool writes, the one `.npy` reader and writer, the one JSON
encoder and parser, and the directory format of checkpoints and indexes.

Files and directories are built as hidden siblings and renamed into place,
so a process that dies mid-write leaves the previous version or, between a
directory's two renames, none (the previous one then sits in `.<name>.old-*`);
never a mix. The next successful save of the same target deletes such hidden
leftovers. Power loss (fsync) is out of scope.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import shutil
import tokenize

import numpy as np

HEADER = "header.json"
_NPY_MAGIC = np.lib.format.magic(1, 0)  # np.save's format unless a header exceeds 64 KiB
_NAME = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.]*")


class ArtifactVersionError(ValueError):
    """The file is another format, or another version of this one."""


class ArtifactCorruptError(ValueError):
    """Header unreadable or malformed, or a file missing, of the wrong length or hash."""


def _sibling(path: str, tag: str) -> str:
    head, tail = os.path.split(os.path.abspath(path))
    return os.path.join(head, f".{tail}.{tag}-{os.urandom(4).hex()}")


def _remove_leftovers(path: str, tags: str) -> None:
    """Delete the `tags` siblings (see `_sibling`) that killed saves of `path`
    left behind. Each target has a single writer, so none belongs to a live save."""
    head, tail = os.path.split(os.path.abspath(path))
    stale = re.compile(rf"\.{re.escape(tail)}\.({tags})-[0-9a-f]{{8}}")
    for name in filter(stale.fullmatch, os.listdir(head)):
        victim = os.path.join(head, name)
        if os.path.isdir(victim) and not os.path.islink(victim):
            shutil.rmtree(victim)
        else:
            os.unlink(victim)


def _write(path: str, chunks) -> None:
    with open(path, "xb") as fh:
        for chunk in chunks:
            fh.write(chunk)


def write_file(path, chunks) -> None:
    """Replace `path` with the concatenated bytes-like `chunks`."""
    tmp = _sibling(path, "tmp")
    try:
        _write(tmp, chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    _remove_leftovers(path, "tmp")


def write_csv(path, rows) -> None:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    write_file(path, [buf.getvalue().encode()])


def _npy_chunks(array) -> list:
    """The bytes of a format 1.0 `.npy` file of `array`: numpy's header, then
    the array itself, not a copy of it."""
    array = np.asarray(array, order="C")
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, np.lib.format.header_data_from_array_1_0(array))
    return [header.getvalue(), array]


def write_npy(path, array) -> None:
    """Replace `path` with a format 1.0 `.npy` file, streaming `array` after the header."""
    write_file(path, _npy_chunks(array))


def _unique_keys(pairs) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def _not_json(literal):
    raise ValueError(f"{literal} is not a JSON value")


def loads_json(text):
    """The JSON value of `text` (str or bytes), as every reader of JSON parses it.
    A repeated key, which `json` resolves to its last value, and the literals
    NaN, Infinity and -Infinity, which `json` accepts, are a ValueError;
    malformed text is its subclass `json.JSONDecodeError`."""
    return json.loads(text, object_pairs_hook=_unique_keys, parse_constant=_not_json)


def dumps_json(value, indent=None) -> str:
    """The JSON text of `value`, keys sorted, as every writer of JSON encodes it.
    NaN and ±Infinity, which `loads_json` refuses, are a ValueError."""
    return json.dumps(value, indent=indent, sort_keys=True, allow_nan=False)


def _header(path: str):
    with open(os.path.join(path, HEADER), "rb") as fh:
        return loads_json(fh.read())


def _replaceable(path: str, format: str) -> bool:
    if not os.path.lexists(path):
        return True
    try:
        return not os.path.islink(path) and (
            not os.listdir(path) or _header(path).get("format") == format)
    except (OSError, ValueError, AttributeError):
        return False


def write_dir(path, format: str, version: int, meta: dict, arrays: dict) -> None:
    """`header.json` (format, version, `meta`, and each array's name and the
    sha256 of its file) plus one `<name>.npy` file per array of `arrays`.
    Replaces only an absent target, an empty directory or an artifact of the
    same format, so a mistyped path cannot delete a directory of other files."""
    path = os.path.abspath(path)
    if not _replaceable(path, format):
        raise ValueError(f"refusing to replace {path}: not an empty directory "
                         f"or a {format!r} artifact")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp, old = _sibling(path, "tmp"), None
    os.mkdir(tmp)
    try:
        entries = []
        for name, array in arrays.items():
            chunks, digest = _npy_chunks(array), hashlib.sha256()
            for chunk in chunks:
                digest.update(chunk)
            entries.append({"name": name, "sha256": digest.hexdigest()})
            _write(os.path.join(tmp, f"{name}.npy"), chunks)
        header = {"format": format, "version": version, "meta": meta, "arrays": entries}
        # no trailing newline: every proper prefix of the header is invalid JSON
        _write(os.path.join(tmp, HEADER),
               [dumps_json(header, indent=1).encode()])
        if os.path.lexists(path):
            old = _sibling(path, "old")
            os.rename(path, old)
        os.rename(tmp, path)
    except BaseException:
        if old is not None and not os.path.lexists(path):
            os.rename(old, path)
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    _remove_leftovers(path, "tmp|old")


def _valid_entry(e) -> bool:
    return (isinstance(e, dict) and set(e) == {"name", "sha256"}
            and isinstance(e["name"], str) and bool(_NAME.fullmatch(e["name"]))
            and isinstance(e["sha256"], str))


def _npy_layout(path, head: bytes) -> tuple[tuple, bool, np.dtype]:
    """(shape, fortran_order, dtype) of the `.npy` header bytes `head`: the
    magic, the uint16 header length and the header it gives."""
    magic = head[:len(_NPY_MAGIC)]
    if magic != _NPY_MAGIC:
        if _NPY_MAGIC.startswith(magic):
            raise ArtifactCorruptError(f"{path}: .npy header truncated")
        raise ArtifactVersionError(f"{path} is not a .npy file of format 1.0")
    try:
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(
            io.BytesIO(head[len(_NPY_MAGIC):]))
        if min(shape, default=0) < 0:
            raise ValueError(f"negative dimension in shape {shape}")
    # numpy's fallback header parser tokenizes, which raises these on some bytes
    except (ValueError, SyntaxError, tokenize.TokenError) as exc:
        raise ArtifactCorruptError(f"{path}: malformed .npy header: {exc}") from exc
    if dtype.kind not in "biuf":
        raise ArtifactVersionError(f"{path}: .npy of dtype {dtype}, expected a bool, "
                                   "integer or float array")
    return shape, fortran_order, dtype


def read_npy(path, sha256: str | None = None) -> np.ndarray:
    """The bool, integer or float array of a format 1.0 `.npy` file, read
    into an array of its own of exactly the array's size, after the header
    bytes. Any other file (`.npz`) or dtype (object, structured) is
    `ArtifactVersionError`; a truncated or malformed one, or one whose sha256
    is not the hex digest `sha256`, is `ArtifactCorruptError`, the digest
    checked first. Directory members pass their digest; frozen features and
    embeddings do not, as `train` re-reads its frozen features on every call."""
    array = fault = None
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        # the magic and a uint16 header length, then that many header bytes
        head = fh.read(len(_NPY_MAGIC) + 2)
        if head[:len(_NPY_MAGIC)] == _NPY_MAGIC and len(head) == len(_NPY_MAGIC) + 2:
            head += fh.read(int.from_bytes(head[-2:], "little"))
        try:
            shape, fortran_order, dtype = _npy_layout(path, head)
            expected = math.prod(shape) * dtype.itemsize
            if size - len(head) != expected:
                raise ArtifactCorruptError(f"{path} holds {size - len(head)} bytes of array "
                                           f"data, its header implies {expected}")
            # a Fortran-order file holds the bytes of the array in Fortran order
            array = np.empty(shape, dtype, order="F" if fortran_order else "C")
            data = array.ravel(order="K").view(np.uint8)
        except (ArtifactCorruptError, ArtifactVersionError) as exc:
            fault, data = exc, np.empty(size - len(head), np.uint8)  # read for the digest
        if fh.readinto(data) != data.size:
            raise ArtifactCorruptError(f"{path} shrank while it was read")
    if sha256 is not None:
        digest = hashlib.sha256(head)
        digest.update(data)
        if digest.hexdigest() != sha256:
            raise ArtifactCorruptError(f"{path}: sha256 does not match the header")
    if fault is not None:
        raise fault
    return array


def read_dir(path, format: str, version: int) -> tuple[dict, dict[str, np.ndarray]]:
    """The (meta, arrays) of a `format` `version` directory, every file checked."""
    try:
        header = _header(path)
    except (OSError, ValueError) as exc:
        raise ArtifactCorruptError(f"unreadable {HEADER} in {path}: {exc}") from exc
    if not isinstance(header, dict):
        raise ArtifactCorruptError(f"{HEADER} in {path} is not a JSON object")
    found = (header.get("format"), header.get("version"))
    if found != (format, version) or type(found[1]) is not int:
        raise ArtifactVersionError(f"{path}: expected {format!r} version {version}, "
                                   f"found {found[0]!r} version {found[1]!r}")
    entries = header.get("arrays")
    if (set(header) != {"format", "version", "meta", "arrays"}
            or not isinstance(header["meta"], dict) or not isinstance(entries, list)
            or not all(map(_valid_entry, entries))):
        raise ArtifactCorruptError(f"malformed {HEADER} in {path}")
    try:
        return header["meta"], {e["name"]: read_npy(os.path.join(path, f"{e['name']}.npy"),
                                                    e["sha256"]) for e in entries}
    except OSError as exc:
        raise ArtifactCorruptError(f"missing or unreadable array file: {exc}") from exc
