"""Every file layerpool writes, and the directory format of checkpoints and indexes.

Files and directories are built as hidden siblings and renamed into place,
so a process that dies mid-write leaves the previous version or, between a
directory's two renames, none; never a mix. Power loss (fsync) is out of scope.
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

import numpy as np

HEADER = "header.json"
_SUFFIX = {"<f8": "f64", "<f4": "f32", "<u4": "u32"}
_NAME = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.]*")


class ArtifactVersionError(ValueError):
    """The file is another format, or another version of this one."""


class ArtifactCorruptError(ValueError):
    """Header unreadable or malformed, or a file missing, of the wrong length or hash."""


def _sibling(path: str, tag: str) -> str:
    head, tail = os.path.split(os.path.abspath(path))
    return os.path.join(head, f".{tail}.{tag}-{os.urandom(4).hex()}")


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


def write_csv(path, rows) -> None:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    write_file(path, [buf.getvalue().encode()])


def _header(path: str):
    with open(os.path.join(path, HEADER), "rb") as fh:
        return json.loads(fh.read())


def _replaceable(path: str, format: str) -> bool:
    if not os.path.lexists(path):
        return True
    try:
        return not os.path.islink(path) and (
            not os.listdir(path) or _header(path).get("format") == format)
    except (OSError, ValueError, AttributeError):
        return False


def write_dir(path, format: str, version: int, meta: dict, arrays: dict) -> None:
    """`header.json` (format, version, `meta`, and each array's file, dtype,
    shape and sha256) plus one raw little-endian file per array of `arrays`.
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
            array = np.asarray(array, order="C")
            entries.append({"name": name, "file": f"{name}.{_SUFFIX[array.dtype.str]}",
                            "dtype": array.dtype.str, "shape": list(array.shape),
                            "sha256": hashlib.sha256(memoryview(array)).hexdigest()})
            _write(os.path.join(tmp, entries[-1]["file"]), [array])
        header = {"format": format, "version": version, "meta": meta, "arrays": entries}
        # no trailing newline: every proper prefix of the header is invalid JSON
        _write(os.path.join(tmp, HEADER),
               [json.dumps(header, indent=1, sort_keys=True).encode()])
        if os.path.lexists(path):
            old = _sibling(path, "old")
            os.rename(path, old)
        os.rename(tmp, path)
    except BaseException:
        if old is not None and not os.path.lexists(path):
            os.rename(old, path)
            old = None
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if old is not None:
        shutil.rmtree(old)


def _valid_entry(e) -> bool:
    return (isinstance(e, dict) and set(e) == {"name", "file", "dtype", "shape", "sha256"}
            and isinstance(e["name"], str) and bool(_NAME.fullmatch(e["name"]))
            and isinstance(e["dtype"], str) and e["dtype"] in _SUFFIX
            and e["file"] == f"{e['name']}.{_SUFFIX[e['dtype']]}"
            and isinstance(e["shape"], list)
            and all(type(n) is int and n >= 0 for n in e["shape"]))


def _read_array(path: str, entry: dict) -> np.ndarray:
    file, dtype = entry["file"], np.dtype(entry["dtype"])
    expected = math.prod(entry["shape"]) * dtype.itemsize
    try:
        with open(os.path.join(path, file), "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != expected:
                raise ArtifactCorruptError(f"{file} is {size} bytes, header implies {expected}")
            array = np.empty(entry["shape"], dtype)
            got = fh.readinto(array)
    except OSError as exc:
        raise ArtifactCorruptError(f"missing or unreadable {file}: {exc}") from exc
    if got != expected or hashlib.sha256(memoryview(array)).hexdigest() != entry["sha256"]:
        raise ArtifactCorruptError(f"{file}: sha256 does not match the header")
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
    return header["meta"], {e["name"]: _read_array(path, e) for e in entries}
