"""The rules of slicepick's files, each with one owner, and atomic writes.

Every format calls these rules, its writer and its reader alike, so a
writer refuses what its reader would reject. A JSON document (``meta.json``,
``labels.json``, a GCLE sidecar, a checkpoint header) is UTF-8 text of one
top-level type, a versioned one's ``format_version`` is 1, and its integers
fit in int64. A binary header is a magic and little-endian u32 fields. A
float32 payload (``data.bin``, a GCLE payload, a checkpoint's parameter
blob) is little-endian, exactly the size its header or ``meta.json``
implies, and finite once rounded. A fault is a FormatError, one wording
per rule, naming the file and the field.

An artifact is written to a temporary file in its own directory and then
renamed over the target with ``os.replace``, so a reader (or a re-run after
a crash) sees either the previous file or the complete new one, never a
partial write.
"""

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, SlicepickError

FORMAT_VERSION = 1  # of every file format


def json_int(path, value, where):
    """``value`` if it is a JSON integer (not a bool or a float) that fits in
    int64, else a FormatError naming the file and ``where`` in it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{path}: {where} must be an integer, got {value!r}")
    if not -(2 ** 63) <= value < 2 ** 63:
        raise FormatError(f"{path}: {where} does not fit in int64: {value}")
    return value


def json_ints(path, values, where):
    """The list ``values`` as an int64 array if each passes ``json_int``, checked
    as one array; else ``json_int``'s FormatError for the first, named ``where(i)``."""
    if set(map(type, values)) <= {int}:  # never a bool, float or None
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    for i, value in enumerate(values):
        json_int(path, value, where(i))


def check_version(path, value, where="'format_version'"):
    """A FormatError unless ``value``, ``where`` in ``path``, is the integer 1."""
    if json_int(path, value, where) != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported {where} {value}, expected {FORMAT_VERSION}")


def json_document(path, raw, top, versioned=False):
    """The JSON document ``path`` of the bytes ``raw``, decoded as UTF-8 (never
    the UTF-16 or UTF-32 ``json.loads`` takes from bytes), whose top level is
    a ``top`` (dict or list), with ``format_version`` 1 if ``versioned``."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, top):
        raise FormatError(f"{path}: top level must be a JSON {'object' if top is dict else 'list'}")
    if versioned:
        check_version(path, doc.get("format_version"))
    return doc


def unpack_header(path, raw, magic, names):
    """The little-endian u32 fields ``names`` after ``magic`` at the start of ``raw``."""
    if raw[:len(magic)] != magic:
        raise FormatError(f"{path}: bad magic {raw[:len(magic)]!r}, expected {magic!r}")
    end = len(magic) + 4 * len(names)
    if len(raw) < end:
        raise FormatError(f"{path}: truncated header: {len(raw)} bytes, need {end} for the "
                          f"magic and the {', '.join(names)}")
    return struct.unpack(f"<{len(names)}I", raw[len(magic):end])


def read_f32(path, raw, offset, shape, what, source):
    """The read-only float32 array of ``shape`` that ``raw`` holds from
    ``offset`` on, a view; ``what`` names that part of the file ``path``,
    and ``source`` what implies its size."""
    got, expected = len(raw) - offset, 4 * math.prod(shape)
    if got != expected:
        raise FormatError(f"{path}: {what} holds {got} bytes, {source} implies {expected}")
    X = np.frombuffer(raw, dtype="<f4", offset=offset).reshape(shape)
    # min and max are nan if any value is, and infinite if any value is: no mask
    if X.size and not np.isfinite([X.min(), X.max()]).all():
        raise FormatError(f"{path}: {what} contains non-finite values")
    return X


def f32_payload(path, values, what):
    """``values`` as C-contiguous little-endian float32, itself when it is,
    else rounded once: the ``what`` of the file ``path``, checked finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked once rounded
        X = np.ascontiguousarray(values, dtype="<f4")
    if X.size and not np.isfinite([X.min(), X.max()]).all():  # as read_f32's
        raise FormatError(f"{path}: {what} is not finite in float32; refusing to write it")
    return X


def check_output_files(outputs):
    """Raise SlicepickError naming the flag and path unless each (flag, path)
    of a command's outputs is unset or a file path in an existing directory,
    or naming both when two resolve to one file, which only a pipe or device
    takes both writes of; checked before the work, a bad path costs no run."""
    named = {}  # resolved target -> (flag, path) of the first flag naming it
    for flag, path in outputs:
        if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
            raise SlicepickError(f"{flag} {path}: not a file path in an existing directory")
        if path and not _written_directly(path):
            first, first_path = named.setdefault(Path(path).resolve(), (flag, path))
            if first != flag:
                raise SlicepickError(f"{first} {first_path} and {flag} {path}: the same file")


def check_output_dir(flag, path):
    """Raise SlicepickError naming ``flag`` and ``path`` unless ``path`` is
    a directory or can be made as one, with its parents: its nearest
    existing ancestor must be a directory."""
    path = Path(path)
    nearest = next(p for p in (path, *path.parents) if p.exists())
    if not nearest.is_dir():
        raise SlicepickError(f"{flag} {path}: {nearest} is not a directory")


def write_atomic(path, data):
    """Write ``data`` (bytes-like, or str as UTF-8) to ``path`` atomically; an error names it."""
    write_all_atomic([(path, data)])


def write_all_atomic(outputs):
    """Write every (path, data) of ``outputs``, each atomically, as ``write_atomic`` does.

    Each file is staged first, in a hidden temporary file in its target's
    directory, and only when all are staged is each renamed over its
    target. An error while staging removes the staged files and changes no
    target; a rename that fails part way leaves the earlier targets
    renamed. A target that exists but is no regular file (a pipe or a
    device such as /dev/stdout) has no file to replace: it is written last,
    directly, outside that guarantee. An operating-system error names the
    user's path of the file being written, never the temporary file.
    """
    staged = []  # (temporary file, resolved target, the user's path)
    direct = []  # (the user's path, data)
    path = None  # the output being written, which an error names
    try:
        for path, data in outputs:
            if isinstance(data, str):
                data = data.encode()
            if _written_directly(path):
                direct.append((path, data))
                continue
            resolved = Path(path).resolve()  # through a symlink to its target, like a plain write
            tmp = resolved.with_name(f".{resolved.name}.{os.urandom(6).hex()}.tmp")
            # 0o666 minus the umask, the mode Path.write_bytes would give
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((tmp, resolved, path))
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
        for tmp, resolved, path in staged:
            os.replace(tmp, resolved)
        for path, data in direct:
            Path(path).write_bytes(data)
    except BaseException as exc:
        for tmp, _, _ in staged:
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None:  # never the temporary file
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def _written_directly(path):
    """Whether ``path`` exists but is no regular file (a pipe, a device)."""
    return Path(path).exists() and not Path(path).is_file()
