"""Atomic artifact writes.

An artifact is written to a temporary file in its own directory and then
renamed over the target with ``os.replace``, so a reader (or a re-run after
a crash) sees either the previous file or the complete new one, never a
partial write.
"""

import os
from pathlib import Path


def write_atomic(path, data):
    """Write ``data`` (bytes or str, UTF-8) to ``path`` atomically."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode()
    if path.exists() and not path.is_file():
        # a pipe or device such as /dev/stdout: there is no file to replace
        path.write_bytes(data)
        return
    path = path.resolve()  # through a symlink to its target, like a plain write
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    # 0o666 minus the umask, the mode Path.write_bytes would give
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
