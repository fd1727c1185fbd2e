"""Output files that appear whole or not at all."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress


@contextmanager
def atomic_write(path, mode="w", **open_kwargs):
    """Write through a temporary file beside ``path``, moved into place when the block ends.

    If the block raises, the temporary file is removed, so a failure part-way
    through leaves no partial file and keeps any earlier file at ``path``.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_json(path, payload):
    """Write ``payload`` atomically as indented, key-sorted JSON with a final newline."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
