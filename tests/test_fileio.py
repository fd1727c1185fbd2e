"""Every output writer replaces its target whole or leaves it as it was."""

import os

import numpy as np
import pytest

from bandsel import cli, fileio
from bandsel.cube import HsiCube, save_cube
from bandsel.selection import select_top_k

WRITERS = {
    "csv": lambda path: cli._write_csv(path, "k,msd", [(2, 0.5), (4, 0.25)]),
    "sidecar": lambda path: fileio.write_json(path, {"command": "metrics", "k": [2, 4]}),
    "selection": lambda path: select_top_k(np.array([0.2, 0.7, 0.1]), 2).save_json(path),
    "cube": lambda path: save_cube(HsiCube(np.zeros((2, 3, 4))), path),
}


def open_failing_on_second_write(*args, **kwargs):
    """``open`` whose file object raises on its second ``write``, after one has gone through."""
    fh = open(*args, **kwargs)
    real_write, calls = fh.write, []

    def write(data):
        calls.append(data)
        if len(calls) == 2:
            raise OSError("no space left on device")
        return real_write(data)

    fh.write = write
    return fh


@pytest.mark.parametrize("previous", [None, b"previous contents\n"], ids=["new", "existing"])
@pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, writer, previous):
    target = tmp_path / "out"
    if previous is not None:
        target.write_bytes(previous)
    monkeypatch.setattr(fileio, "open", open_failing_on_second_write, raising=False)
    with pytest.raises(OSError, match="no space left"):
        writer(str(target))
    assert os.listdir(tmp_path) == ([] if previous is None else ["out"])
    if previous is not None:
        assert target.read_bytes() == previous


@pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
def test_successful_write_replaces_the_target(tmp_path, writer):
    target = tmp_path / "out"
    target.write_bytes(b"previous contents\n")
    writer(str(target))
    assert os.listdir(tmp_path) == ["out"]
    assert target.read_bytes() != b"previous contents\n"

