"""Hyperspectral cube container, file I/O, scaling, and sample extraction.

A cube is rows x cols x bands of reflectance values. The on-disk format is:

* 8-byte magic ``HSICUBE1``
* little-endian uint32 header length, then that many bytes of UTF-8 JSON:
  ``{"rows", "cols", "bands", "dtype": "f32", "band_labels"?, "has_gt"}``
* rows * cols * bands little-endian float32 values in row-major
  (row, col, band) order
* if ``has_gt``: rows * cols little-endian uint32 class labels
  (0 means unlabeled)

Values are held in memory as float64; the payload is float32, so a
save/load round trip is exact for float32-representable values.

Memory: each pipeline stage holds one float64 array the size of the cube,
plus bounded scratch. ``load_cube`` checks every size against the file's
length, then fills one float64 array from reads of ``CHUNK_ELEMENTS``
values; ``scale_unit`` rescales that array in place; ``extract_pixels``
returns a view of it. ``metrics.variance_rank`` shares the same chunk
budget for its scratch.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from bandsel.errors import ConfigError, DataError, DimensionError, FormatError
from bandsel.fileio import atomic_write

MAGIC = b"HSICUBE1"
CHUNK_ELEMENTS = 2**18  # values per read in load_cube and per variance block in metrics


@dataclass
class HsiCube:
    """3-D spectral image with optional original band labels and ground truth."""

    values: np.ndarray
    band_labels: np.ndarray | None = None
    ground_truth: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise DimensionError(f"cube values must be rows x cols x bands, got shape {tuple(self.values.shape)}")
        if min(self.values.shape) < 1:
            raise DimensionError(f"cube axes must be non-empty, got shape {tuple(self.values.shape)}")
        # A finite sum proves every value finite; only an overflowing or
        # non-finite sum needs the element-wise check.
        with np.errstate(over="ignore", invalid="ignore"):
            total = self.values.sum()
        if not np.isfinite(total):
            finite = np.isfinite(self.values)
            if not finite.all():
                r, c, b = np.unravel_index(np.argmin(finite), self.values.shape)
                raise DataError(f"non-finite value at pixel ({r},{c}) band {b}")
        if self.band_labels is not None:
            self.band_labels = np.asarray(self.band_labels, dtype=np.int64)
            if self.band_labels.shape != (self.bands,):
                raise DimensionError(
                    f"band labels length {self.band_labels.shape} does not match {self.bands} bands"
                )
            if self.bands > 1 and not np.all(np.diff(self.band_labels) > 0):
                raise DataError("band labels must be strictly increasing")
        if self.ground_truth is not None:
            self.ground_truth = np.asarray(self.ground_truth, dtype=np.uint32)
            if self.ground_truth.shape != (self.rows, self.cols):
                raise DimensionError(
                    f"ground truth shape {self.ground_truth.shape} does not match cube {self.rows}x{self.cols}"
                )

    @property
    def rows(self):
        return self.values.shape[0]

    @property
    def cols(self):
        return self.values.shape[1]

    @property
    def bands(self):
        return self.values.shape[2]


def save_cube(cube, path):
    """Write a cube in the container format described in the module docstring."""
    header = {"rows": cube.rows, "cols": cube.cols, "bands": cube.bands, "dtype": "f32",
              "has_gt": cube.ground_truth is not None}
    if cube.band_labels is not None:
        header["band_labels"] = [int(v) for v in cube.band_labels]
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(cube.values, dtype="<f4").tobytes())
        if cube.ground_truth is not None:
            fh.write(np.ascontiguousarray(cube.ground_truth, dtype="<u4").tobytes())


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def load_cube(path):
    """Read a cube file, validating magic, header, and payload sizes.

    Every size is checked against the file's length before anything is
    allocated. The payload then fills one float64 array, ``CHUNK_ELEMENTS``
    float32 values per read, so the file's bytes are never held whole.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        offset = len(MAGIC) + 4
        if size < offset:
            raise FormatError(f"file too short for magic and header length (size {size})")
        head = _read_exactly(fh, offset)
        if head[: len(MAGIC)] != MAGIC:
            raise FormatError(f"bad magic at offset 0: {head[:len(MAGIC)]!r}")
        (hlen,) = struct.unpack_from("<I", head, len(MAGIC))
        if size < offset + hlen:
            raise FormatError(f"truncated header at offset {offset}: need {hlen} bytes")
        try:
            header = json.loads(_read_exactly(fh, hlen).decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, an over-long integer, deep nesting
            raise FormatError(f"unparseable header at offset {offset}: {exc}") from exc
        if not isinstance(header, dict):
            raise FormatError(f"header at offset {offset} is not a JSON object")
        offset += hlen
        try:
            rows, cols, bands = header["rows"], header["cols"], header["bands"]
            dtype = header["dtype"]
            has_gt = header["has_gt"]
        except KeyError as exc:
            raise FormatError(f"header missing field {exc}") from exc
        if not isinstance(has_gt, bool):
            raise FormatError(f"has_gt in header must be true or false, got {has_gt!r}")
        if not all(_is_int(v) for v in (rows, cols, bands)):
            raise FormatError(f"cube dimensions must be integers, got {rows!r}x{cols!r}x{bands!r} in header")
        if dtype != "f32":
            raise FormatError(f"unsupported dtype {dtype!r}")
        if rows < 1 or cols < 1 or bands < 1:
            raise FormatError(f"non-positive cube dimensions {rows}x{cols}x{bands} in header")
        labels = header.get("band_labels")
        if labels is not None and not (isinstance(labels, list) and len(labels) == bands
                                       and all(_is_int(v) and -2**63 <= v < 2**63 for v in labels)):
            raise FormatError(f"band_labels in header must be a list of {bands} 64-bit integers")
        n_values = rows * cols * bands
        if size < offset + 4 * n_values:
            raise FormatError(f"truncated value payload at offset {offset}: need {4 * n_values} bytes")
        end = offset + 4 * n_values
        if has_gt:
            if size < end + 4 * rows * cols:
                raise FormatError(f"truncated ground truth at offset {end}: need {4 * rows * cols} bytes")
            end += 4 * rows * cols
        if size != end:
            raise FormatError(f"{size - end} trailing bytes at offset {end}")
        values = np.empty(n_values)
        for start in range(0, n_values, CHUNK_ELEMENTS):
            stop = min(start + CHUNK_ELEMENTS, n_values)
            with np.errstate(invalid="ignore"):  # a signaling NaN; HsiCube names its pixel
                values[start:stop] = np.frombuffer(_read_exactly(fh, 4 * (stop - start)), dtype="<f4")
        gt = None
        if has_gt:
            gt = np.frombuffer(_read_exactly(fh, 4 * rows * cols), dtype="<u4").reshape(rows, cols).copy()
    return HsiCube(values.reshape(rows, cols, bands), band_labels=labels, ground_truth=gt)


def _read_exactly(fh, n_bytes):
    """The next ``n_bytes`` of ``fh``; FormatError if the file ends first."""
    data = fh.read(n_bytes)
    if len(data) != n_bytes:
        raise FormatError(f"short read at offset {fh.tell() - len(data)}: need {n_bytes} bytes, got {len(data)}")
    return data


def scale_unit(cube):
    """Affine-map the whole cube in place so its global minimum is 0 and maximum is 1.

    ``cube.values`` is overwritten and the same cube is returned, so no
    second cube-sized array exists; keep a copy first if the raw values are
    still needed. A constant cube maps to all zeros.
    """
    values = cube.values
    lo = values.min()
    hi = values.max()
    if hi == lo:
        values.fill(0.0)
    else:
        values -= lo
        values /= hi - lo
    return cube


def extract_pixels(cube):
    """All spectral vectors [S, bands] in row-major pixel order: S = rows * cols.

    The result is a view of ``cube.values`` (a copy only if the cube's array
    is not C-ordered); writing to it writes to the cube.
    """
    return cube.values.reshape(cube.rows * cube.cols, cube.bands)


def extract_patches(cube, window, stride):
    """Square patches [S, a, a, bands] from a sliding window.

    Offsets are (i * stride, j * stride) for every placement where the
    window fits, giving (floor((rows - a) / t) + 1) * (floor((cols - a) / t) + 1)
    patches of shape a x a x bands.
    """
    a, t = int(window), int(stride)
    if a < 1 or a > min(cube.rows, cube.cols):
        raise ConfigError(f"window {a} must be in [1, {min(cube.rows, cube.cols)}]")
    if t < 1:
        raise ConfigError(f"stride must be >= 1, got {t}")
    views = np.lib.stride_tricks.sliding_window_view(cube.values, (a, a), axis=(0, 1))
    sub = views[::t, ::t]  # [n_i, n_j, bands, a, a]
    n_i, n_j = sub.shape[0], sub.shape[1]
    return np.array(sub.transpose(0, 1, 3, 4, 2), order="C").reshape(n_i * n_j, a, a, cube.bands)
