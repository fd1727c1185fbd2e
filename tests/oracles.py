"""Naive reference implementations used as independent oracles.

Everything here is written as plain loops, deliberately ignoring the
vectorized implementations under test, except the padded-copy references
for the conv layer and the whole-file cube reader, which pin the exact bits
and errors the chunked code must keep.
"""

import json
import math
import struct

import numpy as np


def matmul_oracle(x, weights, bias):
    """Triple-loop dense pre-activation."""
    n, d_in = x.shape
    d_out = weights.shape[1]
    out = np.zeros((n, d_out))
    for i in range(n):
        for j in range(d_out):
            acc = bias[j]
            for m in range(d_in):
                acc += x[i, m] * weights[m, j]
            out[i, j] = acc
    return out


def same_pad_amounts(size, kernel, stride):
    out = math.ceil(size / stride)
    total = max((out - 1) * stride + kernel - size, 0)
    return out, total // 2


def conv2d_oracle(x, kernels, stride=1):
    """Nested-loop 'same' cross-correlation: x [B,H,W,Ci], kernels [kh,kw,Ci,Co]."""
    batch, h, w, cin = x.shape
    kh, kw, _, cout = kernels.shape
    oh, ph = same_pad_amounts(h, kh, stride)
    ow, pw = same_pad_amounts(w, kw, stride)
    out = np.zeros((batch, oh, ow, cout))
    for b in range(batch):
        for i in range(oh):
            for j in range(ow):
                for o in range(cout):
                    acc = 0.0
                    for u in range(kh):
                        for v in range(kw):
                            r = i * stride + u - ph
                            c = j * stride + v - pw
                            if 0 <= r < h and 0 <= c < w:
                                for m in range(cin):
                                    acc += x[b, r, c, m] * kernels[u, v, m, o]
                    out[b, i, j, o] = acc
    return out


def conv_kernel_grad_oracle(x, grad, k):
    """Nested-loop gradient of sum(conv2d_oracle(x, kernels) * grad) in the k x k kernels."""
    batch, h, w, cin = x.shape
    cout = grad.shape[3]
    p = k // 2
    out = np.zeros((k, k, cin, cout))
    for u in range(k):
        for v in range(k):
            for m in range(cin):
                for o in range(cout):
                    acc = 0.0
                    for b in range(batch):
                        for i in range(h):
                            for j in range(w):
                                r = i + u - p
                                c = j + v - p
                                if 0 <= r < h and 0 <= c < w:
                                    acc += x[b, r, c, m] * grad[b, i, j, o]
                    out[u, v, m, o] = acc
    return out


def padded_correlate_reference(x, kernels):
    """The conv layer's former lowering: pad by k // 2, then one ``tensordot`` per tap."""
    batch, h, w, _ = x.shape
    k = kernels.shape[0]
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    out = np.zeros((batch, h, w, kernels.shape[3]))
    for u in range(k):
        for v in range(k):
            out += np.tensordot(xp[:, u : u + h, v : v + w, :], kernels[u, v], axes=([3], [0]))
    return out


def padded_kernel_grad_reference(x, grad, kernel_shape):
    """The former kernel gradient: one ``tensordot`` per tap over the padded copy of x."""
    _, h, w, _ = x.shape
    k = kernel_shape[0]
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    dk = np.zeros(kernel_shape)
    for u in range(k):
        for v in range(k):
            dk[u, v] = np.tensordot(xp[:, u : u + h, v : v + w, :], grad, axes=([0, 1, 2], [0, 1, 2]))
    return dk


def mean_pool_oracle(x):
    """Flat-loop spatial mean per channel."""
    batch, h, w, ch = x.shape
    out = np.zeros((batch, 1, 1, ch))
    for b in range(batch):
        for c in range(ch):
            acc = 0.0
            for i in range(h):
                for j in range(w):
                    acc += x[b, i, j, c]
            out[b, 0, 0, c] = acc / (h * w)
    return out


def sigmoid_oracle(x):
    """Logistic function through two boolean masks: 1 / (1 + exp(-x)) where x >= 0, else exp(x) / (1 + exp(x))."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def scalar_adam_oracle(theta, grad_fn, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference scalar Adam trajectory; returns the list of iterates."""
    m = 0.0
    v = 0.0
    trace = []
    for t in range(1, steps + 1):
        g = grad_fn(theta)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        trace.append(theta)
    return trace


def finite_difference(loss_fn, array, step=1e-4):
    """Central finite differences of a scalar function in every array entry."""
    grad = np.zeros_like(array)
    flat = array.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + step
        up = loss_fn()
        flat[i] = old - step
        down = loss_fn()
        flat[i] = old
        gflat[i] = (up - down) / (2 * step)
    return grad


def relative_error(analytic, numeric, floor=1e-6):
    """Element-wise |a - n| / max(|a|, |n|, floor)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return np.abs(analytic - numeric) / denom


def histogram_oracle(band, n_bins):
    """Flat-loop binning of unit-range values to round-to-nearest gray levels."""
    counts = np.zeros(n_bins, dtype=np.int64)
    for v in band.ravel():
        idx = int(math.floor(v * (n_bins - 1) + 0.5))
        idx = min(max(idx, 0), n_bins - 1)
        counts[idx] += 1
    return counts


def entropy_oracle(counts):
    total = counts.sum()
    acc = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            acc -= p * math.log(p)
    return acc


def skl_oracle(counts_i, counts_j, eps=1e-6):
    """Two-term KL sum on epsilon-smoothed histogram probabilities."""
    n = len(counts_i)
    ti = counts_i.sum() + n * eps
    tj = counts_j.sum() + n * eps
    acc = 0.0
    for a, b in zip(counts_i, counts_j):
        p = (a + eps) / ti
        q = (b + eps) / tj
        acc += p * math.log(p / q)
        acc += q * math.log(q / p)
    return acc


def msd_oracle(cube_values, subset, n_bins):
    """Average pairwise SKL over unordered pairs via loops."""
    hists = [histogram_oracle(cube_values[:, :, i], n_bins) for i in subset]
    k = len(subset)
    acc = 0.0
    for a in range(k):
        for b in range(a + 1, k):
            if subset[a] != subset[b]:
                acc += skl_oracle(hists[a], hists[b])
    return 2.0 * acc / (k * (k - 1))


def patch_offsets_oracle(rows, cols, a, t):
    """Exhaustive enumeration of window placements at multiples of the stride."""
    offsets = []
    i = 0
    while i + a <= rows:
        j = 0
        while j + a <= cols:
            offsets.append((i, j))
            j += t
        i += t
    return offsets


def column_mean_oracle(matrix):
    n, d = matrix.shape
    out = np.zeros(d)
    for j in range(d):
        acc = 0.0
        for i in range(n):
            acc += matrix[i, j]
        out[j] = acc / n
    return out


def variance_oracle(matrix):
    """Population variance per column."""
    n, d = matrix.shape
    means = column_mean_oracle(matrix)
    out = np.zeros(d)
    for j in range(d):
        acc = 0.0
        for i in range(n):
            acc += (matrix[i, j] - means[j]) ** 2
        out[j] = acc / n
    return out


def topk_oracle(scores, k):
    """Sort-then-slice ranking with ties broken by lower index."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order[:k]


def knn_oracle(train_x, train_y, test_x, k):
    """All-pairs distances, stable neighbor order, majority vote, low class id on ties."""
    preds = []
    for row in test_x:
        dists = [(float(np.sum((row - tx) ** 2)), idx) for idx, tx in enumerate(train_x)]
        dists.sort(key=lambda p: (p[0], p[1]))
        votes = {}
        for _, idx in dists[:k]:
            votes[train_y[idx]] = votes.get(train_y[idx], 0) + 1
        best = sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
        preds.append(best)
    return np.array(preds)


def report_oracle(y_true, y_pred, n_classes):
    """Loop-built confusion matrix with OA, AA, and kappa."""
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        confusion[t, p] += 1
    total = confusion.sum()
    oa = sum(confusion[c, c] for c in range(n_classes)) / total
    recalls = []
    for c in range(n_classes):
        row = confusion[c].sum()
        if row > 0:
            recalls.append(confusion[c, c] / row)
    aa = sum(recalls) / len(recalls)
    p_e = 0.0
    for c in range(n_classes):
        p_e += confusion[c].sum() * confusion[:, c].sum()
    p_e /= total * total
    if p_e >= 1.0:
        kappa = 1.0 if oa == 1.0 else 0.0
    else:
        kappa = (oa - p_e) / (1.0 - p_e)
    return confusion, oa, aa, kappa


def whole_file_load_cube_reference(path):
    """The former cube reader: the whole file as one ``bytes``, checked, then one float64 copy."""
    from bandsel.cube import MAGIC, HsiCube
    from bandsel.errors import DataError, FormatError

    def is_int(value):
        return isinstance(value, int) and not isinstance(value, bool)

    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MAGIC) + 4:
        raise FormatError(f"file too short for magic and header length (size {len(data)})")
    if data[: len(MAGIC)] != MAGIC:
        raise FormatError(f"bad magic at offset 0: {data[:len(MAGIC)]!r}")
    (hlen,) = struct.unpack_from("<I", data, len(MAGIC))
    offset = len(MAGIC) + 4
    if len(data) < offset + hlen:
        raise FormatError(f"truncated header at offset {offset}: need {hlen} bytes")
    try:
        header = json.loads(data[offset : offset + hlen].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
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
    if not all(is_int(v) for v in (rows, cols, bands)):
        raise FormatError(f"cube dimensions must be integers, got {rows!r}x{cols!r}x{bands!r} in header")
    if dtype != "f32":
        raise FormatError(f"unsupported dtype {dtype!r}")
    if rows < 1 or cols < 1 or bands < 1:
        raise FormatError(f"non-positive cube dimensions {rows}x{cols}x{bands} in header")
    labels = header.get("band_labels")
    if labels is not None and not (isinstance(labels, list) and len(labels) == bands
                                   and all(is_int(v) and -2**63 <= v < 2**63 for v in labels)):
        raise FormatError(f"band_labels in header must be a list of {bands} 64-bit integers")
    n_values = rows * cols * bands
    if len(data) < offset + 4 * n_values:
        raise FormatError(f"truncated value payload at offset {offset}: need {4 * n_values} bytes")
    values = np.frombuffer(data, dtype="<f4", count=n_values, offset=offset)
    values = values.astype(np.float64).reshape(rows, cols, bands)
    if not np.isfinite(values.sum()):
        r, c, b = np.unravel_index(np.argmin(np.isfinite(values)), values.shape)
        raise DataError(f"non-finite value at pixel ({r},{c}) band {b}")
    offset += 4 * n_values
    gt = None
    if has_gt:
        if len(data) < offset + 4 * rows * cols:
            raise FormatError(f"truncated ground truth at offset {offset}: need {4 * rows * cols} bytes")
        gt = np.frombuffer(data, dtype="<u4", count=rows * cols, offset=offset).reshape(rows, cols).copy()
        offset += 4 * rows * cols
    if len(data) != offset:
        raise FormatError(f"{len(data) - offset} trailing bytes at offset {offset}")
    return HsiCube(values, band_labels=labels, ground_truth=gt)
