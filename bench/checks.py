"""Output-correctness gate for benchmark runs.

Every check returns a list of problems; an empty list means the output
passed. The oracles are the plain-loop reference implementations in
``tests/oracles.py``, so a numerical check here never trusts the code it
checks.
"""

import csv
import hashlib
import json
import math

import numpy as np

MSD_TOLERANCE = 1e-10
KNN_SUBSAMPLE = 40


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_train(prefix, bands):
    """The ranking is a permutation of every band and the loss trace is finite."""
    problems = []
    with open(prefix + ".json", encoding="utf-8") as fh:
        result = json.load(fh)
    if sorted(result["ranking"]) != list(range(bands)):
        problems.append(f"{prefix}.json: ranking is not a permutation of {bands} bands")
    losses = [float(v) for v in result["loss_trace"]]
    losses += [float(row["loss"]) for row in read_csv(prefix + "_loss.csv")]
    if not losses or not all(math.isfinite(v) for v in losses):
        problems.append(f"{prefix}: loss trace is empty or not finite")
    return problems


def check_metrics(prefix, bands):
    problems = []
    entropy = read_csv(prefix + "_entropy.csv")
    if len(entropy) != bands or not all(math.isfinite(float(r["entropy"])) for r in entropy):
        problems.append(f"{prefix}_entropy.csv: expected {bands} finite entropies")
    msd_rows = read_csv(prefix + "_msd.csv")
    if not msd_rows or not all(math.isfinite(float(r["msd"])) for r in msd_rows):
        problems.append(f"{prefix}_msd.csv: MSD values missing or not finite")
    return problems


def check_msd_oracle(values, ranking, msd_csv, n_bins=256):
    """The smallest-k MSD in the sweep output matches ``msd_oracle``."""
    from oracles import msd_oracle

    rows = read_csv(msd_csv)
    k, got = min((int(r["k"]), float(r["msd"])) for r in rows)
    want = msd_oracle(values, list(ranking[:k]), n_bins)
    if not abs(got - want) <= MSD_TOLERANCE * max(1.0, abs(want)):
        return [f"{msd_csv}: msd at k={k} is {got!r}, oracle gives {want!r}"]
    return []


def check_eval(prefix, n_selectors, n_k, runs):
    problems = []
    rows = read_csv(prefix + "_runs.csv")
    if len(rows) != n_selectors * n_k * runs:
        problems.append(f"{prefix}_runs.csv: {len(rows)} rows, expected {n_selectors * n_k * runs}")
    for r in rows:
        oa, aa, kappa = float(r["oa"]), float(r["aa"]), float(r["kappa"])
        if not (0.0 <= oa <= 1.0 and 0.0 <= aa <= 1.0 and math.isfinite(kappa)):
            problems.append(f"{prefix}_runs.csv: out-of-range indices {r}")
            break
    if len(read_csv(prefix + "_summary.csv")) != n_selectors * n_k:
        problems.append(f"{prefix}_summary.csv: expected {n_selectors * n_k} rows")
    return problems


def check_knn_oracle(cube, bands, seed, k_neighbors=5, train_fraction=0.05):
    """``classify_knn`` agrees with ``knn_oracle`` on a fixed test-pixel subsample."""
    from oracles import knn_oracle

    from bandsel.evaluate import SplitSpec, classify_knn, split

    train_idx, test_idx = split(cube, SplitSpec(train_fraction=train_fraction, seed=seed))
    picked = test_idx[np.linspace(0, test_idx.size - 1, min(KNN_SUBSAMPLE, test_idx.size)).astype(int)]
    flat = cube.values.reshape(-1, cube.bands)[:, list(bands)]
    labels = cube.ground_truth.ravel().astype(np.int64) - 1
    got = classify_knn(flat[train_idx], labels[train_idx], flat[picked], k_neighbors)
    want = knn_oracle(flat[train_idx], labels[train_idx], flat[picked], k_neighbors)
    if not np.array_equal(got, want):
        bad = int(np.sum(got != want))
        return [f"classify_knn disagrees with knn_oracle on {bad} of {picked.size} test pixels"]
    return []

