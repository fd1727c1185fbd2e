"""Command-line pipeline: synthesize cubes, train selectors, compute metrics, run sweeps.

Exit codes: 0 success, 2 configuration error, 3 data or file format error
(and any other package error), 4 numeric failure during optimization. Every
output file is reproducible from its flags and seed, and is accompanied by an
embedded config snapshot or a ``.meta.json`` sidecar describing how it was
produced.
"""

from __future__ import annotations

import os

# Cap BLAS pools before numpy initializes them; must precede numpy import.
_thread_cap = os.environ.get("BANDSEL_THREADS")
if _thread_cap:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _thread_cap)

import argparse
import sys

import numpy as np

from bandsel.cube import extract_patches, extract_pixels, load_cube, save_cube, scale_unit
from bandsel.errors import BandselError, ConfigError, DataError, NumericError
from bandsel.evaluate import sweep
from bandsel.fileio import atomic_write, write_json
from bandsel.metrics import band_histograms, entropy_table, msd_sweep, variance_rank
from bandsel.selection import SelectionResult
from bandsel.synthetic import SynthSpec, synth_generate
from bandsel.training import TrainConfig, train


def parse_k_range(text, bands=None):
    """Parse ``start:end:step`` (inclusive), ``start:end`` or one integer into a k list.

    With ``bands`` given, a largest value above it is rejected before the
    list is built, so a huge range costs nothing.
    """
    try:
        numbers = [int(p) for p in text.split(":")]
    except ValueError as exc:
        raise ConfigError(f"invalid k range {text!r}: {exc}") from exc
    if len(numbers) == 1:
        numbers *= 2
    if len(numbers) == 2:
        numbers.append(1)
    if len(numbers) != 3:
        raise ConfigError(f"invalid k range {text!r}; expected start:end:step")
    start, end, step = numbers
    if step < 1 or start < 1 or end < start:
        raise ConfigError(f"invalid k range {text!r}; need 1 <= start <= end and step >= 1")
    last = end - (end - start) % step
    if bands is not None and last > bands:
        raise ConfigError(f"sweep k must be at most the cube's {bands} bands, got {last} from {text!r}")
    return list(range(start, end + 1, step))


def _write_csv(path, header, rows):
    """Write a header line, then one comma-joined line per row; floats as ``repr``."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                              for v in row) + "\n")


def _load_ranking(path, bands):
    """Ranking of a selection result file; DataError unless it permutes the cube's bands."""
    ranking = SelectionResult.load_json(path).ranking
    if sorted(ranking) != list(range(bands)):
        raise DataError(f"ranking in {path} is not a permutation of the cube's {bands} band indices")
    return ranking


def cmd_synth(args):
    if args.rows < 1 or args.cols < 1 or args.bands < 1:
        raise ConfigError(f"cube dimensions must be positive, got {args.rows}x{args.cols}x{args.bands}")
    if not 1 <= args.informative <= args.bands:
        raise ConfigError(f"informative count must be in [1, {args.bands}], got {args.informative}")
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    informative = sorted(int(i) for i in rng.choice(args.bands, size=args.informative, replace=False))
    spec = SynthSpec(rows=args.rows, cols=args.cols, bands=args.bands,
                     informative=tuple(informative), noise_sigma=args.noise_sigma,
                     seed=args.seed, classes=args.classes)
    cube = synth_generate(spec)
    save_cube(cube, args.out)
    write_json(args.out + ".meta.json", {
        "command": "synth",
        "rows": args.rows, "cols": args.cols, "bands": args.bands,
        "informative": informative, "noise_sigma": args.noise_sigma,
        "seed": args.seed, "classes": args.classes,
    })
    print(f"wrote {args.out} ({args.rows}x{args.cols}x{args.bands}, planted bands {informative})")
    return 0


def cmd_train(args):
    cube = scale_unit(load_cube(args.input))
    if args.variant == "conv":
        samples = extract_patches(cube, args.a, args.t)
        source = {"kind": "patches", "window": args.a, "stride": args.t}
    else:
        samples = extract_pixels(cube)
        source = {"kind": "pixels", "window": None, "stride": None}
    cfg = TrainConfig(l1_coeff=args.l1, learning_rate=args.lr, max_epochs=args.maxiter,
                      batch_size=args.batch_size, seed=args.seed)
    _, result = train(samples, cfg, k=args.k)
    result.config.update(input=os.path.basename(args.input), **source)
    result.save_json(args.out_prefix + ".json")
    _write_csv(args.out_prefix + "_loss.csv", "epoch,loss", enumerate(result.loss_trace, 1))
    _write_csv(args.out_prefix + "_weights.csv",
               "epoch," + ",".join(f"band_{j}" for j in range(cube.bands)),
               ((epoch, *row) for epoch, row in enumerate(result.weights_history, 1)))
    print(f"trained {args.variant} selector on {len(samples)} samples; "
          f"top-{len(result.top_k)} bands: {result.top_k[:10]}")
    return 0


def cmd_metrics(args):
    cube = scale_unit(load_cube(args.input))
    if args.ranking is not None:
        ranking = _load_ranking(args.ranking, cube.bands)
        source = os.path.basename(args.ranking)
    else:
        ranking = variance_rank(cube, cube.bands).ranking
        source = "variance"
    if args.k is None:
        k_values = list(range(2, min(10, cube.bands) + 1, 2))
    else:
        k_values = parse_k_range(args.k, cube.bands)
    counts = band_histograms(cube, args.n_bins)
    entropies = entropy_table(counts, cube.band_labels)
    divergences = msd_sweep(counts, ranking, k_values)
    entropy_path = args.out_prefix + "_entropy.csv"
    msd_path = args.out_prefix + "_msd.csv"
    _write_csv(entropy_path, "band_index,original_label,entropy", entropies)
    _write_csv(msd_path, "k,msd", divergences)
    write_json(args.out_prefix + "_metrics.meta.json", {
        "command": "metrics", "input": os.path.basename(args.input),
        "n_bins": args.n_bins, "ranking": source, "k": k_values,
    })
    print(f"wrote {entropy_path} and {msd_path}")
    return 0


def cmd_eval(args):
    cube = load_cube(args.input)
    if cube.ground_truth is None:
        raise DataError(f"cube {args.input} has no ground truth; evaluation needs labeled pixels")
    selectors = {}
    # Rows and summaries are keyed by selector name, so a repeated name would merge two
    # selectors (``sweep`` itself keeps ``random`` for its baseline).
    taken = {"variance"} if args.variance_baseline else set()
    for item in args.selection or []:
        if "=" not in item:
            raise ConfigError(f"--selection expects name=path, got {item!r}")
        name, path = item.split("=", 1)
        if name in taken:
            raise ConfigError(f"selector name {name!r} is used more than once")
        taken.add(name)
        selectors[name] = _load_ranking(path, cube.bands)
    if args.variance_baseline:
        selectors["variance"] = variance_rank(cube, cube.bands).ranking
    if not selectors and not args.include_random:
        raise ConfigError("no selectors given; pass --selection, --variance-baseline, or --include-random")
    k_values = parse_k_range(args.k, cube.bands)
    rows, aggregated = sweep(cube, selectors, k_values, args.runs,
                             train_fraction=args.train_fraction, k_neighbors=args.knn,
                             base_seed=args.seed, include_random=args.include_random)
    runs_path = args.out_prefix + "_runs.csv"
    summary_path = args.out_prefix + "_summary.csv"
    _write_csv(runs_path, "selector,k,run_seed,oa,aa,kappa", rows)
    _write_csv(summary_path, "selector,k,runs,oa_mean,oa_std,aa_mean,aa_std,kappa_mean,kappa_std",
               ((name, k, args.runs, *stats) for name, k, *stats in aggregated))
    write_json(args.out_prefix + "_eval.meta.json", {
        "command": "eval", "input": os.path.basename(args.input),
        "selectors": sorted(selectors), "include_random": args.include_random,
        "k": k_values, "runs": args.runs, "train_fraction": args.train_fraction,
        "knn": args.knn, "seed": args.seed,
    })
    print(f"wrote {runs_path} and {summary_path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bandsel",
        description="Unsupervised hyperspectral band selection and evaluation pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cube with planted informative bands")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--bands", type=int, required=True)
    p.add_argument("--informative", type=int, required=True, help="number of planted bands")
    p.add_argument("--noise-sigma", type=float, default=0.01)
    p.add_argument("--classes", type=int, default=4, help="ground-truth classes (0 disables)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output cube path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a band selector and write the ranking")
    p.add_argument("--input", required=True, help="cube file")
    p.add_argument("--variant", choices=("fc", "conv"), default="fc")
    p.add_argument("--l1", type=float, default=1e-2, help="L1 coefficient on band weights")
    p.add_argument("--lr", type=float, default=2e-3, help="Adam learning rate")
    p.add_argument("--maxiter", type=int, default=100, help="training epochs")
    p.add_argument("--batch-size", type=int, default=None, help="default 64 (fc) or 32 (conv)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--a", type=int, default=7, help="patch window side (conv variant)")
    p.add_argument("--t", type=int, default=2, help="patch stride (conv variant)")
    p.add_argument("--k", type=int, default=None, help="subset size recorded in the result")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("metrics", help="per-band entropy table and MSD sweep")
    p.add_argument("--input", required=True)
    p.add_argument("--n-bins", type=int, default=256)
    p.add_argument("--ranking", default=None, help="selection result JSON (default: variance ranking)")
    p.add_argument("--k", default=None,
                   help="subset sizes start:end:step (inclusive); default 2 to min(10, bands) by 2")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("eval", help="classification sweep over selectors and subset sizes")
    p.add_argument("--input", required=True)
    p.add_argument("--selection", action="append", metavar="NAME=RESULT_JSON")
    p.add_argument("--variance-baseline", action="store_true", help="add the variance-ranking selector")
    p.add_argument("--include-random", action="store_true", help="add a per-run random selector")
    p.add_argument("--k", default="3:30:2", help="subset sizes start:end:step (inclusive)")
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--train-fraction", type=float, default=0.05)
    p.add_argument("--knn", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (BandselError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
