#!/usr/bin/env python3
"""Benchmark of the bandsel command-line pipeline: synth -> train -> metrics -> eval.

    python3 bench/run.py --workload fc_spectral --seed 1 --seconds 20 --trace 0

Run from the repository root or any copy of it. Inputs are planted-band
cubes generated from ``--seed``; the pipeline stages are driven in-process
through ``bandsel.cli.main``, exactly as a user would invoke them, and are
repeated until ``--seconds`` have passed. Every output is checked (see
``checks.py``) and every stage that raises, exits non-zero or fails a check
counts as failed.

``--trace 0`` reports the end-to-end metrics from untraced repeats
(timings as the fast decile of the repeats, see ``fast_decile``).
``--trace 1`` spends half the time untraced and half traced (see
``tracing.py``) and reports the per-layer metrics plus the difference
between the two, ``tracing_overhead_s``.

The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the same metrics with quartiles and sample counts, the environment and the
stage log.
"""

import os

# BLAS pools are sized when numpy loads, so the thread count is fixed
# before anything imports it. The CLI maps BANDSEL_THREADS onto the BLAS
# variables; clearing them first makes that mapping win. One thread: on
# two cores, two BLAS threads made fc training both slower and erratic.
BLAS_THREADS = 1
os.environ["BANDSEL_THREADS"] = str(BLAS_THREADS)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 7
SELECTORS = 2  # eval judges the first selector and the random baseline


@dataclass(frozen=True)
class Cube:
    rows: int
    cols: int
    bands: int
    informative: int
    classes: int


@dataclass(frozen=True)
class Workload:
    cube: Cube
    variant: str
    epochs: int
    metrics_k: str
    eval_k: str
    eval_runs: int
    window: int = 7
    stride: int = 2
    train_cube: Cube | None = None  # trains on a companion cube; the variance ranking is judged

    @property
    def trains_judged_net(self):
        return self.train_cube is None


WORKLOADS = {
    # Per-call Python overhead in Adam and dense layers dominates; conv and k-NN are nearly idle.
    "fc_spectral": Workload(
        cube=Cube(64, 64, 100, 5, 4), variant="fc", epochs=5,
        metrics_k="2:50:2", eval_k="10:40:10", eval_runs=1),
    # Conv kernels do most of the work: the same training loop as fc, but few large Adam steps.
    "conv_patch": Workload(
        cube=Cube(48, 48, 100, 5, 4), variant="conv", epochs=1,
        metrics_k="2:50:2", eval_k="10:40:10", eval_runs=1),
    # Indian Pines geometry: k-NN eval and the MSD sweep dominate on a cube far larger than L2.
    "eval_paper_scale": Workload(
        cube=Cube(145, 145, 200, 10, 16), variant="fc", epochs=2,
        metrics_k="10:100:10", eval_k="30", eval_runs=1, train_cube=Cube(48, 48, 200, 10, 4)),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "train_samples_per_s": "1/s",
    "eval_predictions_per_s": "1/s",
    "peak_rss_mb": "MB",
    "oa_mean": "ratio",
    "ok_frac": "ratio",
}


def quartiles(values):
    values = [float(v) for v in values]
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fast_decile(values, higher_is_faster=False):
    """The 10th percentile of a time, or the 90th of a rate.

    The host this was tuned on switches between two speeds: Python-bound
    code runs about 1.7x slower in its slow state (BLAS-bound code much
    less), and the state flips every 0.3 s to 30 s with the machine's
    load. A run median falls in whichever mode holds the majority of the
    run, so it jumps between runs; the fast decile needs only a tenth of
    the repeats in the fast state. Across runs of the same code it spread
    3-13% where the median spread 5-40%.
    """
    values = [float(v) for v in values]
    if len(values) == 1:
        return values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[-1] if higher_is_faster else deciles[0]


class Run:
    """One benchmark run: inputs in ``work``, stage log, timings and checks."""

    def __init__(self, workload, seed, work):
        from bandsel import cli

        import checks

        self.cli = cli
        self.checks = checks
        self.w = workload
        self.seed = seed
        self.eval_k = cli.parse_k_range(workload.eval_k)
        self.cube_path = str(work / "cube.hsic")
        self.train_path = str(work / "train.hsic") if workload.train_cube else self.cube_path
        self.net, self.m, self.e = (str(work / p) for p in ("net", "m", "e"))
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}

    # -- commands --------------------------------------------------------

    def synth_commands(self):
        cubes = [(self.w.cube, self.cube_path)]
        if self.w.train_cube:
            cubes.append((self.w.train_cube, self.train_path))
        return [["synth", "--rows", str(c.rows), "--cols", str(c.cols), "--bands", str(c.bands),
                 "--informative", str(c.informative), "--classes", str(c.classes),
                 "--seed", str(self.seed), "--out", path] for c, path in cubes]

    def stage_commands(self):
        w = self.w
        train = ["train", "--input", self.train_path, "--variant", w.variant, "--maxiter", str(w.epochs),
                 "--seed", str(self.seed), "--out-prefix", self.net]
        if w.variant == "conv":
            train += ["--a", str(w.window), "--t", str(w.stride)]
        metrics = ["metrics", "--input", self.cube_path, "--k", w.metrics_k, "--out-prefix", self.m]
        evaluate = ["eval", "--input", self.cube_path, "--include-random", "--k", w.eval_k,
                    "--runs", str(w.eval_runs), "--seed", str(self.seed), "--out-prefix", self.e]
        if w.trains_judged_net:
            metrics += ["--ranking", self.net + ".json"]
            evaluate += ["--selection", f"net={self.net}.json"]
        else:
            evaluate += ["--variance-baseline"]
        return [("train", train), ("metrics", metrics), ("eval", evaluate)]

    # -- stages ------------------------------------------------------------

    def _fail(self, label, problems):
        self.failed += 1
        self.problems.extend(f"{label}: {p}" for p in problems)
        return False

    def setup_subprocess(self):
        """One set-up as a user pays it: fresh interpreter, imports, synth. Returns seconds or None."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = time.perf_counter()
        for argv in self.synth_commands():
            self.attempted += 1
            proc = subprocess.run([sys.executable, "-m", "bandsel", *argv], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                self._fail("setup", [f"synth exited {proc.returncode}: {proc.stderr.strip()}"])
                return None
        elapsed = time.perf_counter() - start
        return elapsed if self._check_digests("setup", self._synth_outputs()) else None

    def setup_inprocess(self):
        for argv in self.synth_commands():
            if self._call("setup", argv) is None:
                return False
        return self._check_digests("setup", self._synth_outputs())

    def _synth_outputs(self):
        return [p for path in sorted({self.cube_path, self.train_path}) for p in (path, path + ".meta.json")]

    def _call(self, label, argv):
        """Run one CLI command; returns its wall time, or None after recording a failure."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a measured failure, not a benchmark error
            self._fail(label, [f"{type(exc).__name__}: {exc}"])
            return None
        elapsed = time.perf_counter() - start
        if code != 0:
            self._fail(label, [f"exit code {code}"])
            return None
        return elapsed

    def _check_digests(self, label, paths):
        problems = []
        for path in paths:
            digest = self.checks.digest(path)
            if self.digests.setdefault(path, digest) != digest:
                problems.append(f"{os.path.basename(path)} differs from the first repeat")
        return not problems or self._fail(label, problems)

    def _check_stage(self, label, first):
        c, w = self.checks, self.w
        if label == "train":
            bands = (w.train_cube or w.cube).bands
            problems = c.check_train(self.net, bands)
            outputs = [self.net + s for s in (".json", "_loss.csv", "_weights.csv")]
        elif label == "metrics":
            problems = c.check_metrics(self.m, w.cube.bands)
            if first:
                cube = self.load()
                problems += c.check_msd_oracle(cube.values, self.judged_ranking(cube), self.m + "_msd.csv")
            outputs = [self.m + s for s in ("_entropy.csv", "_msd.csv", "_metrics.meta.json")]
        else:
            problems = c.check_eval(self.e, SELECTORS, len(self.eval_k), w.eval_runs)
            if first:
                cube = self.load()
                problems += c.check_knn_oracle(cube, self.judged_ranking(cube)[: self.eval_k[0]], self.seed)
            outputs = [self.e + s for s in ("_runs.csv", "_summary.csv", "_eval.meta.json")]
        if problems:
            return self._fail(label, problems)
        # Attempt already counted in _call; a digest mismatch turns it into a failure.
        return self._check_digests(label, outputs)

    def repeat(self, first=False, tracer=None):
        """Train, metrics and eval once; returns {stage: seconds} or None on failure."""
        times = {}
        for label, argv in self.stage_commands():
            span = tracer.span(f"stage.{label}") if tracer else contextlib.nullcontext()
            with span:
                elapsed = self._call(label, argv)
            if elapsed is None or not self._check_stage(label, first):
                return None
            times[label] = elapsed
        return times

    # -- inputs, read back for checks and quality metrics -------------------

    def load(self, path=None):
        """An input cube, read back. Callers drop it when done, so that it
        does not add the harness's memory to ``peak_rss_mb``."""
        from bandsel.cube import load_cube

        return load_cube(path or self.cube_path)

    def judged_ranking(self, cube=None):
        """Ranking of the first selector: the trained net, or the variance baseline."""
        if self.w.trains_judged_net:
            with open(self.net + ".json", encoding="utf-8") as fh:
                return json.load(fh)["ranking"]
        from bandsel.metrics import variance_rank

        cube = self.load() if cube is None else cube
        return variance_rank(cube, cube.bands).ranking

    def planted_recall(self):
        with open(self.cube_path + ".meta.json", encoding="utf-8") as fh:
            planted = set(json.load(fh)["informative"])
        return len(planted & set(self.judged_ranking()[: len(planted)])) / len(planted)

    def oa_mean(self):
        name = "net" if self.w.trains_judged_net else "variance"
        rows = [r for r in self.checks.read_csv(self.e + "_summary.csv") if r["selector"] == name]
        return statistics.fmean(float(r["oa_mean"]) for r in rows)

    # -- measurement ----------------------------------------------------------

    def warm_up(self):
        """One untimed repeat: lets caches fill and lazy set-up finish, and runs the oracle checks.

        Then counts the work of one repeat with the program's own
        functions: ``train_work`` (samples x epochs of the train stage) and
        ``predictions`` (test pixels classified by the eval stage).
        """
        if self.repeat(first=True) is None:
            return False
        from bandsel.cube import extract_patches, extract_pixels
        from bandsel.evaluate import SplitSpec, split

        w = self.w
        train_cube = self.load(self.train_path)
        if w.variant == "conv":
            samples = extract_patches(train_cube, w.window, w.stride)
        else:
            samples = extract_pixels(train_cube)
        self.train_work = len(samples) * w.epochs
        del train_cube, samples
        test_pixels = split(self.load(), SplitSpec(seed=self.seed))[1].size
        self.predictions = test_pixels * SELECTORS * len(self.eval_k) * w.eval_runs
        return True

    def measure(self, seconds, tracer=None, between=None):
        """Repeat the pipeline for ``seconds``; returns ([{stage: s}], root spans).

        ``between`` runs after each repeat; it returns False to stop. Its
        time is not counted, so every workload gets ``seconds`` of repeats.
        """
        samples, roots = [], []
        deadline = time.perf_counter() + seconds
        while not samples or time.perf_counter() < deadline:
            if tracer is None:
                times = self.repeat()
            else:
                roots.append(len(tracer.spans))
                with tracer.span("pipeline", repeat=len(samples)):
                    times = self.repeat(tracer=tracer)
            if times is None:
                break
            samples.append(times)
            if between is not None:
                start = time.perf_counter()
                if not between():
                    break
                deadline += time.perf_counter() - start
        return samples, roots[: len(samples)]


def end_to_end(run, setups, samples):
    """End-to-end metrics of one untraced run.

    Stage timings report the fast decile of the run's repeats (see
    :func:`fast_decile`); set-up time reports the median of SETUP_REPEATS
    set-ups. The detail keeps the median, quartiles and sample count.
    """
    detail = {}

    def put(name, values, stat="median"):
        if not values:
            return
        q1, med, q3 = quartiles(values)
        value = med if stat == "median" else fast_decile(values, higher_is_faster=stat == "p90")
        detail[name] = {"value": value, "stat": stat, "unit": END_TO_END_UNITS[name], "median": med,
                        "q1": q1, "q3": q3, "n": len(values)}

    put("setup_s", setups)
    if samples:
        put("pipeline_s", [sum(s.values()) for s in samples], "p10")
        put("train_samples_per_s", [run.train_work / s["train"] for s in samples], "p90")
        put("eval_predictions_per_s", [run.predictions / s["eval"] for s in samples], "p90")
        put("oa_mean", [run.oa_mean()])
    put("peak_rss_mb", [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0])
    put("ok_frac", [(run.attempted - run.failed) / max(run.attempted, 1)])
    return detail


def per_layer(run, tracer, missing, setup_root, untraced, traced, roots):
    import tracing

    values, omitted = tracing.layer_metrics(tracer, missing, roots, [setup_root])
    detail = {name: {"value": v, "unit": tracing.METRIC_UNITS[name]} for name, v in values.items()}
    if traced:
        detail["selection.planted_recall"] = {"value": run.planted_recall(), "unit": "ratio"}
    if untraced and traced:
        overhead = (statistics.median(sum(s.values()) for s in traced)
                    - statistics.median(sum(s.values()) for s in untraced))
        detail["tracing_overhead_s"] = {"value": overhead, "unit": "s"}
    return detail, omitted


def execute(run, seconds, trace):
    """Set up, warm up, measure and check one run; returns (metrics detail, extra record)."""
    if not trace:
        # Set-ups after the first are spread between repeats, so that their
        # median samples the whole run rather than its first seconds.
        setups = []

        def setup():
            if len(setups) >= SETUP_REPEATS:
                return True
            elapsed = run.setup_subprocess()
            if elapsed is not None:
                setups.append(elapsed)
            return elapsed is not None

        samples = run.measure(seconds, between=setup)[0] if setup() and run.warm_up() else []
        while samples and len(setups) < SETUP_REPEATS and setup():
            pass
        return end_to_end(run, setups, samples), {"repeats": len(samples)}

    import tracing

    targets = tracing.TARGETS + tracing.other_layer_targets()
    tracer = tracing.Tracer()
    inst = tracing.install(tracer, targets)
    try:
        setup_root = len(tracer.spans)
        with tracer.span("setup", repeat="setup"):
            ready = run.setup_inprocess()
    finally:
        inst.uninstall()
    untraced, traced, roots = [], [], []
    if ready and run.warm_up():
        untraced, _ = run.measure(seconds / 2)
        if not run.failed:
            inst = tracing.install(tracer, targets)
            try:
                traced, roots = run.measure(seconds / 2, tracer=tracer)
            finally:
                inst.uninstall()
    detail, omitted = per_layer(run, tracer, inst.missing, setup_root, untraced, traced, roots)
    return detail, {"missing_spans": sorted(inst.missing), "omitted_metrics": omitted,
                    "repeats": len(untraced), "traced_repeats": len(traced)}


def bench(workload, seed, seconds, trace, work):
    """One run of ``workload`` with its files in ``work``; returns (result, record).

    ``result`` is the object of the last output line; ``record`` holds the
    metrics with their quartiles, the failed checks and the repeat counts.
    """
    run = Run(workload, seed, work)
    detail, extra = execute(run, seconds, trace)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in detail.items()},
    }
    return result, {"metrics": detail, "problems": run.problems, **extra}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bandsel" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} is not a bandsel source tree (need src/bandsel and tests/oracles.py)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]

    import envinfo

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, record = bench(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it

    for name, m in record["metrics"].items():
        spread = (f"{m['stat']:6s} median {m['median']:.6g}, q1..q3 {m['q1']:.6g}..{m['q3']:.6g}, n={m['n']}"
                  if "n" in m else "")
        print(f"{name:36s} {m['value']:14.6g} {m['unit']:14s} {spread}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **record,
                      "env": envinfo.environment(ROOT, BLAS_THREADS)}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
