"""Span tracing of the bandsel pipeline, installed from outside the package.

The tracer wraps public functions and methods of the bandsel modules by
replacing them where they are looked up: class attributes for methods, and
every ``bandsel.*`` module global bound to the same object for functions
(``training`` calls ``adam_step`` through its own import, so patching only
``bandsel.nn.optim`` would miss it). Nothing under ``src/`` is edited.

Each call records one span ``[name, start, end, parent, repeat, attrs]``;
``parent`` is the index of the enclosing span and ``repeat`` the pipeline
repeat it belongs to. ``attrs`` holds counts computed from argument shapes
(FLOPs, parameter elements, bytes read). A target that no longer exists is
reported as missing, and every metric that depends on it is omitted rather
than reported as zero.
"""

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from contextlib import contextmanager

NAME, START, END, PARENT, REPEAT, ATTRS = range(6)


class Tracer:
    """In-memory span recorder; spans nest by call order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self.repeat = None
        self.uncounted = set()

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.repeat, {}])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][NAME]!r} closed out of order")
        self._stack.pop()
        self.spans[index][END] = self.clock()

    @contextmanager
    def span(self, name, repeat=None):
        previous = self.repeat
        if repeat is not None:
            self.repeat = repeat
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)
            self.repeat = previous


# ---------------------------------------------------------------------------
# Counts computed from shapes. Conv counts assume stride 1, the only stride
# the selector models use; backward passes cost twice their forward pass
# (input gradient plus parameter gradient).


def _dense_forward(args, result):
    x = args[1]
    return {"flop": 2 * x.shape[0] * x.shape[1] * result.shape[1]}


def _dense_backward(args, result):
    grad = args[1]
    return {"flop": 4 * grad.shape[0] * grad.shape[1] * result.shape[1]}


def _conv_flop(layer, out_tensor, in_channels):
    kh, kw = layer.kernels.shape[:2]
    batch, h, w, cout = out_tensor.shape
    return 2 * batch * h * w * kh * kw * in_channels * cout


def _conv_forward(args, result):
    return {"flop": _conv_flop(args[0], result, args[1].shape[3])}


def _conv_backward(args, result):
    return {"flop": 2 * _conv_flop(args[0], args[1], result.shape[3])}


def _adam_params(args, result):
    params = args[0]
    if hasattr(params, "size"):
        return {"params": int(params.size)}
    return {"params": sum(int(p.size) for p in params)}


def _knn_predictions(args, result):
    return {"predictions": int(len(result))}


def _bytes_read(args, result):
    return {"bytes": os.path.getsize(args[0])}


# (span name, "module:qualified.name", counter or None)
TARGETS = [
    ("optim.adam_step", "bandsel.nn.optim:adam_step", _adam_params),
    ("layers.dense.forward", "bandsel.nn.layers:DenseLayer.forward", _dense_forward),
    ("layers.dense.backward", "bandsel.nn.layers:DenseLayer.backward", _dense_backward),
    ("layers.conv.forward", "bandsel.nn.layers:Conv2DLayer.forward", _conv_forward),
    ("layers.conv.backward", "bandsel.nn.layers:Conv2DLayer.backward", _conv_backward),
    ("models.backprop", "bandsel.models:BandSelectorFC.backprop", None),
    ("models.backprop", "bandsel.models:BandSelectorConv.backprop", None),
    ("models.band_weights", "bandsel.models:BandSelectorFC.band_weights", None),
    ("models.band_weights", "bandsel.models:BandSelectorConv.band_weights", None),
    ("training.train", "bandsel.training:train", None),
    ("metrics.msd_sweep", "bandsel.metrics:msd_sweep", None),
    ("metrics.entropy_table", "bandsel.metrics:entropy_table", None),
    ("metrics.skl_divergence", "bandsel.metrics:skl_divergence", None),
    ("metrics.band_histogram", "bandsel.metrics:band_histogram", None),
    ("evaluate.sweep", "bandsel.evaluate:sweep", None),
    ("evaluate.split", "bandsel.evaluate:split", None),
    ("evaluate.classify_knn", "bandsel.evaluate:classify_knn", _knn_predictions),
    ("evaluate.report", "bandsel.evaluate:report", None),
    ("cube.load_cube", "bandsel.cube:load_cube", _bytes_read),
    ("cube.save_cube", "bandsel.cube:save_cube", None),
    ("cube.extract", "bandsel.cube:extract_pixels", None),
    ("cube.extract", "bandsel.cube:extract_patches", None),
    ("cube.scale_unit", "bandsel.cube:scale_unit", None),
    ("synthetic.synth_generate", "bandsel.synthetic:synth_generate", None),
    ("cli.main", "bandsel.cli:main", None),
]

# Leaf layers other than dense and conv (pooling, reshaping) are found by
# inspection, so folding or renaming them keeps them measured.
_NAMED_LAYERS = {"DenseLayer", "Conv2DLayer", "LayerStack"}


def other_layer_targets():
    module = importlib.import_module("bandsel.nn.layers")
    targets = []
    for cls_name, cls in inspect.getmembers(module, inspect.isclass):
        if cls.__module__ != module.__name__ or cls_name in _NAMED_LAYERS:
            continue
        if callable(getattr(cls, "forward", None)) and callable(getattr(cls, "backward", None)):
            for method in ("forward", "backward"):
                targets.append((f"layers.other.{method}", f"bandsel.nn.layers:{cls_name}.{method}", None))
    return targets


def _wrap(tracer, name, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if counter is not None:
            try:
                tracer.spans[index][ATTRS] = counter(args, result)
            except (AttributeError, IndexError, TypeError, ValueError, OSError):
                tracer.uncounted.add(name)
        return result

    traced.__traced_original__ = fn
    return traced


def _resolve(target):
    module_name, qualname = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None, None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    return owner, parts[-1], getattr(owner, parts[-1], None)


_INHERITED = object()


class Installation:
    """Wrapped targets plus the span names whose target could not be found."""

    def __init__(self):
        self.restore = []
        self.missing = set()
        self.found = set()

    def uninstall(self):
        for holder, attr, original in reversed(self.restore):
            if original is _INHERITED:
                delattr(holder, attr)
            else:
                setattr(holder, attr, original)
        self.restore.clear()


def install(tracer, targets):
    """Wrap every target; returns an :class:`Installation` to undo it."""
    inst = Installation()
    for name, target, counter in targets:
        owner, attr, original = _resolve(target)
        if original is None or not callable(original):
            inst.missing.add(name)
            continue
        inst.found.add(name)
        if inspect.isclass(owner):
            if attr in owner.__dict__ and hasattr(owner.__dict__[attr], "__traced_original__"):
                continue
            inst.restore.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
            setattr(owner, attr, _wrap(tracer, name, original, counter))
            continue
        wrapper = _wrap(tracer, name, original, counter)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "bandsel" or mod_name.startswith("bandsel.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    inst.restore.append((module, key, original))
                    setattr(module, key, wrapper)
    # A name is missing only if none of its targets exist.
    inst.missing -= inst.found
    return inst


# ---------------------------------------------------------------------------
# Span arithmetic.


class SpanTree:
    """Durations, self times and ancestry over one tracer's spans."""

    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        self.duration = [s[END] - s[START] for s in spans]
        for i, s in enumerate(spans):
            if s[PARENT] is not None:
                self.children[s[PARENT]].append(i)
        self.self_time = [
            self.duration[i] - sum(self.duration[c] for c in self.children[i]) for i in range(len(spans))
        ]

    def has_ancestor(self, index, name):
        parent = self.spans[index][PARENT]
        while parent is not None:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def subtree(self, root):
        out, todo = [], [root]
        while todo:
            i = todo.pop()
            out.append(i)
            todo.extend(self.children[i])
        return out


class RepeatView:
    """Aggregates over the spans of one root span (a pipeline repeat or a set-up)."""

    def __init__(self, tree, root):
        self.tree = tree
        self._by_name = {}
        for i in sorted(tree.subtree(root)):
            self._by_name.setdefault(tree.spans[i][NAME], []).append(i)

    def named(self, name):
        return self._by_name.get(name, [])

    def total(self, name, exclude_under=None, only_under=None):
        """Summed duration of outermost spans of ``name``, optionally by ancestry."""
        acc = 0.0
        for i in self.named(name):
            if self.tree.has_ancestor(i, name):
                continue
            if exclude_under is not None and self.tree.has_ancestor(i, exclude_under):
                continue
            if only_under is not None and not self.tree.has_ancestor(i, only_under):
                continue
            acc += self.tree.duration[i]
        return acc

    def self_total(self, name):
        return sum(self.tree.self_time[i] for i in self.named(name))

    def calls(self, name):
        return len(self.named(name))

    def attr(self, name, key):
        return sum(self.tree.spans[i][ATTRS].get(key, 0) for i in self.named(name))

    def step_ms(self):
        """Per-step time in ms: a backprop span to the end of the next Adam step in ``train``."""
        steps = []
        for t in self.named("training.train"):
            pending = None
            for c in self.tree.children[t]:
                name = self.tree.spans[c][NAME]
                if name == "models.backprop":
                    pending = self.tree.spans[c][START]
                elif name == "optim.adam_step" and pending is not None:
                    steps.append((self.tree.spans[c][END] - pending) * 1e3)
                    pending = None
        return steps


def _ratio(num, den):
    return num / den if den else 0.0


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


# (metric name, unit, span names it depends on, function of a RepeatView).
# Metrics on set-up spans are marked "setup"; the rest read pipeline repeats.
PIPELINE_METRICS = [
    ("optim.adam_step.s", "s", ["optim.adam_step"], lambda v: v.total("optim.adam_step")),
    ("optim.adam_step.calls", "count", ["optim.adam_step"], lambda v: v.calls("optim.adam_step")),
    ("optim.adam_step.us_per_call", "us", ["optim.adam_step"],
     lambda v: 1e6 * _ratio(v.total("optim.adam_step"), v.calls("optim.adam_step"))),
    ("optim.adam_step.params_per_call", "elem_computed", ["optim.adam_step", "optim.adam_step#attrs"],
     lambda v: _ratio(v.attr("optim.adam_step", "params"), v.calls("optim.adam_step"))),
    ("optim.adam_share", "ratio", ["optim.adam_step", "training.train"],
     lambda v: _ratio(v.total("optim.adam_step"), v.total("training.train"))),
    ("layers.dense.forward_s", "s", ["layers.dense.forward"], lambda v: v.total("layers.dense.forward")),
    ("layers.dense.backward_s", "s", ["layers.dense.backward"], lambda v: v.total("layers.dense.backward")),
    ("layers.dense.calls", "count", ["layers.dense.forward", "layers.dense.backward"],
     lambda v: v.calls("layers.dense.forward") + v.calls("layers.dense.backward")),
    ("layers.dense.gflop", "gflop_computed",
     ["layers.dense.forward#attrs", "layers.dense.backward#attrs"],
     lambda v: 1e-9 * (v.attr("layers.dense.forward", "flop") + v.attr("layers.dense.backward", "flop"))),
    ("layers.conv.forward_s", "s", ["layers.conv.forward"], lambda v: v.total("layers.conv.forward")),
    ("layers.conv.backward_s", "s", ["layers.conv.backward"], lambda v: v.total("layers.conv.backward")),
    ("layers.conv.calls", "count", ["layers.conv.forward", "layers.conv.backward"],
     lambda v: v.calls("layers.conv.forward") + v.calls("layers.conv.backward")),
    ("layers.conv.gflop", "gflop_computed",
     ["layers.conv.forward#attrs", "layers.conv.backward#attrs"],
     lambda v: 1e-9 * (v.attr("layers.conv.forward", "flop") + v.attr("layers.conv.backward", "flop"))),
    # Against the forward passes inside backprop only: the forward-only
    # weight averaging in train has no backward pass to compare with.
    ("layers.conv.backward_over_forward", "ratio",
     ["layers.conv.forward", "layers.conv.backward", "models.backprop"],
     lambda v: _ratio(v.total("layers.conv.backward"), v.total("layers.conv.forward", only_under="models.backprop"))),
    ("layers.other_s", "s", ["layers.other.forward", "layers.other.backward"],
     lambda v: v.total("layers.other.forward") + v.total("layers.other.backward")),
    ("models.backprop.s", "s", ["models.backprop"], lambda v: v.total("models.backprop")),
    ("models.backprop.self_s", "s", ["models.backprop"], lambda v: v.self_total("models.backprop")),
    ("models.band_weights.s", "s", ["models.band_weights"],
     lambda v: v.total("models.band_weights", exclude_under="models.backprop")),
    ("training.train.s", "s", ["training.train"], lambda v: v.total("training.train")),
    ("training.self_s", "s", ["training.train"], lambda v: v.self_total("training.train")),
    ("training.steps", "count", ["training.train", "models.backprop", "optim.adam_step"],
     lambda v: len(v.step_ms())),
    ("training.step_ms_p50", "ms", ["training.train", "models.backprop", "optim.adam_step"],
     lambda v: _percentile(v.step_ms(), 0.5)),
    ("training.step_ms_p99", "ms", ["training.train", "models.backprop", "optim.adam_step"],
     lambda v: _percentile(v.step_ms(), 0.99)),
    ("metrics.msd_sweep.s", "s", ["metrics.msd_sweep"], lambda v: v.total("metrics.msd_sweep")),
    ("metrics.entropy_table.s", "s", ["metrics.entropy_table"], lambda v: v.total("metrics.entropy_table")),
    ("metrics.skl_divergence.calls", "count", ["metrics.skl_divergence"],
     lambda v: v.calls("metrics.skl_divergence")),
    ("metrics.band_histogram.calls", "count", ["metrics.band_histogram"],
     lambda v: v.calls("metrics.band_histogram")),
    ("evaluate.classify_knn.s", "s", ["evaluate.classify_knn"], lambda v: v.total("evaluate.classify_knn")),
    ("evaluate.classify_knn.calls", "count", ["evaluate.classify_knn"],
     lambda v: v.calls("evaluate.classify_knn")),
    ("evaluate.knn.predictions", "count", ["evaluate.classify_knn#attrs"],
     lambda v: v.attr("evaluate.classify_knn", "predictions")),
    ("evaluate.split.s", "s", ["evaluate.split"], lambda v: v.total("evaluate.split")),
    ("evaluate.split.calls", "count", ["evaluate.split"], lambda v: v.calls("evaluate.split")),
    ("evaluate.report.s", "s", ["evaluate.report"], lambda v: v.total("evaluate.report")),
    ("evaluate.knn_share", "ratio", ["evaluate.classify_knn", "evaluate.sweep"],
     lambda v: _ratio(v.total("evaluate.classify_knn"), v.total("evaluate.sweep"))),
    ("evaluate.sweep.self_s", "s", ["evaluate.sweep"], lambda v: v.self_total("evaluate.sweep")),
    ("cube.load_cube.s", "s", ["cube.load_cube"], lambda v: v.total("cube.load_cube")),
    ("cube.load_cube.calls", "count", ["cube.load_cube"], lambda v: v.calls("cube.load_cube")),
    ("cube.load_cube.mb_read", "MB", ["cube.load_cube#attrs"], lambda v: 1e-6 * v.attr("cube.load_cube", "bytes")),
    ("cube.extract.s", "s", ["cube.extract"], lambda v: v.total("cube.extract")),
    ("cube.scale_unit.s", "s", ["cube.scale_unit"], lambda v: v.total("cube.scale_unit")),
    ("cli.self_s", "s", ["cli.main"], lambda v: v.self_total("cli.main")),
]

SETUP_METRICS = [
    ("cube.save_cube.s", "s", ["cube.save_cube"], lambda v: v.total("cube.save_cube")),
    ("synthetic.synth_generate.s", "s", ["synthetic.synth_generate"],
     lambda v: v.total("synthetic.synth_generate")),
]

METRIC_UNITS = {name: unit for name, unit, _, _ in PIPELINE_METRICS + SETUP_METRICS}


def layer_metrics(tracer, missing, pipeline_roots, setup_roots):
    """Median per-root value of every per-layer metric whose spans all exist.

    Returns (metrics {name: value}, omitted metric names).
    """
    tree = SpanTree(tracer.spans)
    # "name#attrs" stands for the counts recorded on a span name's calls.
    missing = set(missing) | {f"{n}#attrs" for n in set(missing) | tracer.uncounted}
    values, omitted = {}, []
    for table, roots in ((PIPELINE_METRICS, pipeline_roots), (SETUP_METRICS, setup_roots)):
        views = [RepeatView(tree, r) for r in roots]
        for name, _, deps, fn in table:
            if any(d in missing for d in deps) or not views:
                omitted.append(name)
                continue
            values[name] = statistics.median(float(fn(v)) for v in views)
    return values, omitted
