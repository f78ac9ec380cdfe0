"""Span tracer for the benchmark's traced runs.

The tracer wraps chestkit's public functions from the outside, records one
span per call (name, start, end, parent, value) in memory, and turns the
spans that fall inside timed windows into per-layer metrics.  Nothing under
``src/`` knows about it.  Two hooks reach past the public names, because the
facts they measure have no public seam yet:

* ``tensor._record``: every op hands its backward closure to it, so wrapping
  it is the one place to time each op's backward pass;
* ``training._batch_tensor``: the normalise-and-stack step of ``train``.

A name that a later version of chestkit no longer has is skipped, and the
metric it feeds reads 0.
"""

from __future__ import annotations

import bisect
import functools
import gc
import importlib
import json
import math
import sys
import time
import weakref
from array import array

MB = float(1 << 20)

TENSOR_OPS = ("conv2d", "add", "mul", "sum_all", "relu", "sigmoid", "softmax",
              "max_pool2d", "global_avg_pool", "upsample2x", "concat_channels",
              "dense")

# (module, attribute, span name, what the span's value records)
FUNCTIONS = (
    *(("tensor", op, f"tensor.{op}", "out_bytes") for op in TENSOR_OPS),
    ("training", "cross_entropy_loss", "training.loss", None),
    ("training", "dice_loss", "training.loss", None),
    ("training", "adam_step", "training.adam", "tapes_alive"),
    ("training", "_batch_tensor", "training.batch", None),
    ("postproc", "connected_components", "postproc.ccl", "count"),
    ("postproc", "erode", "postproc.morph", None),
    ("postproc", "dilate", "postproc.morph", None),
    ("postproc", "open_mask", "postproc.morph", None),
    ("postproc", "close_mask", "postproc.morph", None),
    ("postproc", "adaptive_threshold", "postproc.threshold", None),
    ("postproc", "run_pipeline", "postproc.other", None),
    ("postproc", "binarize", "postproc.other", None),
    ("postproc", "select_largest", "postproc.other", None),
    ("postproc", "apply_mask", "postproc.other", None),
    ("postproc", "infection_percentage", "postproc.other", None),
    ("postproc", "heatmap_overlay", "postproc.other", None),
    ("imaging", "load_image", "imaging.decode", None),
    ("imaging", "load_mask", "imaging.decode", None),
    ("imaging", "save_image", "imaging.encode", None),
    ("imaging", "save_mask", "imaging.encode", None),
    ("imaging", "resize", "imaging.resize", None),
    ("synthdata", "gen_classification_set", "synthdata.gen", None),
    ("synthdata", "gen_segmentation_set", "synthdata.gen", None),
    ("synthdata", "gen_infection_set", "synthdata.gen", None),
    ("models", "build_model", "models.build", None),
)

# (module, class, method, span name, value)
METHODS = (
    ("models", "Irrcnn", "forward", "models.forward", None),
    ("models", "Nabla3", "forward", "models.forward", None),
    ("postproc", "OracleSegmenter", "forward", "postproc.other", None),
    ("tensor", "Tape", "backward", "tensor.backward", "tape_nodes"),
)

# per-layer metric -> (span names summed, what is summed, unit)
#   "self": self time in seconds, "value": the span's recorded value,
#   "calls": number of spans; every sum is divided by the operation count
PER_OP = {
    "tensor.conv2d.fwd_s": (("tensor.conv2d",), "self", "s"),
    "tensor.conv2d.bwd_s": (("tensor.conv2d.bwd",), "self", "s"),
    "tensor.conv2d.calls": (("tensor.conv2d",), "calls", "count"),
    "tensor.ops.fwd_s": (tuple(f"tensor.{op}" for op in TENSOR_OPS[1:]), "self", "s"),
    "tensor.ops.bwd_s": (tuple(f"tensor.{op}.bwd" for op in TENSOR_OPS[1:]), "self", "s"),
    "tensor.tape_nodes": (("tensor.backward",), "value", "count"),
    "tensor.backward_s": (("tensor.backward",), "self", "s"),
    "tensor.out_mb": (tuple(f"tensor.{op}" for op in TENSOR_OPS), "value", "MB"),
    "tensor.tapes_alive": (("training.adam",), "value", "count"),
    "python.gc_s": (("python.gc",), "self", "s"),
    "python.gc_collections": (("python.gc",), "calls", "count"),
    "python.gc_collected": (("python.gc",), "value", "count"),
    "models.forward_s": (("models.forward",), "self", "s"),
    "training.batch_s": (("training.batch",), "self", "s"),
    "training.loss_s": (("training.loss", "training.loss.bwd"), "self", "s"),
    "training.adam_s": (("training.adam",), "self", "s"),
    "postproc.ccl_s": (("postproc.ccl",), "self", "s"),
    "postproc.regions": (("postproc.ccl",), "value", "count"),
    "postproc.morph_s": (("postproc.morph",), "self", "s"),
    "postproc.threshold_s": (("postproc.threshold",), "self", "s"),
    "postproc.other_s": (("postproc.other",), "self", "s"),
    "imaging.decode_s": (("imaging.decode",), "self", "s"),
    "imaging.encode_s": (("imaging.encode",), "self", "s"),
    "imaging.resize_s": (("imaging.resize",), "self", "s"),
}

# per-layer metric -> span name whose inclusive time is summed over set-up
# windows and divided by the number of set-ups
PER_SETUP = {
    "synthdata.gen_s": "synthdata.gen",
    "models.build_s": "models.build",
}


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    ``spans`` holds (name, start, end, parent, value) records, ``parent``
    being the index of the enclosing span or -1.
    """
    children = [[] for _ in spans]
    for name, start, end, parent, value in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - union_length(children[i], start, end)
            for i, (name, start, end, parent, value) in enumerate(spans)]


def in_windows(time_point: float, windows) -> bool:
    """Whether the point lies in one of the sorted, disjoint ``windows``."""
    i = bisect.bisect_right(windows, (time_point, math.inf)) - 1
    return i >= 0 and windows[i][0] <= time_point <= windows[i][1]


def summarize(spans, timed_windows, ops: int, setup_windows, setups: int) -> dict:
    """Per-layer metrics from spans: per operation inside the timed windows,
    per set-up inside the set-up windows."""
    selfs = self_times(spans)
    timed_windows, setup_windows = sorted(timed_windows), sorted(setup_windows)
    sums: dict[tuple[str, str], float] = {}
    for (name, start, end, parent, value), own in zip(spans, selfs):
        if in_windows(start, timed_windows):
            for kind, amount in (("self", own), ("value", value), ("calls", 1.0)):
                sums[name, kind] = sums.get((name, kind), 0.0) + amount
        elif in_windows(start, setup_windows):
            sums[name, "inclusive"] = sums.get((name, "inclusive"), 0.0) + (end - start)
    metrics = {}
    for metric, (names, kind, unit) in PER_OP.items():
        total = sum(sums.get((name, kind), 0.0) for name in names)
        if metric == "tensor.out_mb":
            total /= MB
        metrics[metric] = {"value": total / max(ops, 1), "unit": unit}
    for metric, name in PER_SETUP.items():
        metrics[metric] = {"value": sums.get((name, "inclusive"), 0.0) / max(setups, 1),
                           "unit": "s"}
    return metrics


class Tracer:
    """Records spans around chestkit calls while installed.

    Spans live in typed arrays, with each name stored as a small int code,
    so recording a forward call creates no object the cyclic collector
    tracks, and full collections do not scan a span list that grows with
    the run.  The one tracked object per op is the ``functools.partial``
    that times its backward closure (see ``python.gc_*`` in the README).
    """

    def __init__(self):
        self.names: list[str] = []          # name code -> span name
        self._codes: dict[str, int] = {}
        self._name = array("q")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._value = array("d")
        self._stack = array("q")
        self._bwd_codes: dict[int, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._tapes: list[weakref.ref] = []
        self._gc_code = self.code("python.gc")
        self._gc_span = -1

    # -- span bookkeeping -------------------------------------------------

    def code(self, name: str) -> int:
        """The int that stands for ``name`` in the span arrays."""
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def open(self, code: int) -> int:
        self._name.append(code)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._value.append(0.0)
        self._start.append(time.perf_counter())
        idx = len(self._start) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, value: float = 0.0) -> None:
        self._end[idx] = time.perf_counter()
        self._value[idx] = value
        while self._stack and self._stack.pop() != idx:
            pass

    @property
    def spans(self) -> list[tuple[str, float, float, int, float]]:
        """Every span as (name, start, end, parent, value)."""
        return [(self.names[n], start, end, parent, value) for n, start, end, parent, value
                in zip(self._name, self._start, self._end, self._parent, self._value)]

    def wrap(self, name: str, fn, value=None):
        """``fn`` with a span around each call; ``value(result, args)``, if
        given, is stored on the span after it closes."""
        tracer = self
        code = self.code(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if value is not None:
                tracer._value[idx] = float(value(result, args))
            return result

        return traced

    def _backward(self, code: int, fn, grad):
        idx = self.open(code)
        try:
            return fn(grad)
        finally:
            self.close(idx)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_span = self.open(self._gc_code)
        elif self._gc_span >= 0:
            self.close(self._gc_span, info.get("collected", 0))
            self._gc_span = -1

    # -- values recorded on spans ----------------------------------------

    def _alive_earlier_tapes(self, result, args) -> int:
        alive = [ref for ref in self._tapes if ref() is not None]
        self._tapes = alive
        # the step's own tape is still bound inside train(); count the rest
        return max(len(alive) - 1, 0)

    def _values(self):
        return {
            "out_bytes": lambda result, args: result.data.nbytes,
            "count": lambda result, args: len(result),
            "tape_nodes": lambda result, args: len(args[0]),
            "tapes_alive": self._alive_earlier_tapes,
        }

    # -- installing the wrappers -----------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        mods = {name: importlib.import_module(f"chestkit.{name}")
                for name in ("tensor", "models", "training", "postproc",
                             "imaging", "synthdata")}
        package = [m for key, m in sys.modules.items()
                   if m is not None and (key == "chestkit" or key.startswith("chestkit."))]
        values = self._values()
        for mod, attr, name, value in FUNCTIONS:
            original = getattr(mods[mod], attr, None)
            if original is None:
                continue
            traced = self.wrap(name, original, values.get(value))
            # rebind every module-level alias, so calls from inside the
            # package (models -> tensor.conv2d, synthdata -> postproc) are seen
            for module in package:
                for key, obj in list(vars(module).items()):
                    if obj is original:
                        self._replace(module, key, traced)
        for mod, cls_name, attr, name, value in METHODS:
            cls = getattr(mods[mod], cls_name, None)
            if cls is None or not hasattr(cls, attr):
                continue
            self._replace(cls, attr, self.wrap(name, getattr(cls, attr), values.get(value)))

        tape_cls = mods["tensor"].Tape
        enter = tape_cls.__enter__
        tracer = self

        def traced_enter(tape):
            tracer._tapes.append(weakref.ref(tape))
            return enter(tape)

        self._replace(tape_cls, "__enter__", traced_enter)

        record = getattr(mods["tensor"], "_record", None)
        if record is not None:
            unlabelled = self.code("tensor.unlabelled")
            backward = self._backward

            def traced_record(out, parents, backward_fn):
                owner = self._name[self._stack[-1]] if self._stack else unlabelled
                if owner not in self._bwd_codes:
                    self._bwd_codes[owner] = self.code(self.names[owner] + ".bwd")
                return record(out, parents,
                              functools.partial(backward, self._bwd_codes[owner], backward_fn))

            self._replace(mods["tensor"], "_record", traced_record)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        """Write the spans as JSON: one [name, start, end, parent, value] row each."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "value"],
                       "spans": self.spans}, fh)
