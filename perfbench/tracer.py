"""Span tracer that instruments slicepick from outside, by wrapping names.

``Tracer.install`` replaces every public function of the layer modules with
a timing wrapper at each place a caller looks it up: every ``slicepick``
module namespace that binds the function object (``from .encoder import
train`` in ``pipeline`` and ``cli``, ``sampler.build_epoch`` and
``_kernels.dist_to_row`` as module attributes, globals such as
``encoder.forward`` called from ``embed_all``). ``LossBatch`` is wrapped only
where the training loop constructs it, ``encoder.LossBatch``, so
``isinstance`` checks inside ``losses`` still see the class.
``DatasetIndex.pixel_matrix`` is wrapped on the class. ``Tracer.restore``
puts every original back and ``leftovers`` proves none is missed.

Spans stay in memory as tuples (id, name, start, end, parent, thread id,
thread CPU seconds) until ``write_spans``. A span opened on a worker thread
with no open span of its own takes as parent the innermost open span of the
installing thread, which is the call that submitted the work
(``run_experiment`` for its repeat pool).
"""

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# module name -> layer name used in metric names
LAYERS = {
    "slicepick.data": "data",
    "slicepick.sampler": "sampler",
    "slicepick.losses": "losses",
    "slicepick.encoder": "encoder",
    "slicepick.coreset": "coreset",
    "slicepick.pipeline": "pipeline",
    "slicepick._kernels": "kernels",
}

_MARK = "__perfbench_traced__"
_F8 = 8  # bytes per float64


def _kernel_bytes(name, args):
    """Input plus output bytes of one kernel call, computed from argument
    shapes (not measured, and independent of the kernel's algorithm)."""
    if name == "dist_to_row":
        n, p = args[0].shape
        return _F8 * (n * p + n)
    if name == "pair_mean_abs":
        m = len(args[1])
        return _F8 * (2 * m * args[0].shape[1] + 3 * m)
    if name == "all_pairs_mean_abs":
        return _F8 * args[0].size
    if name == "nn_indices":
        q, p = args[0].shape
        return _F8 * ((q + len(args[1])) * p + q)
    if name == "pairwise_dists":
        n, p = args[0].shape
        return _F8 * (n * p + n * n)
    raise KeyError(name)


def _observe(name, args, result, seconds, counts):
    """Work counts taken at the layer boundary from arguments and results."""
    if name == "sampler.build_epoch":
        counts["sampler.anchors_dropped"] += args[0].n - sum(len(b) for b in result.batches)
    elif name == "losses.loss_and_grad":
        counts["encoder.rows"] += args[0].z.shape[0]
    elif name == "coreset.k_center_greedy":
        counts["coreset.picks"] += len(result.trace)
    elif name == "pipeline.probe_accuracy":
        counts["pipeline.probe.queries"] += len(args[0]) - len({int(i) for i in args[1]})
    elif name == "data.group_deviation":
        grouping = args[1] if len(args) > 1 else None
        counts[f"data.group_deviation.{grouping}.s"] += seconds
    elif name.startswith("kernels."):
        counts[f"{name}.bytes"] += _kernel_bytes(name[len("kernels."):], args)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack = None
        self._sites = []  # (owner, attribute, original)

    # -- recording ----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is not tracer._root_stack and tracer._root_stack:
                parent = tracer._root_stack[-1]
            else:
                parent = None
            span_id = next(tracer._ids)
            stack.append(span_id)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                tracer.spans.append(
                    (span_id, name, t0, t1, parent, threading.get_ident(), c1 - c0)
                )
            _observe(name, args, result, t1 - t0, tracer.counts)
            return result

        functools.update_wrapper(traced, fn, updated=())
        setattr(traced, _MARK, True)
        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own (the harness's root spans)."""
        return self._wrap(name, fn)(*args, **kwargs)

    # -- patching -----------------------------------------------------------

    def _targets(self):
        for modname, layer in LAYERS.items():
            module = sys.modules[modname]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == modname
                ):
                    yield f"{layer}.{attr}", obj

    def _patch(self, owner, attr, wrapper):
        self._sites.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        if self._sites:
            raise RuntimeError("tracer is already installed")
        self._root_stack = self._stack()
        modules = [m for n, m in list(sys.modules.items()) if _is_slicepick(n)]
        for name, fn in self._targets():
            wrapper = self._wrap(name, fn)
            for module in modules:
                for attr, obj in list(vars(module).items()):
                    if obj is fn:
                        self._patch(module, attr, wrapper)
        encoder = sys.modules["slicepick.encoder"]
        self._patch(encoder, "LossBatch", self._wrap("losses.LossBatch", encoder.LossBatch))
        index = sys.modules["slicepick.data"].DatasetIndex
        self._patch(
            index, "pixel_matrix", self._wrap("data.pixel_matrix", index.pixel_matrix)
        )

    def restore(self):
        while self._sites:
            owner, attr, original = self._sites.pop()
            setattr(owner, attr, original)
        self._root_stack = None

    # -- results ------------------------------------------------------------

    def summary(self):
        """Per span name: calls, seconds, self seconds and wait seconds.

        Self time is a span's duration minus the union of its direct
        children's intervals; wait time is wall time minus thread CPU time.
        """
        children = defaultdict(list)
        for s in self.spans:
            if s[4] is not None:
                children[s[4]].append((s[2], s[3]))
        out = defaultdict(lambda: dict(calls=0, s=0.0, self_s=0.0, wait_s=0.0))
        for span_id, name, t0, t1, _, _, cpu in self.spans:
            row = out[name]
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += (t1 - t0) - _covered(children[span_id], t0, t1)
            row["wait_s"] += max(0.0, (t1 - t0) - cpu)
        return dict(out)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, name, t0, t1, parent, tid, cpu in sorted(self.spans, key=lambda s: s[2]):
                fh.write(
                    json.dumps(
                        dict(id=span_id, name=name, start=t0, end=t1, parent=parent,
                             thread=tid, cpu_s=cpu)
                    )
                    + "\n"
                )


def _is_slicepick(modname):
    return modname == "slicepick" or modname.startswith("slicepick.")


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def leftovers():
    """Every traced wrapper still bound in a slicepick module or class."""
    found = []
    for modname, module in list(sys.modules.items()):
        if not _is_slicepick(modname):
            continue
        for attr, obj in vars(module).items():
            if getattr(obj, _MARK, False):
                found.append(f"{modname}.{attr}")
            elif inspect.isclass(obj) and obj.__module__ == modname:
                for cattr, cobj in vars(obj).items():
                    if getattr(cobj, _MARK, False):
                        found.append(f"{modname}.{attr}.{cattr}")
    return found
