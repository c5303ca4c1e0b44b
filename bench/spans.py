"""Spans recorded around the program's public functions, and the arithmetic
the benchmark reports from them.

A `Tracer` swaps functions and methods of the `gdafas` modules for thin
wrappers while it is installed and puts the originals back when it is
removed. The program itself is never edited.

Untraced (``spans=False``) only the optimizer step is wrapped: each return of
`Adam.step` inside a round stamps the clock, so step times come from the
stamps. Traced, every target in `targets()` records a span (name, start, end,
parent) plus counts, and the rounds are cut into ``pipeline.step`` spans at the
same optimizer-step returns. A span's self time is its duration minus the
durations of its children.
"""

import contextlib
import functools
import math
import os
import sys
import time
import tracemalloc

STEP = "pipeline.step"
ROUND = "bench.round"
SETUP = "bench.setup"


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts", "counted")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent        # index into Tracer.spans, or None
        self.counts = {}
        self.counted = True         # False for a round's first and last step

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Span store with the optimizer-step clock; see the module docstring."""

    def __init__(self, spans: bool, clock=time.perf_counter):
        self.record_spans = spans
        self.clock = clock
        self.spans = []
        self.stack = []             # indices of open spans
        self.rounds = []            # per round: (start, [step-return stamps], end)
        self._stamps = None         # stamps of the open round
        self._alloc_seen = None     # names already traced by tracemalloc this round
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def open(self, name) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, self.clock(), parent))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int):
        if self.stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        self.stack.pop()
        self.spans[index].end = self.clock()

    @contextlib.contextmanager
    def span(self, name):
        """Always recorded: phases and rounds frame the layer spans."""
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    @contextlib.contextmanager
    def round(self, steps: bool):
        """One repetition of a workload's operations.

        Optimizer-step returns inside it stamp the clock. Traced with
        `steps`, the round is cut into step spans at those returns; the first
        one holds the work before the training loop and the last one the work
        after it, so neither is counted.
        """
        self._stamps, self._alloc_seen = [], set()
        start = self.clock()
        cut = steps and self.record_spans
        try:
            with self.span(ROUND):
                if cut:
                    self.spans[self.open(STEP)].counted = False
                try:
                    yield
                finally:
                    if cut:
                        self.spans[self.stack[-1]].counted = False
                        self.close(self.stack[-1])
            self.rounds.append((start, self._stamps, self.clock()))
        finally:
            self._stamps = self._alloc_seen = None

    def step_returned(self):
        if self._stamps is None:
            return                  # optimizer steps of set-up are not timed
        self._stamps.append(self.clock())
        if self.stack and self.spans[self.stack[-1]].name == STEP:
            self.close(self.stack[-1])
            self.open(STEP)

    def step_times(self):
        """Seconds between consecutive optimizer-step returns of each round."""
        out = []
        for _, stamps, _ in self.rounds:
            out.extend(b - a for a, b in zip(stamps, stamps[1:]))
        return out

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, name, before=None, after=None, alloc=False):
        """`fn` inside a span; `before`/`after` add counts to it.

        ``before(counts, args, kwargs)`` runs ahead of the call and
        ``after(counts, args, kwargs, result)`` behind it. With ``alloc``
        tracemalloc runs for the first call of each round and its peak is
        kept; tracemalloc slows every allocation, so the other calls run
        without it. On a training workload that first call falls in the
        round's first step, which is not counted.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            counts = tracer.spans[index].counts
            counts["calls"] = 1
            if before is not None:
                before(counts, args, kwargs)
            seen = tracer._alloc_seen
            tracing = (alloc and seen is not None and name not in seen
                       and not tracemalloc.is_tracing())
            if tracing:
                seen.add(name)
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if tracing:
                    counts["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer.close(index)
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr, replacement, modules=()):
        """Rebind ``owner.attr``, and every same-object binding in `modules`."""
        original = getattr(owner, attr)
        holders = [owner] + [m for m in modules
                             if m is not owner and getattr(m, attr, None) is original]
        for holder in holders:
            setattr(holder, attr, replacement)
            self._undo.append((holder, attr, original))
        return original

    def unpatch(self):
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the targets (traced) and the optimizer-step clock (always)."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "gdafas" or n.startswith("gdafas.")}
        try:
            if self.record_spans:
                for owner, attr, name, before, after, alloc in targets(mods):
                    fn = self.wrap(getattr(owner, attr), name, before, after, alloc)
                    self.patch(owner, attr, fn, mods.values())
            adam = mods["gdafas.layers"].Adam
            step = adam.step
            tracer = self

            @functools.wraps(step)
            def stamped(*args, **kwargs):
                out = step(*args, **kwargs)
                tracer.step_returned()
                return out

            self.patch(adam, "step", stamped)
            yield self
        finally:
            self.unpatch()


# ---------------------------------------------------------------------------
# what is traced


def _conv_counts(counts, args, kwargs):
    x, weight = args[0], args[1]
    stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
    padding = kwargs.get("padding", args[4] if len(args) > 4 else 0)
    b, cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    counts["flop"] = 2 * b * cout * ho * wo * cin * kh * kw


def targets(mods):
    """(owner, attribute, span name, before, after, alloc) for each target."""
    T = mods["gdafas.tensor"]
    layers = mods["gdafas.layers"]
    models = mods["gdafas.models"]
    S = mods["gdafas.spectrum"]
    L = mods["gdafas.losses"]
    rng = mods["gdafas.rng"]
    D = mods["gdafas.data"]
    M = mods["gdafas.metrics"]
    P = mods["gdafas.pipeline"]
    ckpt = mods["gdafas.checkpoint"]

    def tape(counts, args, kwargs):
        counts["tape_nodes"] = T.tape_size()

    def elems(counts, args, kwargs):
        counts["elems"] = len(args[1])

    def drawn_train(counts, args, kwargs):
        mode = kwargs.get("mode", args[2] if len(args) > 2 else None)
        if mode == "train":
            counts["drawn"] = args[1].shape[0]

    def drawn_mix(counts, args, kwargs):
        counts["drawn"] = args[0].shape[0]

    def records(counts, args, kwargs, result):
        counts["records"] = len(result.images)

    def file_bytes(counts, args, kwargs, result):
        counts["bytes"] = os.path.getsize(args[1])

    return [
        (T, "conv2d", "tensor.conv2d", _conv_counts, None, False),
        (T, "matmul", "tensor.matmul", None, None, False),
        (T, "upsample_nearest", "tensor.upsample_nearest", None, None, False),
        (T, "backward", "tensor.backward", tape, None, True),
        (layers.BatchNorm2d, "forward", "layers.BatchNorm2d.forward", None, None, False),
        (layers.InstanceNorm2d, "forward", "layers.InstanceNorm2d.forward", None, None, False),
        (layers.Adam, "step", "layers.Adam.step", None, None, False),
        (models.Generator, "forward", "models.Generator.forward", None, None, False),
        (models, "forward_source", "models.forward_source", drawn_train, None, False),
        (models.PerceptualNet, "features", "models.PerceptualNet.features", None, None, False),
        (S, "specmix_batch", "spectrum.specmix_batch", drawn_mix, None, False),
        (S, "phase_alignment_loss", "spectrum.phase_alignment_loss", None, None, False),
        (L, "stat_consistency_loss", "losses.stat_consistency_loss", None, None, False),
        (rng.Rng, "shuffle", "rng.Rng.shuffle", elems, None, False),
        (D, "generate_domain_dataset", "data.generate_domain_dataset", None, None, False),
        (D, "load_dataset", "data.load_dataset", None, records, False),
        (M, "roc_auc", "metrics.roc_auc", None, None, False),
        (M, "eer_threshold", "metrics.eer_threshold", None, None, False),
        (M, "roc_points", "metrics.roc_points", None, None, False),
        (M, "mmd", "metrics.mmd", None, None, True),
        (P, "evaluate", "pipeline.evaluate", None, None, False),
        (P, "bn_discrepancy", "pipeline.bn_discrepancy", None, None, False),
        (P, "mmd_curve", "pipeline.mmd_curve", None, None, False),
        (ckpt, "save_checkpoint", "checkpoint.save", None, file_bytes, False),
        (ckpt, "load_checkpoint", "checkpoint.load", None, None, False),
    ]


# ---------------------------------------------------------------------------
# arithmetic


def self_times(spans):
    """Per span: its duration minus the summed durations of its children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def tail_percentile(values, q=90, beyond=10):
    """Nearest-rank q-th percentile, or None unless `beyond` samples exceed
    its rank; a tail read from fewer samples is no tail."""
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    if rank < 1 or len(ordered) - rank < beyond:
        return None
    return ordered[rank - 1]


def _scope(spans, unit):
    """Per span: index of the nearest enclosing span named `unit`, or None."""
    out = [None] * len(spans)
    for i, s in enumerate(spans):
        p = s.parent
        if s.name == unit:
            out[i] = i
        elif p is not None:
            out[i] = out[p]
    return out


# (metric, span name, quantity, scope, unit of the metric)
#   quantity: "self" or "incl" time, or a count key. Scope "unit": over the
#   counted steps (training) or the rounds (scoring); "round": over every
#   round; "setup": over the set-ups. Sums are divided by the number of
#   units, rounds or set-ups; peaks are the largest value seen.
LAYER_METRICS = [
    ("tensor.conv2d.fwd_ms", "tensor.conv2d", "self", "unit", "ms"),
    ("tensor.conv2d.calls", "tensor.conv2d", "calls", "unit", "count"),
    ("tensor.conv2d.gflop", "tensor.conv2d", "flop", "unit", "GFLOP"),
    ("tensor.backward_ms", "tensor.backward", "self", "unit", "ms"),
    ("tensor.tape_nodes", "tensor.backward", "tape_nodes", "unit", "count"),
    ("tensor.backward.peak_alloc_mb", "tensor.backward", "peak_alloc_bytes", "round", "MB"),
    ("tensor.matmul.fwd_ms", "tensor.matmul", "self", "unit", "ms"),
    ("tensor.upsample_nearest.fwd_ms", "tensor.upsample_nearest", "self", "unit", "ms"),
    ("layers.BatchNorm2d.fwd_ms", "layers.BatchNorm2d.forward", "self", "unit", "ms"),
    ("layers.InstanceNorm2d.fwd_ms", "layers.InstanceNorm2d.forward", "self", "unit", "ms"),
    ("layers.Adam.step_ms", "layers.Adam.step", "self", "unit", "ms"),
    ("models.Generator.forward_ms", "models.Generator.forward", "incl", "unit", "ms"),
    ("models.forward_source_ms", "models.forward_source", "incl", "unit", "ms"),
    ("models.PerceptualNet.features_ms", "models.PerceptualNet.features", "incl", "unit", "ms"),
    ("spectrum.specmix_batch_ms", "spectrum.specmix_batch", "self", "unit", "ms"),
    ("spectrum.phase_alignment_loss_ms", "spectrum.phase_alignment_loss", "self", "unit", "ms"),
    ("losses.stat_consistency_loss_ms", "losses.stat_consistency_loss", "self", "unit", "ms"),
    ("rng.Rng.shuffle_ms", "rng.Rng.shuffle", "self", "unit", "ms"),
    ("rng.Rng.shuffle_elems", "rng.Rng.shuffle", "elems", "unit", "count"),
    ("data.generate_domain_dataset_s", "data.generate_domain_dataset", "self", "setup", "s"),
    ("data.load_dataset_s", "data.load_dataset", "self", "setup", "s"),
    ("data.records", "data.load_dataset", "records", "setup", "count"),
    ("metrics.roc_auc_ms", "metrics.roc_auc", "self", "unit", "ms"),
    ("metrics.eer_threshold_ms", "metrics.eer_threshold", "self", "unit", "ms"),
    ("metrics.roc_points_ms", "metrics.roc_points", "self", "unit", "ms"),
    ("metrics.mmd_ms", "metrics.mmd", "self", "unit", "ms"),
    ("metrics.mmd.peak_alloc_mb", "metrics.mmd", "peak_alloc_bytes", "round", "MB"),
    ("pipeline.evaluate_s", "pipeline.evaluate", "incl", "unit", "s"),
    ("pipeline.bn_discrepancy_s", "pipeline.bn_discrepancy", "incl", "unit", "s"),
    ("pipeline.mmd_curve_s", "pipeline.mmd_curve", "incl", "unit", "s"),
    ("pipeline.step_other_ms", STEP, "self", "unit", "ms"),
    ("checkpoint.save_ms", "checkpoint.save", "self", "setup", "ms"),
    ("checkpoint.load_ms", "checkpoint.load", "self", "setup", "ms"),
    ("checkpoint.bytes", "checkpoint.save", "bytes", "setup", "bytes"),
]
_SCALE = {"ms": 1e3, "s": 1.0, "count": 1.0, "GFLOP": 1e-9, "MB": 2.0 ** -20,
          "bytes": 1.0}
_PEAKS = {"peak_alloc_bytes"}


def layer_metrics(spans, unit):
    """Per-layer figures of a traced run, keyed by metric name.

    `unit` is the span that "unit"-scoped figures are per: a counted
    ``pipeline.step`` on the training workloads, a ``bench.round`` on
    scoring. A metric whose layer never ran reads 0. Also reports
    ``rng.shuffle_use_ratio``: images a step drew into its batch over the
    elements it shuffled, over whole rounds.
    """
    selfs = self_times(spans)
    owners = {"unit": _scope(spans, unit), "round": _scope(spans, ROUND),
              "setup": _scope(spans, SETUP)}
    counted = {i for i, s in enumerate(spans) if s.name == unit and s.counted}
    per = {"unit": len(counted),
           "round": sum(1 for s in spans if s.name == ROUND),
           "setup": sum(1 for s in spans if s.name == SETUP)}
    totals = {}
    for i, s in enumerate(spans):
        for scope, owner in owners.items():
            if owner[i] is None or (scope == "unit" and owner[i] not in counted):
                continue
            slot = totals.setdefault((s.name, scope), {"self": 0.0, "incl": 0.0})
            slot["self"] += selfs[i]
            slot["incl"] += s.duration
            for k, v in s.counts.items():
                slot[k] = max(slot.get(k, 0), v) if k in _PEAKS else slot.get(k, 0) + v
    out = {}
    for metric, name, qty, scope, munit in LAYER_METRICS:
        value = totals.get((name, scope), {}).get(qty, 0.0)
        if qty not in _PEAKS:
            value = value / per[scope] if per[scope] else 0.0
        out[metric] = (value * _SCALE[munit], munit)
    # whole rounds: a training epoch shuffles once for all of its steps
    drawn = sum(totals.get((n, "round"), {}).get("drawn", 0)
                for n in ("models.forward_source", "spectrum.specmix_batch"))
    shuffled = totals.get(("rng.Rng.shuffle", "round"), {}).get("elems", 0)
    out["rng.shuffle_use_ratio"] = (drawn / shuffled if shuffled else 0.0, "ratio")
    return out
