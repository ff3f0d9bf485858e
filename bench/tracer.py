"""Span recorder for the traced benchmark run.

The recorder lives outside the package: it replaces public functions of
the maskaug layers with timing wrappers, under every module attribute the
package calls them through (``training`` imports ``forward`` by name,
``augment`` imports ``mlm_distribution``, ``styletransfer`` imports
``predict_proba`` and ``sample_replacement``). Tensor ops are wrapped at
``maskaug.tensor``; their backward pass is timed by wrapping the
``_backward`` closure of the tensor each op returns.

Spans are kept in memory as ``(parent, name, start_ns, end_ns)`` tuples,
indexed by span id, and written once when the run ends. Self time is a
span's duration minus the durations of its direct children. Wrapping
changes no arithmetic and consumes no randomness, so a traced round
produces the same bytes as an untraced one.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# ops whose calls, forward and backward time are reported per layer
TENSOR_OPS = (
    "matmul", "add", "mul", "scale", "softmax", "cross_entropy", "layer_norm",
    "gelu", "embedding_lookup", "dropout", "reshape", "transpose", "sigmoid",
    "tanh", "slice_axis", "unfold_windows", "reduce_max", "concat", "relu",
)

# public layer functions recorded as spans, as "<module>.<function>"
LAYER_FUNCTIONS = (
    "encoder.forward", "encoder.mlm_distribution", "encoder.save_encoder",
    "encoder.load_encoder",
    "training.pretrain_mlm", "training.finetune_cmlm", "training.masked_loss",
    "training.collate_masked",
    "optim.adam_step", "optim.clip_by_global_norm",
    "augment.augment_dataset", "augment.sample_replacement",
    "seeding.derive_rng",
    "classify.train_cnn", "classify.train_rnn", "classify.evaluate",
    "classify.predict_logits", "classify.predict_proba", "classify.save_classifier",
    "classify.load_classifier",
    "styletransfer.transfer_style", "styletransfer.attribute_words",
    "checkpoint.save_arrays", "checkpoint.load_arrays",
    "text.load_tsv", "text.build_vocab",
)

class Tracer:
    """In-memory span store plus the counters measured at layer boundaries.

    Spans and counters are tagged with the phase they happened in ("setup"
    or "round"), so per-layer values can be normalised to one set-up plus
    one round whatever the number of traced rounds.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self.span_phase: list[str] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.units: dict[str, int] = defaultdict(int)
        self.phase = ""
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, value: float) -> None:
        self.counters[self.phase][name] += value

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self.span_phase.append(self.phase)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, nid: int, start: int, end: int) -> None:
        self._stack.pop()
        self.spans[sid] = (self._stack[-1], nid, start, end)

    def timed(self, fn, name: str, on_result=None):
        """`fn` wrapped so that each call records one span named `name`.

        `on_result(tracer, args, kwargs, out)` runs after the span closes.
        """
        nid = self.name_id(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = self._open()
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid, nid, start, clock())
            if on_result is not None:
                on_result(self, args, kwargs, out)
            return out

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span around a block of benchmark code."""
        nid = self.name_id(name)
        sid = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, nid, start, time.perf_counter_ns())

    # -- installing the wrappers ----------------------------------------------

    @contextmanager
    def installed(self, package, phase: str):
        """Wrap the layers for the duration of one traced set-up or round."""
        # every loaded package module may hold a reference to a wrapped function
        prefix = package.__name__ + "."
        modules = [
            module for name, module in list(sys.modules.items())
            if name == package.__name__ or name.startswith(prefix)
        ]

        def replace(original, wrapped):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapped)

        self.phase = phase
        self.units[phase] += 1
        try:
            for qualified in LAYER_FUNCTIONS:
                layer, fn_name = qualified.split(".")
                original = getattr(sys.modules[prefix + layer], fn_name)
                replace(original, self.timed(original, qualified, _RESULT_HOOKS.get(qualified)))
            tensor = sys.modules[prefix + "tensor"]
            for op in TENSOR_OPS:
                original = getattr(tensor, op)
                hook = _matmul_hook if op == "matmul" else _backward_hook(f"tensor.{op}.bwd")
                replace(original, self.timed(original, f"tensor.{op}", hook))
            backward = tensor.Tensor.backward
            self._patches.append((tensor.Tensor, "backward", backward))
            tensor.Tensor.backward = self.timed(backward, "tensor.backward")
            with self.span(f"bench.{phase}"):
                yield self
        finally:
            for owner, attr, value in reversed(self._patches):
                setattr(owner, attr, value)
            self._patches.clear()
            self.phase = ""

    # -- results --------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> {calls, ms, self_ms}, per set-up plus per round."""
        child_ns = [0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[tuple[int, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        for sid, (_, nid, start, end) in enumerate(self.spans):
            entry = totals[nid, self.span_phase[sid]]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_ns[sid]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0.0, "ms": 0.0, "self_ms": 0.0}
        )
        for (nid, phase), (calls, dur, own) in totals.items():
            units = self.units[phase]
            if not units:  # a closure from a traced round that ran after it
                continue
            entry = out[self.names[nid]]
            entry["calls"] += calls / units
            entry["ms"] += dur / 1e6 / units
            entry["self_ms"] += own / 1e6 / units
        return dict(out)

    def counter(self, name: str) -> float:
        """A counter per set-up plus per round."""
        return sum(
            values.get(name, 0.0) / self.units[phase]
            for phase, values in self.counters.items()
            if self.units[phase]
        )

    def write(self, path: Path) -> None:
        payload = {
            "run_id": self.run_id,
            "names": self.names,
            "columns": ["id", "parent", "name", "start_ns", "end_ns", "phase"],
            "spans": [
                [sid, parent, nid, start, end, self.span_phase[sid]]
                for sid, (parent, nid, start, end) in enumerate(self.spans)
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# hooks: counts taken where the work happens
# ---------------------------------------------------------------------------


def _own_backward(args, out):
    """(result tensor, the backward closure the op attached to it or None).

    An identity op (eval-mode dropout) hands back its input, whose closure
    belongs to another op.
    """
    t = out[0] if isinstance(out, tuple) else out
    backward = getattr(t, "_backward", None)
    if backward is None or any(t is a for a in args):
        return t, None
    return t, backward


def _backward_hook(bwd_name: str):
    def hook(tracer, args, kwargs, out):
        t, backward = _own_backward(args, out)
        if backward is not None:
            t._backward = tracer.timed(backward, bwd_name)

    return hook


def _matmul_hook(tracer, args, kwargs, out):
    """Computed, not measured: flops and the gradient temporaries that
    `_unbroadcast` must sum down to an operand's shape."""
    a, b = args[0], args[1]
    a_shape, b_shape = tuple(a.shape), tuple(b.shape)
    out_shape = tuple(out.shape)
    k = a_shape[-1]
    flop = 2 * math.prod(out_shape) * k
    tracer.count("tensor.matmul.flop", flop)
    t, backward = _own_backward(args, out)
    if backward is None:
        return
    grads = []  # (flop, temporary bytes) of each operand gradient built
    if getattr(a, "requires_grad", False):
        ga = out_shape[:-1] + (k,)
        grads.append((flop, 8 * math.prod(ga) if ga != a_shape else 0))
    if getattr(b, "requires_grad", False):
        gb = out_shape[:-2] + b_shape[-2:]
        grads.append((flop, 8 * math.prod(gb) if gb != b_shape else 0))
    timed = tracer.timed(backward, "tensor.matmul.bwd")

    def counted(g):
        for f, tmp in grads:
            tracer.count("tensor.matmul.flop", f)
            tracer.count("tensor.matmul.bwd_tmp_bytes", tmp)
        timed(g)

    t._backward = counted


def _batch_arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _forward_rows(tracer, args, kwargs, out):
    tracer.count("encoder.forward.rows", _batch_arg(args, kwargs, 2, "batch").token_ids.shape[0])


def _predict_rows(tracer, args, kwargs, out):
    tracer.count("classify.predict_logits.rows", len(_batch_arg(args, kwargs, 1, "examples")))


def _masked_loss_rows(tracer, args, kwargs, out):
    batch = _batch_arg(args, kwargs, 2, "batch")
    tracer.count("training.scored", out[1])
    tracer.count("training.head_rows", batch.targets.size)


def _collate_padding(tracer, args, kwargs, out):
    if out is not None:
        tracer.count("training.pad_slots", float((out.pad_mask == 0.0).sum()))
        tracer.count("training.slots", out.pad_mask.size)


def _saved_bytes(tracer, args, kwargs, out):
    tracer.count("checkpoint.bytes", Path(_batch_arg(args, kwargs, 1, "path")).stat().st_size)


_RESULT_HOOKS = {
    "encoder.forward": _forward_rows,
    "classify.predict_logits": _predict_rows,
    "training.masked_loss": _masked_loss_rows,
    "training.collate_masked": _collate_padding,
    "checkpoint.save_arrays": _saved_bytes,
}


# ---------------------------------------------------------------------------
# the per-layer metrics, in BENCHMARK.json order
# ---------------------------------------------------------------------------


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric."""
    spec = []
    for op in TENSOR_OPS:
        spec += [
            (f"tensor.{op}.calls", "count", "lower"),
            (f"tensor.{op}.fwd_ms", "ms", "lower"),
            (f"tensor.{op}.bwd_ms", "ms", "lower"),
        ]
    spec += [
        ("tensor.backward.ms", "ms", "lower"),
        ("tensor.backward.self_ms", "ms", "lower"),
        ("tensor.matmul.gflop", "GFLOP-computed", "lower"),
        ("tensor.matmul.bwd_tmp_mb", "MB-computed", "lower"),
        ("training.scored_frac", "fraction", "higher"),
        ("training.pad_frac", "fraction", "lower"),
        ("training.masked_loss.ms", "ms", "lower"),
        ("training.collate_masked.ms", "ms", "lower"),
        ("optim.adam_step.ms", "ms", "lower"),
        ("optim.adam_step.calls", "count", "lower"),
        ("optim.clip_by_global_norm.ms", "ms", "lower"),
        ("encoder.forward.ms", "ms", "lower"),
        ("encoder.forward.self_ms", "ms", "lower"),
        ("encoder.forward.calls", "count", "lower"),
        ("encoder.forward.rows_per_call", "rows", "higher"),
        ("encoder.mlm_distribution.ms", "ms", "lower"),
        ("encoder.mlm_distribution.calls", "count", "lower"),
        ("augment.augment_dataset.ms", "ms", "lower"),
        ("augment.sample_replacement.ms", "ms", "lower"),
        ("augment.sample_replacement.calls", "count", "lower"),
        ("augment.generated", "count", "higher"),
        ("augment.skipped", "count", "lower"),
        ("augment.changed_frac", "fraction", "higher"),
        ("augment.cond_label_compat", "fraction", "higher"),
        ("seeding.derive_rng.ms", "ms", "lower"),
        ("seeding.derive_rng.calls", "count", "lower"),
        ("classify.predict_logits.ms", "ms", "lower"),
        ("classify.predict_logits.calls", "count", "lower"),
        ("classify.predict_logits.rows_per_call", "rows", "higher"),
        ("classify.evaluate.ms", "ms", "lower"),
        ("classify.train_cnn.ms", "ms", "lower"),
        ("classify.train_rnn.ms", "ms", "lower"),
        ("styletransfer.transfer_style.ms", "ms", "lower"),
        ("styletransfer.attribute_words.ms", "ms", "lower"),
        ("checkpoint.save_arrays.ms", "ms", "lower"),
        ("checkpoint.load_arrays.ms", "ms", "lower"),
        ("checkpoint.bytes", "bytes", "lower"),
        ("text.load_tsv.ms", "ms", "lower"),
        ("text.build_vocab.ms", "ms", "lower"),
        ("trace.overhead_pct", "%", "lower"),
        ("trace.spans", "count", "lower"),
        ("peak_rss_mb", "MB", "lower"),
    ]
    return spec


def per_layer_values(tracer: Tracer, measured: dict[str, float]) -> dict:
    """Every per-layer metric, per set-up plus per round.

    `measured` holds what the benchmark measures outside the spans: the
    augment.* outcomes derived from the augmenter's outputs,
    trace.overhead_pct and peak_rss_mb.
    """
    stats = tracer.summary()

    def get(name, field):
        return stats.get(name, {}).get(field, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    values: dict[str, float] = {}
    for op in TENSOR_OPS:
        values[f"tensor.{op}.calls"] = get(f"tensor.{op}", "calls")
        values[f"tensor.{op}.fwd_ms"] = get(f"tensor.{op}", "ms")
        values[f"tensor.{op}.bwd_ms"] = get(f"tensor.{op}.bwd", "ms")
    values.update({
        "tensor.backward.ms": get("tensor.backward", "ms"),
        "tensor.backward.self_ms": get("tensor.backward", "self_ms"),
        "tensor.matmul.gflop": tracer.counter("tensor.matmul.flop") / 1e9,
        "tensor.matmul.bwd_tmp_mb": tracer.counter("tensor.matmul.bwd_tmp_bytes") / 2**20,
        "training.scored_frac": ratio(
            tracer.counter("training.scored"), tracer.counter("training.head_rows")
        ),
        "training.pad_frac": ratio(
            tracer.counter("training.pad_slots"), tracer.counter("training.slots")
        ),
        "training.masked_loss.ms": get("training.masked_loss", "ms"),
        "training.collate_masked.ms": get("training.collate_masked", "ms"),
        "optim.adam_step.ms": get("optim.adam_step", "ms"),
        "optim.adam_step.calls": get("optim.adam_step", "calls"),
        "optim.clip_by_global_norm.ms": get("optim.clip_by_global_norm", "ms"),
        "encoder.forward.ms": get("encoder.forward", "ms"),
        "encoder.forward.self_ms": get("encoder.forward", "self_ms"),
        "encoder.forward.calls": get("encoder.forward", "calls"),
        "encoder.forward.rows_per_call": ratio(
            tracer.counter("encoder.forward.rows"), get("encoder.forward", "calls")
        ),
        "encoder.mlm_distribution.ms": get("encoder.mlm_distribution", "ms"),
        "encoder.mlm_distribution.calls": get("encoder.mlm_distribution", "calls"),
        "augment.augment_dataset.ms": get("augment.augment_dataset", "ms"),
        "augment.sample_replacement.ms": get("augment.sample_replacement", "ms"),
        "augment.sample_replacement.calls": get("augment.sample_replacement", "calls"),
        "seeding.derive_rng.ms": get("seeding.derive_rng", "ms"),
        "seeding.derive_rng.calls": get("seeding.derive_rng", "calls"),
        "classify.predict_logits.ms": get("classify.predict_logits", "ms"),
        "classify.predict_logits.calls": get("classify.predict_logits", "calls"),
        "classify.predict_logits.rows_per_call": ratio(
            tracer.counter("classify.predict_logits.rows"),
            get("classify.predict_logits", "calls"),
        ),
        "classify.evaluate.ms": get("classify.evaluate", "ms"),
        "classify.train_cnn.ms": get("classify.train_cnn", "ms"),
        "classify.train_rnn.ms": get("classify.train_rnn", "ms"),
        "styletransfer.transfer_style.ms": get("styletransfer.transfer_style", "ms"),
        "styletransfer.attribute_words.ms": get("styletransfer.attribute_words", "ms"),
        "checkpoint.save_arrays.ms": get("checkpoint.save_arrays", "ms"),
        "checkpoint.load_arrays.ms": get("checkpoint.load_arrays", "ms"),
        "checkpoint.bytes": tracer.counter("checkpoint.bytes"),
        "text.load_tsv.ms": get("text.load_tsv", "ms"),
        "text.build_vocab.ms": get("text.build_vocab", "ms"),
        "trace.spans": sum(s["calls"] for s in stats.values()),
    })
    values.update(measured)
    return {name: values[name] for name, _, _ in per_layer_spec()}
