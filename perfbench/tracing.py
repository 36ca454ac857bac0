"""Spans recorded around the benchmark's calls into the mvke package.

A span has a name, a start, an end, the span that caused it and the trace
it belongs to; every call of one phase shares the trace of the phase's
root span. Spans stay in memory and are written out once, at the end of
the run.

A traced phase runs the library's own code. While it runs,
``spans_around`` replaces each public function that the phase calls
(``PHASE_CALLS``) with a wrapper that records a span around it, and puts
the original back afterwards. So ``fit``, ``evaluate`` and
``build_caches`` run unchanged, and their spans show how their time
splits over the public calls they make.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import mvke.data as D
import mvke.diffgraph as dg
import mvke.evaluation as E
import mvke.model as M
import mvke.serve as S
import mvke.train as T


@dataclass
class Span:
    span_id: int
    parent: int | None
    trace: int
    name: str
    start: float
    end: float
    attrs: dict

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.graph_tensors: int | None = None  # of the first traced loss

    @contextmanager
    def span(self, name: str, **attrs):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        trace = self.spans[self._stack[0]].trace if self._stack else span_id
        self.spans.append(Span(span_id, parent, trace, name, 0.0, 0.0, attrs))
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield self.spans[span_id]
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id].start, self.spans[span_id].end = start, end

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.span_id, "parent": s.parent, "trace": s.trace,
                    "name": s.name, "start": s.start, "end": s.end, **s.attrs},
                    separators=(",", ":")) + "\n")


def median(values) -> float:
    """Median, or 0.0 where no span was recorded."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def median_seconds(spans: list[Span]) -> float:
    return median(s.seconds for s in spans)


def graph_tensors(loss: dg.Tensor) -> int:
    """Tensors reachable from ``loss`` through the recorded graph."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


# Attributes recorded on a span from the call's result, after the span ends.

def _rows(tracer: Tracer, out) -> dict:
    return {"rows": out.size if isinstance(out, M.EncodedBatch) else len(out)}


def _graph(tracer: Tracer, loss) -> dict:
    if tracer.graph_tensors is None:
        tracer.graph_tensors = graph_tensors(loss)
    return {}


# (owner, attribute, span name, attributes from the result). ``fit`` and
# ``evaluate`` find the functions they call in their own module's globals,
# so those are the names wrapped there.
SETUP_CALLS = [
    (D, "generate", "data.generate", None),
    (M.MvkeModel, "__init__", "model.MvkeModel", None),
]
PHASE_CALLS = {
    "write": [(D, "write_dataset", "data.write_dataset", None)],
    "read": [(D, "read_dataset", "data.read_dataset", _rows)],
    "encode": [(M, "encode_examples", "model.encode_examples", _rows)],
    "fit": [
        (T, "encode_examples", "model.encode_examples", _rows),
        (T.Adam, "__init__", "train.Adam", None),
        (T, "snapshot_params", "train.snapshot_params", None),
        (M.EncodedBatch, "slice", "model.EncodedBatch.slice", None),
        (T, "mtl_loss", "train.mtl_loss", _graph),
        (dg, "zero_grads", "diffgraph.zero_grads", None),
        (dg, "backward", "diffgraph.backward", None),
        (T.Adam, "step", "train.Adam.step", None),
        (T, "predict_dataset", "evaluation.predict_dataset", _rows),
        (T, "auc", "evaluation.auc", None),
    ],
    "evaluate": [
        (E, "encode_examples", "model.encode_examples", _rows),
        (E, "predict_dataset", "evaluation.predict_dataset", _rows),
        (E, "auc", "evaluation.auc", None),
    ],
    "cache": [
        (S, "encode_examples", "model.encode_examples", _rows),
        (M.MvkeModel, "user_expert_outputs", "model.MvkeModel.user_expert_outputs", None),
        (M.MvkeModel, "tag_side", "model.MvkeModel.tag_side", None),
        (S, "save_caches", "serve.save_caches", None),
        (S, "load_caches", "serve.load_caches", None),
    ],
    "topk": [(S, "assign_topk", "serve.assign_topk", None)],
    "lookup": [(S, "score_from_cache", "serve.score_from_cache", None)],
}


def _wrap(tracer: Tracer, name: str, fn, result_attrs):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            out = fn(*args, **kwargs)
        if result_attrs is not None:
            span.attrs.update(result_attrs(tracer, out))
        return out
    return traced


@contextmanager
def spans_around(tracer: Tracer, calls):
    """Record a span around each of ``calls`` while the block runs."""
    originals = []
    try:
        for owner, attr, name, result_attrs in calls:
            # A function the library no longer has records no spans; the
            # phase's coverage shows what its spans no longer account for.
            if attr not in vars(owner):
                continue
            fn = vars(owner)[attr]
            originals.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, name, fn, result_attrs))
        yield
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)
