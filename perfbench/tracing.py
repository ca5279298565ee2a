"""Outside-in tracing: timing wrappers around library functions.

The wrappers replace module and class attributes for the length of one
traced operation and record a span per call (name, start, end, parent,
run id) plus counters taken from each call's arguments and result.  They
change nothing inside ``src/``: a call made through a name that is not
wrapped is simply attributed to its caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    run_id: int


# Counter hooks: (call arguments, result) -> increments of the span's counters.

def _entries(args, result):
    return {"entries": getattr(result, "values", result).size}


def _loss_report(args, result):
    b = args[0].shape[0]
    return {"entries": b * b, "degenerate": getattr(result, "degenerate_tuples", 0)}


def _encoder_rows(args, result):
    return {"rows": args[1].shape[0]}


def _bytes_read(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _bytes_written(args, result):
    return {"bytes": len(args[1].encode("utf-8"))}


#: (module, attribute path, span name, counter hook).  The same span name
#: may wrap several attributes when callers reach one layer by two names.
TARGETS = (
    ("gramvol.train", "loss_report", "losses.loss_report", _loss_report),
    ("gramvol.train", "cosine_pairwise_report", "train.cosine_pairwise_report", None),
    ("gramvol.train", "evaluate", "train.evaluate", None),
    ("gramvol.train", "cross_volumes", "similarity.cross_volumes", _entries),
    ("gramvol.train", "retrieval_recall", "metrics.retrieval_recall", None),
    ("gramvol.train", "adam_step", "optim.adam_step", None),
    ("gramvol.encoders", "ToyEncoder.encode_cached", "encoders.fwd", _encoder_rows),
    ("gramvol.encoders", "ToyEncoder.backward", "encoders.bwd", None),
    ("gramvol.losses", "DamHead.bce_value_and_grads", "losses.head_bce", None),
    ("gramvol.cli", "read_embeddings", "formats.read_embeddings", _bytes_read),
    ("gramvol.cli", "normalize", "volume.normalize", None),
    ("gramvol.cli", "cross_volume_matrix", "similarity.cross_volumes", _entries),
    ("gramvol.cli", "retrieval_recall", "metrics.retrieval_recall", None),
    ("gramvol.cli", "alignment_metric", "metrics.alignment_metric", None),
    ("gramvol.cli", "_atomic_write_text", "formats.write", _bytes_written),
    # The CLI ``train`` command reaches these through its own imports.
    ("gramvol.cli", "generate_dataset", "synth.generate_dataset", None),
    ("gramvol.cli", "run_training", "train.train", None),
)


def resolve(module: str, path: str):
    """(owner object, attribute name) or None when the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


_ABSENT = object()


class MissingLayer(Exception):
    """A wrapped name that the library no longer has."""


class Tracer:
    """Span stack and counters for one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        # run id -> span name -> counter -> value
        self.counts = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        self.run_id = 0
        self.missing: dict[str, str] = {}

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx].end = time.perf_counter()

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                counts = self.counts[self.run_id][name]
                for key, value in hook(args, result).items():
                    counts[key] += value
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit.

        A target whose module or attribute is missing is recorded in
        ``missing`` (span name -> reason) instead of failing the run.
        """
        saved = []
        try:
            for module, path, name, hook in TARGETS:
                found = resolve(module, path)
                if found is None:
                    self.missing[name] = f"{module}.{path} not found"
                    continue
                owner, attr = found
                saved.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
                setattr(owner, attr, self._wrap(getattr(owner, attr), name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is _ABSENT:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def summary(self, run_id: int) -> dict[str, dict[str, float]]:
        """Per span name in one run: total and self seconds, calls, counters.

        Names that never ran read as zeros.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for idx, s in enumerate(self.spans):
            if s.run_id != run_id:
                continue
            row = out[s.name]
            row["total_s"] += s.end - s.start
            row["self_s"] += s.end - s.start - child[idx]
            row["calls"] += 1
        for name, counts in self.counts[run_id].items():
            out[name].update(counts)
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "run_id": s.run_id}
            for s in self.spans
        ]
