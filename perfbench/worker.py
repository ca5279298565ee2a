"""One training operation: import gramvol, generate the dataset, train,
write ``trace.csv`` and export held-out embeddings as JSONL.

The benchmark runs it as a child process (``python3 worker.py MODE PARAMS
OUT_DIR``, where PARAMS is a JSON object) so that ``import gramvol`` is
timed in a fresh interpreter and the child's peak memory is its own.  The
traced run calls ``train_op`` in-process instead.  Prints one JSON line.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def _no_span(name):
    return nullcontext()


def setup(params: dict, span=_no_span):
    """(dataset, spec) for ``params``; the part of an operation timed as set-up."""
    synth = importlib.import_module("gramvol.synth")
    spec = synth.SyntheticSpec(**params["spec"])
    with span("synth.generate_dataset"):
        dataset = synth.generate_dataset(spec)
    return dataset, spec


def train_op(params: dict, dataset, spec, out_dir: Path, span=_no_span) -> dict:
    """Train on ``dataset``; write ``trace.csv`` and the held-out views
    (``params["export"]`` rows plus ``params["dups"]`` duplicated tuples).

    Returns the wall time of ``train()`` and of each epoch, evaluation
    included, with the ``speed.scale`` of each epoch.  Epochs are clocked
    at the end of each ``evaluate`` call, where the reference loop also
    runs (outside the epochs' clocks); without that name, ``epoch_s`` is
    empty.
    """
    import inputs  # after the set-up clock, since it imports numpy
    import numpy as np
    import speed

    train_mod = importlib.import_module("gramvol.train")
    synth = importlib.import_module("gramvol.synth")
    formats = importlib.import_module("gramvol.formats")
    config = train_mod.TrainConfig(**params["config"])
    evaluate = getattr(train_mod, "evaluate", None)
    marks = []  # (end of an epoch, reference seconds, start of the next)

    def clocked_evaluate(*args, **kwargs):
        out = evaluate(*args, **kwargs)
        end = time.perf_counter()
        with span("speed.reference"):  # not the training loop's own time
            ref_s = speed.reference_s()
        marks.append((end, ref_s, time.perf_counter()))
        return out

    if evaluate is not None:
        train_mod.evaluate = clocked_evaluate
    try:
        t0 = time.perf_counter()
        with span("train.train"):
            result = train_mod.train(config, dataset, embed_dim=spec.embed_dim)
        train_s = time.perf_counter() - t0
    finally:
        if evaluate is not None:
            train_mod.evaluate = evaluate
    formats.write_trace_csv(out_dir / "trace.csv", result.trace)

    train_ds, held = synth.split_dataset(dataset, config.holdout_fraction)
    m = min(params["export"], held.num_samples)
    views = [enc.encode(v[:m]) for enc, v in zip(result.encoders, held.views)]
    ids = [f"h{i:04d}" for i in range(m)]
    # Duplicated tuples: the first anchor rows again, in every modality.
    d = min(params["dups"], m)
    views = [np.vstack([v, views[0][:d]]) for v in views]
    ids += [f"{inputs.DUP_PREFIX}{i:03d}" for i in range(d)]
    inputs.write_views(out_dir, ids, views)
    return {
        "train_s": train_s,
        "samples": config.epochs * train_ds.num_samples,
        "epoch_s": [b[0] - a[2] for a, b in zip(marks, marks[1:])],
        "epoch_scale": [speed.scale(a[1], b[1]) for a, b in zip(marks, marks[1:])],
        "epoch_samples": train_ds.num_samples,
    }


def main(argv: list[str]) -> int:
    mode, params, out_dir = argv[0], json.loads(argv[1]), Path(argv[2])
    t0 = time.perf_counter()
    importlib.import_module("gramvol")
    dataset, spec = setup(params)
    report = {"setup_s": time.perf_counter() - t0}
    if mode == "train":
        report.update(train_op(params, dataset, spec, out_dir))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
