#!/usr/bin/env python3
"""The gramvol benchmark: one workload, one seed, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload train-gram --seed 1 --seconds 36 --trace 0

Every operation trains (``train`` step) and then scores embedding files
with the real ``gramvol`` CLI (``simmat``, ``eval``, ``metric`` steps);
each step starts after the previous one ends, and every step's output is
checked.  Every metric is the median of the run's samples; timings are
first scaled to a nominal machine speed (see ``speed.py``).
``--trace 0`` runs the steps as child processes and reports the
end-to-end metrics; ``--trace 1`` runs them in-process, interleaving
untraced and traced operations, and reports per-layer metrics from timing
wrappers (see ``tracing.py``).  A summary with sample counts and the
environment goes to stdout; the last stdout line is the JSON result.
The workloads, metrics and checks are described in ``README.md``.
"""

from __future__ import annotations

import os

# BLAS reads these when numpy is first imported, so set them before that;
# children inherit them through the environment.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

#: A child that runs longer than this is killed and its step fails.
CHILD_TIMEOUT_S = 150.0
#: Set-up probes before the first operation; each operation makes two more.
SETUP_PROBES = 4
KS = (1, 5, 10)
#: Off-diagonal ``simmat`` entries compared with the oracle per operation.
ORACLE_SAMPLE = 200
#: Tuples whose data modalities repeat the anchor vector exactly: their
#: whole ``simmat`` row must be exactly 0, which runs the rank-deficient
#: branch.
DUPLICATES = 4
#: How often each step runs per operation by default.  Each run of a step
#: is one sample; a training step takes several times as long as the
#: others (and gives one sample per epoch), so they run more often.
REPEATS = {"train": 1, "simmat": 2, "eval": 2, "metric": 3}
#: Every run makes at least this many operations, so the same-seed trace
#: comparison always runs.
MIN_OPERATIONS = 2

# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

# configs/alignment.cfg, copied so that an edit to the config cannot change
# the workload.  Trained for 4 of its 10 epochs: the held-out matched
# volume of the cosine loss swings from epoch to epoch, and across seeds
# its spread at 2 or 3 epochs is two to three times that at 4.
ALIGNMENT_SPEC = dict(
    latent_dim=16, embed_dim=64, modalities=3, num_classes=4,
    noise_sigma=0.03, samples=2048, paired_dims=7,
)
ALIGNMENT_CONFIG = dict(
    batch_size=64, epochs=4, lr=0.01, tau_init=1.0, lam=0.1,
    loss="gram", eval_max_samples=256,
)

# The CLI ``train`` step of cli-files: k=4 like its files, small enough
# that scoring dominates the operation.
CLI_TRAIN = dict(
    latent_dim=16, embed_dim=32, modalities=4, num_classes=4,
    noise_sigma=0.03, samples=512, paired_dims=0, batch_size=32, epochs=2,
    lr=0.01, tau_init=1.0, **{"lambda": 0.1}, loss="gram",
    eval_max_samples=64,
)


@dataclass(frozen=True)
class Gate:
    """Training-quality gate on the last held-out trace row."""

    max_matched_vol: float | None = None
    min_r_at_1: float | None = None
    #: Final matched volume must be below this share of the untrained one.
    max_vol_share: float | None = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Train through ``worker.py`` on these parameters (dataset spec, train
    #: config, and how many held-out embeddings, plus duplicated tuples, to
    #: export for scoring) ...
    train_params: dict | None = None
    #: ... or run the CLI ``train`` command on this config and score
    #: generated files with a planted alignment.
    cli_train: dict | None = None
    planted: dict | None = None
    gate: Gate = field(default_factory=Gate)
    repeats: dict = field(default_factory=lambda: dict(REPEATS))


def _train_params(loss: str, **overrides) -> dict:
    config = dict(ALIGNMENT_CONFIG, loss=loss)
    spec = dict(ALIGNMENT_SPEC)
    for key, value in overrides.items():
        (spec if key in spec else config)[key] = value
    return {"spec": spec, "config": config, "export": config["eval_max_samples"],
            "dups": DUPLICATES}


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "train-gram",
            "the paper's headline run: volume loss forward and backward per batch, "
            "cross-volume evaluation per epoch",
            train_params=_train_params("gram"),
            gate=Gate(max_matched_vol=0.15, min_r_at_1=0.9),
        ),
        Workload(
            "train-cosine",
            "same loop with the cosine loss: no volume gradient or matching head, "
            "so a loss_report change must not move it",
            train_params=_train_params("cosine"),
        ),
        Workload(
            "cli-files",
            "CLI on generated k=4, n=256 files: N^2 cross volumes, CSV output "
            "and JSONL parsing dominate, training is small",
            cli_train=CLI_TRAIN,
            planted=dict(n_ids=192, dim=256, k=4, sigma=2.0, n_dups=DUPLICATES),
            # Its training is short, with one sample per run.
            repeats=dict(REPEATS, train=2),
        ),
    )
}

# Tiny sizes for the smoke test (``--smoke``): the same steps and checks,
# without the training-quality gates, which need a real training run.
SMOKE = dict(samples=80, epochs=1, batch_size=16, eval_max_samples=16)
SMOKE_IDS = 16


def smoke_variant(w: Workload) -> Workload:
    no_gate = Gate(max_vol_share=None)
    if w.train_params is not None:
        params = _train_params(w.train_params["config"]["loss"], **SMOKE)
        return dataclasses.replace(w, train_params=params, gate=no_gate)
    planted = dict(w.planted, n_ids=SMOKE_IDS, n_dups=2)
    return dataclasses.replace(w, cli_train=dict(w.cli_train, **SMOKE),
                               planted=planted, gate=no_gate)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

#: (name, unit, better, bound); the bound is also in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("train_samples_per_s", "1/s", "higher", 0.25),
    ("final_matched_vol", "vol", "lower", 0.25),
    ("final_r_at_1", "ratio", "higher", 0.2),
    ("simmat_entries_per_s", "1/s", "higher", 0.25),
    ("eval_queries_per_s", "1/s", "higher", 0.25),
    ("metric_tuples_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

BETTER = {name: better for name, _, better, _ in END_TO_END}

VOLUME_SHAPES = ((3, 64), (4, 256))


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


_XV = "similarity.cross_volumes"

#: name -> (unit, better, end-to-end metric it should move, value).  The
#: value reads one traced operation through ``op(span, field)`` (fields:
#: total_s, self_s, calls and the span's counters); None marks a metric
#: measured otherwise.  Times are summed over the operation's calls.
PER_LAYER = {
    **{
        f"volume.{fn}_us.k{k}_n{n}": (
            "us", "lower", "metric_tuples_per_s (cli-files), marginally", None)
        for fn in ("gramian_volume", "volume_gradient") for k, n in VOLUME_SHAPES
    },
    "similarity.cross_volumes_s": (
        "s", "lower", "simmat/eval rates (cli-files), train_samples_per_s (train-cosine)",
        lambda op: op(_XV, "total_s")),
    "similarity.entries": ("count", "lower", "work count", lambda op: op(_XV, "entries")),
    "similarity.us_per_entry": (
        "us", "lower", "simmat_entries_per_s, eval_queries_per_s, train_samples_per_s",
        lambda op: _per(op(_XV, "total_s") * 1e6, op(_XV, "entries"))),
    "losses.loss_report_ms": (
        "ms", "lower", "train_samples_per_s, peak_rss_mb (train-gram)",
        lambda op: op("losses.loss_report", "self_s") * 1e3),
    "losses.batches": ("count", "lower", "work count",
                       lambda op: op("losses.loss_report", "calls")),
    "losses.degenerate_ratio": (
        "ratio", "lower", "final_matched_vol (train-gram); 0 when no entries",
        lambda op: _per(op("losses.loss_report", "degenerate"),
                        op("losses.loss_report", "entries"))),
    "losses.head_bce_ms": ("ms", "lower", "train_samples_per_s (train-gram)",
                           lambda op: op("losses.head_bce", "total_s") * 1e3),
    "encoders.fwd_ms": ("ms", "lower", "train_samples_per_s (train-cosine)",
                        lambda op: op("encoders.fwd", "total_s") * 1e3),
    "encoders.bwd_ms": ("ms", "lower", "train_samples_per_s (train-cosine)",
                        lambda op: op("encoders.bwd", "total_s") * 1e3),
    "encoders.rows": ("count", "lower", "work count", lambda op: op("encoders.fwd", "rows")),
    "optim.adam_step_ms": ("ms", "lower", "train_samples_per_s (train-cosine)",
                           lambda op: op("optim.adam_step", "total_s") * 1e3),
    "optim.steps": ("count", "lower", "work count", lambda op: op("optim.adam_step", "calls")),
    "train.cosine_pairwise_report_ms": (
        "ms", "lower", "train_samples_per_s (train-cosine)",
        lambda op: op("train.cosine_pairwise_report", "total_s") * 1e3),
    "train.evaluate_s": ("s", "lower", "train_samples_per_s (train workloads)",
                         lambda op: op("train.evaluate", "self_s")),
    "train.loop_self_s": ("s", "lower", "train_samples_per_s (train workloads)",
                          lambda op: op("train.train", "self_s")),
    "metrics.retrieval_recall_ms": (
        "ms", "lower", "eval_queries_per_s",
        lambda op: op("metrics.retrieval_recall", "total_s") * 1e3),
    "metrics.alignment_metric_ms": (
        "ms", "lower", "metric_tuples_per_s",
        lambda op: op("metrics.alignment_metric", "total_s") * 1e3),
    "formats.read_embeddings_s": ("s", "lower", "metric_tuples_per_s (cli-files)",
                                  lambda op: op("formats.read_embeddings", "total_s")),
    "formats.parse_mb_per_s": (
        "MB/s", "higher", "metric_tuples_per_s (cli-files)",
        lambda op: _per(op("formats.read_embeddings", "bytes") * 1e-6,
                        op("formats.read_embeddings", "total_s"))),
    "formats.write_s": ("s", "lower", "simmat_entries_per_s",
                        lambda op: op("formats.write", "total_s")),
    "formats.bytes_written": ("count", "lower", "simmat_entries_per_s",
                              lambda op: op("formats.write", "bytes")),
    "volume.normalize_s": ("s", "lower", "simmat/eval/metric rates",
                           lambda op: op("volume.normalize", "total_s")),
    "cli.simmat_self_s": ("s", "lower", "simmat_entries_per_s",
                          lambda op: op("cli.simmat", "self_s")),
    "cli.eval_self_s": ("s", "lower", "eval_queries_per_s",
                        lambda op: op("cli.eval", "self_s")),
    "cli.metric_self_s": ("s", "lower", "metric_tuples_per_s",
                          lambda op: op("cli.metric", "self_s")),
    "synth.generate_dataset_s": ("s", "lower", "setup_s (train workloads)",
                                 lambda op: op("synth.generate_dataset", "total_s")),
    "trace.overhead_ratio": ("ratio", "lower", "none: traced over untraced wall time",
                             None),
}


def median_of(values):
    return statistics.median(values) if values else None


# ---------------------------------------------------------------------------
# Steps: children (untraced) or in-process calls (traced run)
# ---------------------------------------------------------------------------

@dataclass
class Call:
    ok: bool
    wall_s: float
    stdout: str = ""
    error: str = ""
    rss_mb: float = 0.0
    #: ``speed.scale`` of the reference loop timed around the call.
    scale: float = 1.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(argv: list[str], work: Path) -> Call:
    """Run one child to completion; wall time and peak RSS from ``wait4``."""
    out_path, err_path = work / "child.out", work / "child.err"
    before = speed.reference_s()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=work, env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    scale = speed.scale(before, speed.reference_s())
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    error = ""
    if proc.returncode != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip()
        error = f"exit {proc.returncode}: {tail[-300:]}"
    return Call(proc.returncode == 0, wall, stdout, error, usage.ru_maxrss / 1024.0, scale)


class Children:
    """Untraced steps: every step is a fresh child process."""

    def __init__(self, work: Path):
        self.work = work

    def cli(self, args: list[str]) -> Call:
        return run_child([sys.executable, "-m", "gramvol", *args], self.work)

    def train(self, params: dict, out_dir: Path) -> tuple[Call, dict]:
        call = run_child(
            [sys.executable, str(HERE / "worker.py"), "train",
             json.dumps(params), str(out_dir)],
            self.work,
        )
        report = json.loads(call.stdout.strip().splitlines()[-1]) if call.ok else {}
        return call, report


class InProcess:
    """Traced-run steps: library and CLI called in this process.

    With a tracer, each step runs inside a span named after it and the
    library's wrapped functions record child spans.
    """

    def __init__(self, tracer: tracing.Tracer | None):
        self.tracer = tracer

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def cli(self, args: list[str]) -> Call:
        cli = importlib.import_module("gramvol.cli")
        command = next(a for a in args if a in ("train", "simmat", "eval", "metric"))
        out, err = io.StringIO(), io.StringIO()
        code = 0
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with self.span(f"cli.{command}"):
                try:
                    cli.main.main(args=args, prog_name="gramvol", standalone_mode=False)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
        wall = time.perf_counter() - t0
        error = f"exit {code}: {err.getvalue().strip()[-300:]}" if code else ""
        return Call(code == 0, wall, out.getvalue(), error)

    def train(self, params: dict, out_dir: Path) -> tuple[Call, dict]:
        t0 = time.perf_counter()
        dataset, spec = worker.setup(params, self.span)
        report = {"setup_s": time.perf_counter() - t0}
        report.update(worker.train_op(params, dataset, spec, out_dir, self.span))
        return Call(True, time.perf_counter() - t0), report


# ---------------------------------------------------------------------------
# One operation and its checks
# ---------------------------------------------------------------------------

def n_train_samples(samples: int, holdout: float = 0.2) -> int:
    # The training split of ``gramvol.synth.split_dataset``.
    return min(max(int(round(samples * (1.0 - holdout))), 1), samples - 1)


def read_trace(path: Path) -> list[dict[str, float]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]


def read_views(paths: list[Path]) -> tuple[list[str], list[np.ndarray]]:
    """Ids and rows of embedding files, parsed without gramvol."""
    ids, views = None, []
    for path in paths:
        recs = [json.loads(ln) for ln in path.read_text(encoding="utf-8").splitlines()[1:]]
        ids = ids or [r["id"] for r in recs]
        views.append(np.array([r["vec"] for r in recs], dtype=np.float64))
    return ids, views


@dataclass
class OpState:
    """What the steps of one operation hand to the later ones."""

    dir: Path
    files: list[str] = field(default_factory=list)
    ids: list[str] | None = None
    views: list[np.ndarray] | None = None
    dups: list[int] = field(default_factory=list)
    trace_rows: list[dict[str, float]] | None = None
    matrix: np.ndarray | None = None
    rss_mb: list[float] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.ids) if self.ids else 0


@dataclass
class Bench:
    workload: Workload
    seed: int
    work: Path
    steps: Children | InProcess
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    first_trace: bytes | None = None
    op_walls: list[float] = field(default_factory=list)
    train_params: dict | None = None
    #: (ids, raw views, duplicate rows, file paths) of the planted files.
    planted: tuple | None = None
    #: Untraced runs probe set-up time within each operation, so that the
    #: probes spread over the run like the other samples.
    probe_setup: bool = False

    def record(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def record_timed(self, name: str, value: float, scale: float) -> None:
        """Record a timing at the nominal machine speed; the wall-clock
        value goes to ``raw.<name>``."""
        self.record(f"raw.{name}", value)
        self.record(name, value * scale if BETTER[name] == "lower" else value / scale)

    def prepare(self) -> None:
        """Seeded inputs: train parameters, or planted files and a CLI config."""
        w = self.workload
        if w.train_params is not None:
            p = w.train_params
            self.train_params = dict(p, spec=dict(p["spec"], seed=self.seed),
                                     config=dict(p["config"], seed=self.seed))
        if w.planted is not None:
            p = w.planted
            ids, views, dups = inputs.planted_views(
                self.seed, p["n_ids"], p["dim"], p["k"], p["sigma"], p["n_dups"])
            files = inputs.write_views(self.work, ids, views)
            self.planted = (ids, views, [int(d) for d in dups], [str(f) for f in files])
        if w.cli_train is not None:
            text = "".join(f"{k} = {v}\n" for k, v in dict(w.cli_train, seed=self.seed).items())
            (self.work / "train.cfg").write_text(text, encoding="utf-8")

    def run_step(self, name: str, step, op: OpState | None) -> None:
        self.attempted += 1
        try:
            problems = step(op)
        except Exception as exc:  # a broken step must not end the run
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems += [f"op {len(self.op_walls)} {name}: {p}" for p in problems]

    def operation(self) -> float:
        """Run one operation's steps in order; its wall seconds."""
        t0 = time.perf_counter()
        op = OpState(self.work / f"op{len(self.op_walls)}")
        op.dir.mkdir()
        steps = []
        for name, step in (("train", self.train_step), ("simmat", self.simmat_step),
                           ("eval", self.eval_step), ("metric", self.metric_step)):
            if name == "metric" and self.probe_setup:
                steps.append(("setup", self.setup_step))
            steps += [(name, step)] * self.workload.repeats[name]
        if self.probe_setup:
            steps.insert(0, ("setup", self.setup_step))
        for name, step in steps:
            self.run_step(name, step, op)
        if op.rss_mb:
            self.record("peak_rss_mb", max(op.rss_mb))
        self.op_walls.append(time.perf_counter() - t0)
        return self.op_walls[-1]

    # Each step runs one command, checks its output and, when both succeed,
    # records its samples; it returns the problems found.

    def setup_step(self, op: OpState | None) -> list[str]:
        """Train: ``import gramvol`` + ``generate_dataset`` in a fresh child,
        timed inside it; cli: ``gramvol --help`` wall time."""
        if self.train_params is not None:
            call = run_child(
                [sys.executable, str(HERE / "worker.py"), "setup",
                 json.dumps(self.train_params), str(self.work)], self.work)
            if call.ok:
                setup_s = json.loads(call.stdout.strip().splitlines()[-1])["setup_s"]
                self.record_timed("setup_s", setup_s, call.scale)
        else:
            call = self.steps.cli(["--help"])
            if call.ok:
                self.record_timed("setup_s", call.wall_s, call.scale)
        return [] if call.ok else [call.error]

    def train_step(self, op: OpState) -> list[str]:
        w = self.workload
        if w.train_params is not None:
            call, report = self.steps.train(self.train_params, op.dir)
            if call.ok:
                paths = inputs.modality_paths(op.dir, w.train_params["spec"]["modalities"])
                op.files = [str(p) for p in paths]
                op.ids, op.views = read_views(paths)
                op.dups = [i for i, rec_id in enumerate(op.ids)
                           if rec_id.startswith(inputs.DUP_PREFIX)]
                # One rate per epoch when the worker could clock epochs.
                rates = [(report["epoch_samples"] / s, scale) for s, scale
                         in zip(report["epoch_s"], report["epoch_scale"])] or \
                    [(report["samples"] / report["train_s"], call.scale)]
        else:
            call = self.steps.cli(["--out", str(op.dir), "train", str(self.work / "train.cfg")])
            samples = w.cli_train["epochs"] * n_train_samples(w.cli_train["samples"])
            rates = [(samples / call.wall_s, call.scale)]
            op.ids, op.views, op.dups, op.files = self.planted
        op.rss_mb.append(call.rss_mb)
        if not call.ok:
            return [call.error]
        data = (op.dir / "trace.csv").read_bytes()
        if self.first_trace is None:
            self.first_trace = data
        problems = []
        if data != self.first_trace:
            problems.append("trace.csv differs from the first same-seed run")
        op.trace_rows = read_trace(op.dir / "trace.csv")
        problems += self.gate_problems(op.trace_rows)
        if not problems:
            for rate, scale in rates:
                self.record_timed("train_samples_per_s", rate, scale)
            self.record("final_matched_vol", op.trace_rows[-1]["matched_vol"])
            self.record("final_r_at_1", op.trace_rows[-1]["r_at_1"])
        return problems

    def simmat_step(self, op: OpState) -> list[str]:
        csv_path = op.dir / "simmat.csv"
        call = self.steps.cli(["--out", str(csv_path), "simmat", *op.files, "--anchor", "text"])
        op.rss_mb.append(call.rss_mb)
        if not call.ok:
            return [call.error]
        if op.views is None:
            return ["no inputs to check against"]
        row_ids, col_ids, op.matrix = inputs.read_matrix_csv(csv_path)
        problems = []
        if row_ids != op.ids or col_ids != op.ids:
            problems.append("matrix ids differ from the file ids")
        problems += inputs.check_simmat(op.matrix, op.views, op.dups, ORACLE_SAMPLE,
                                        self.seed * 1000 + len(self.op_walls))
        if not problems:
            self.record_timed("simmat_entries_per_s", op.n * op.n / call.wall_s, call.scale)
        return problems

    def eval_step(self, op: OpState) -> list[str]:
        call = self.steps.cli(["eval", *op.files, "--anchor", "text",
                               "--ks", ",".join(map(str, KS))])
        op.rss_mb.append(call.rss_mb)
        if not call.ok:
            return [call.error]
        if op.matrix is None:
            return ["no simmat matrix to check against"]
        got = json.loads(call.stdout.strip().splitlines()[-1])
        want = inputs.recalls_from_matrix(op.matrix, KS)
        if got.get("queries") != op.n or any(got.get(f"r_at_{k}") != want[k] for k in KS):
            return [f"eval {got} differs from the matrix's {want}"]
        self.record_timed("eval_queries_per_s", op.n / call.wall_s, call.scale)
        return []

    def metric_step(self, op: OpState) -> list[str]:
        call = self.steps.cli(["metric", *op.files])
        op.rss_mb.append(call.rss_mb)
        if not call.ok:
            return [call.error]
        if op.matrix is None:
            return ["no simmat matrix to check against"]
        got = json.loads(call.stdout.strip().splitlines()[-1])
        mean = got["mean_matched_volume"]
        problems = []
        if got.get("samples") != op.n:
            problems.append(f"metric reports {got.get('samples')} samples, expected {op.n}")
        if abs(mean - float(np.mean(np.diag(op.matrix)))) > 1e-9:
            problems.append(f"metric mean {mean!r} differs from the simmat diagonal")
        # On the train workloads the files are the evaluated held-out
        # embeddings plus the duplicated tuples, which add zeros.
        tuples = op.n - len(op.dups)
        if self.workload.train_params is not None and op.trace_rows is not None and \
                abs(mean * op.n - op.trace_rows[-1]["matched_vol"] * tuples) > 1e-9 * op.n:
            problems.append(f"metric mean {mean!r} differs from the trace's matched_vol")
        if not problems:
            self.record_timed("metric_tuples_per_s", op.n / call.wall_s, call.scale)
        return problems

    def gate_problems(self, rows: list[dict[str, float]]) -> list[str]:
        g, first, last = self.workload.gate, rows[0], rows[-1]
        out = []
        if g.max_matched_vol is not None and not last["matched_vol"] < g.max_matched_vol:
            out.append(f"final matched volume {last['matched_vol']:.4f} >= {g.max_matched_vol}")
        if g.min_r_at_1 is not None and not last["r_at_1"] >= g.min_r_at_1:
            out.append(f"final R@1 {last['r_at_1']:.4f} < {g.min_r_at_1}")
        if g.max_vol_share is not None and \
                not last["matched_vol"] < g.max_vol_share * first["matched_vol"]:
            out.append("training did not halve the matched volume")
        return out


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run_operations(bench: Bench, deadline: float) -> None:
    """Operations while one as long as the last would be at least half
    done by ``deadline``, so that runs end close to it on average."""
    last = 0.0
    while len(bench.op_walls) < MIN_OPERATIONS or time.perf_counter() + last / 2 <= deadline:
        last = bench.operation()


def measure_untraced(bench: Bench, seconds: float) -> dict:
    """Set-up probes, then operations as child processes until time is up."""
    deadline = time.perf_counter() + seconds
    for _ in range(SETUP_PROBES):
        bench.run_step("setup", bench.setup_step, None)
    bench.probe_setup = True
    run_operations(bench, deadline)
    return {
        name: (median_of(bench.samples.get(name, [])), unit,
               len(bench.samples.get(name, [])), None)
        for name, unit, _, _ in END_TO_END
    }


def volume_microbench(seed: int) -> dict[str, float | None]:
    """Per-call microseconds of the per-tuple volume paths."""
    out = {}
    try:
        volume = importlib.import_module("gramvol.volume")
    except ImportError:
        return out
    rng = np.random.default_rng(seed)
    for fn_name in ("gramian_volume", "volume_gradient"):
        fn = getattr(volume, fn_name, None)
        for k, n in VOLUME_SHAPES:
            if fn is None:
                continue
            rows = inputs.unit(rng.standard_normal((k, n)))
            per_call = []
            for _ in range(7):
                t0 = time.perf_counter()
                for _ in range(200):
                    fn(rows)
                per_call.append((time.perf_counter() - t0) / 200 * 1e6)
            out[f"volume.{fn_name}_us.k{k}_n{n}"] = statistics.median(per_call)
    return out


def measure_traced(bench: Bench, seconds: float) -> dict:
    """Interleave untraced and traced in-process operations."""
    for module in ("gramvol", "gramvol.cli"):
        importlib.import_module(module)  # import cost is not an operation's
    tracer = tracing.Tracer()
    plain, traced = InProcess(None), InProcess(tracer)
    walls = {"plain": [], "traced": []}
    traced_ops = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not traced_ops or time.perf_counter() + last / 2 <= deadline:
        # plain, traced, traced, plain, ...: a drift in machine speed
        # cancels out of the overhead ratio.
        if len(bench.op_walls) % 4 in (1, 2):
            tracer.run_id = len(bench.op_walls)
            bench.steps = traced
            with tracer.installed():
                last = bench.operation()
            traced_ops.append(tracer.run_id)
            walls["traced"].append(last)
        else:
            bench.steps = plain
            last = bench.operation()
            if len(bench.op_walls) > 1:  # the first operation warms up
                walls["plain"].append(last)

    per_op: dict[str, list[float]] = {}
    reasons: dict[str, str] = {}
    for run_id in traced_ops:
        summary = tracer.summary(run_id)

        def op(span, key):
            if span in tracer.missing:
                raise tracing.MissingLayer(tracer.missing[span])
            return summary[span][key]

        for name, (_, _, _, value) in PER_LAYER.items():
            if value is None:
                continue
            try:
                per_op.setdefault(name, []).append(value(op))
            except tracing.MissingLayer as exc:
                reasons[name] = str(exc.args[0])
    micro = volume_microbench(bench.seed)
    plain_s = median_of(walls["plain"]) or bench.op_walls[0]
    result = {}
    for name, (unit, _, _, value) in PER_LAYER.items():
        if name == "trace.overhead_ratio":
            v = median_of(walls["traced"]) / plain_s
        elif value is None:
            v = micro.get(name)
            reasons.setdefault(name, "gramvol.volume function not found")
        else:
            v = None if name in reasons else median_of(per_op[name])
        result[name] = (v, unit, len(traced_ops), None if v is not None else reasons[name])

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{bench.workload.name}-seed{bench.seed}.json"
    spans_path.write_text(json.dumps({"missing": tracer.missing, "spans": tracer.dump()}))
    return result


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    rev = None
    if head.exists():
        ref = head.read_text().strip()
        rev = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            rev = target.read_text().strip() if target.exists() else ref
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_revision": rev,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "gramvol" / "__init__.py").is_file():
        print(f"error: no gramvol sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    speed.pin_to_one_cpu()
    if args.smoke:
        workload = smoke_variant(workload)

    env = environment()
    env["loadavg_before"] = os.getloadavg()
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, args.seed, work, Children(work))
        bench.prepare()
        if args.trace:
            sys.path.insert(0, str(SRC))
            metrics = measure_traced(bench, args.seconds)
        else:
            metrics = measure_untraced(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()

    print(f"# workload={workload.name} seed={args.seed} trace={args.trace} "
          f"operations={len(bench.op_walls)} walls_s={[round(t, 2) for t in bench.op_walls]}")
    print("env " + json.dumps(env))
    for name, (value, unit, n, reason) in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:40s} {shown:>12s} {unit:6s} median of {n}"
              + (f"  ({reason})" if reason else ""))
    print(f"{'error_rate':40s} {bench.failed / max(bench.attempted, 1):12.6g} ratio  "
          f"{bench.failed} of {bench.attempted} steps failed")
    if not args.trace:
        for name, values in bench.samples.items():
            print(f"samples {name} " + " ".join(f"{v:.5g}" for v in values))
    for problem in bench.problems:
        print(f"FAILED {problem}")

    result_metrics = {}
    for name, (value, unit, n, reason) in metrics.items():
        entry = {"value": value, "unit": unit}
        if reason:
            entry["reason"] = reason
        result_metrics[name] = entry
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
