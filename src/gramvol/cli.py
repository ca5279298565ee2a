"""Command-line entry point: volumes, similarity matrices, training, eval.

Commands exchange data through line-delimited JSON embedding files (one
modality per file) and write matrices/traces as CSV.  Each file is loaded
as one (N, n) float64 array and scaled row-wise to unit norm by one
``normalize`` call; the library (``gramian_volume``, ``cross_volumes``)
scores raw vectors.  Diagnostics go to stderr; stdout carries data only.

Module scope imports click, the standard library and ``errors`` only, so
``--help``, a command's ``--help`` and a usage error never import numpy.
A command loads what it uses (``_load``) when it first calls into it:
``volume`` loads ``formats`` and ``volume``, ``simmat``, ``eval`` and
``metric`` also ``metrics``, and ``train`` ``formats`` and the training
modules (``synth``, ``train``, ``losses``, ``encoders``).  The library
functions the commands call are module-level stand-ins (``_lazy``), so
patching one of these globals reaches every call.

``eval`` and ``metric`` print one JSON line, and their --out file holds
that line.  ``volume`` prints a tab-separated table, one row per id of
the first file in file order, whose id cells are quoted as CSV needs (an
id holding a tab, a quote, LF or CR).  Exit codes are stable, and the
command group maps each library error to one:

    0  success
    2  embedding file parse/data error, one "path:line:" message (a bad
       header or record, an id or modality that is not a JSON string, a
       vector element that is not a JSON number, a wrong vector length,
       a second modality, a duplicate id, NaN or Inf, bytes that are not
       UTF-8, no header record in an empty or blank file); a file that
       cannot be read; files of different dimensions; a vector of norm
       below 1e-30 ("<path>: id '<id>': cannot normalize ..."); for
       simmat, eval and metric, two files with the same modality name
    3  an id of the file whose order the rows follow is missing from
       another modality file
    4  unknown anchor modality name
    5  configuration error: simmat, eval or metric given fewer than two
       files, an eval --ks with no cutoff or a cutoff below 1, an --out
       path that cannot be written ("cannot write <path>: <reason>"), a
       train config that cannot be read, is not UTF-8, has a key other
       than the fields of ``SyntheticSpec``/``TrainConfig`` (``lambda``
       names ``lam``; ``seed`` sets both) or holds a bad value
       (batch_size or eval_max_samples below 2, tau_init outside
       [1e-3, 10], a seed below 0, a non-finite float, a noise_sigma that
       overflows the generated data, a training or held-out split of
       fewer than 2 samples, sizes whose run would allocate more than
       ``synth.MAX_RUN_VALUES`` = 2**28 float64 values up front (the
       views, the parameters and their two Adam moments) or in one
       training or evaluation step's cross-volume grid)
    6  training diverged: a non-finite loss, a float overflow or invalid
       operation, or an encoder's zero embedding (the partial trace is
       still written)
    1  any other library error, for every command, with a one-line message
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import sys
from pathlib import Path

import click

from .errors import (
    DimensionMismatchError,
    DivergedTrainingError,
    EmbeddingParseError,
    GramVolError,
    InconsistentBatchError,
    InvalidConfigError,
    InvalidSpecError,
    MissingIdError,
    NonFiniteInputError,
    UnknownAnchorError,
    ZeroVectorError,
)


def _load(module: str):
    """``gramvol.<module>``, imported on first use."""
    name = f"{__package__}.{module}"
    __import__(name)  # the import statement's path, which ``-X importtime`` reports
    return sys.modules[name]


def _lazy(module: str, name: str):
    """A module-level stand-in for ``<module>.<name>`` that loads the module
    when called.  Commands call the stand-in as a global of this module, so
    replacing that global (a test's ``monkeypatch``, the benchmark's
    tracer) reaches every call."""

    def stand_in(*args, **kwargs):
        return getattr(_load(module), name)(*args, **kwargs)

    stand_in.__name__ = stand_in.__qualname__ = name
    stand_in.__doc__ = f"``{module}.{name}``, whose module loads on the first call."
    return stand_in


read_embeddings = _lazy("formats", "read_embeddings")
_atomic_write_text = _lazy("formats", "_atomic_write_text")
normalize = _lazy("volume", "normalize")
cross_volume_matrix = _lazy("metrics", "cross_volume_matrix")
retrieval_recall = _lazy("metrics", "retrieval_recall")
alignment_metric = _lazy("metrics", "alignment_metric")
generate_dataset = _lazy("synth", "generate_dataset")
run_training = _lazy("train", "train")


#: Library error -> exit code; any other ``GramVolError`` exits 1.
_EXIT_CODES: tuple[tuple[type[GramVolError], int], ...] = (
    (EmbeddingParseError, 2),
    (DimensionMismatchError, 2),
    (ZeroVectorError, 2),
    (NonFiniteInputError, 2),
    (InconsistentBatchError, 2),
    (MissingIdError, 3),
    (UnknownAnchorError, 4),
    (InvalidConfigError, 5),
    (InvalidSpecError, 5),
    (DivergedTrainingError, 6),
)


class _Cli(click.Group):
    """The command group, and the one place where a library error becomes
    an exit code and one ``error:`` line on stderr."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except GramVolError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(next((code for t, code in _EXIT_CODES if isinstance(exc, t)), 1))


@contextlib.contextmanager
def _writing(path: Path):
    """Turn a failure to write the output at ``path`` into a config error."""
    try:
        yield
    except OSError as exc:
        raise InvalidConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_output(path: Path, text: str) -> None:
    with _writing(path):
        _atomic_write_text(path, text)


def _report(path: Path | None, report: dict) -> None:
    """Print a flat report as one JSON line, and write that line to
    ``path`` when given."""
    line = json.dumps(report)
    if path is not None:
        _write_output(path, line + "\n")
    click.echo(line)


def _cell(text: str, delimiter: str = ",") -> str:
    """``text`` as one CSV cell: quoted when it holds the delimiter, a
    quote, LF or CR, with each inner quote doubled."""
    if any(c in text for c in (delimiter, '"', "\n", "\r")):
        return '"' + text.replace('"', '""') + '"'
    return text


@click.group(cls=_Cli)
@click.option("--out", type=click.Path(path_type=Path), default=None,
              help="Output path; a directory for train, a file elsewhere.")
@click.pass_context
def main(ctx, out):
    """Volume-based multimodal similarity toolbox."""
    ctx.obj = out


def _read_file(path: str):
    try:
        return read_embeddings(path)
    except OSError as exc:
        raise EmbeddingParseError(f"{path}: {exc.strerror or exc}") from None
    except EmbeddingParseError as exc:
        raise EmbeddingParseError(f"{path}:{exc.line_no}: {exc}", exc.line_no)


def _load_files(paths):
    """The parsed files, each one modality's (N, n) rows scaled to unit norm."""
    files = [_read_file(path) for path in paths]
    dims = {path: f.n for path, f in zip(paths, files)}
    if len(set(dims.values())) > 1:
        raise DimensionMismatchError(f"modality files have different dimensions: {dims}")
    unit = []
    for path, f in zip(paths, files):
        try:
            unit.append(dataclasses.replace(f, rows=normalize(f.rows)))
        except ZeroVectorError as exc:
            raise ZeroVectorError(f"{path}: id {f.ids[exc.row]!r}: {exc}", exc.row) from None
    return unit


def _rows(files, ids):
    """Per-file (B, n) rows for the given id order."""
    out = []
    for f in files:
        try:
            out.append(f.rows[[f.index[i] for i in ids]])
        except KeyError as exc:
            raise MissingIdError(
                f"id {exc.args[0]!r} missing from modality {f.modality!r}"
            ) from None
    return out


def _anchor_batch(files, anchor_name, ids=None):
    """(row ids, validated batch) with the named anchor modality first.

    The checks of ``simmat``, ``eval`` and ``metric``.  Rows follow ``ids``,
    by default the first data modality's file order; the same ids index the
    columns, so matched tuples sit on the diagonal.
    """
    names = [f.modality for f in files]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise InconsistentBatchError(f"duplicate modality {repeated} across files")
    if anchor_name not in names:
        raise UnknownAnchorError(
            f"anchor {anchor_name!r} not among modalities {names}"
        )
    if len(files) < 2:
        raise InvalidConfigError("need at least two modality files")
    anchor = files[names.index(anchor_name)]
    ordered = [anchor, *(f for f in files if f is not anchor)]
    ids = ordered[1].ids if ids is None else ids
    metrics = _load("metrics")
    anchor, *datas = (
        metrics.ModalityBatch(rows=rows, modality_name=f.modality)
        for f, rows in zip(ordered, _rows(ordered, ids))
    )
    return ids, metrics.MultimodalBatch(anchor=anchor, datas=tuple(datas))


@main.command("volume")
@click.argument("paths", nargs=-1, required=True, type=click.Path())
@click.pass_obj
def cmd_volume(out: Path | None, paths):
    """Print the tuple volume for each id across the modality files.

    Rows follow the first file's ids, in its order.
    """
    files = _load_files(paths)
    ids = files[0].ids
    mats = _rows(files, ids)
    vols = _load("volume").VolumeBatch(mats[0], mats[1:], paired=True).values
    lines = ["id\tk\tvolume"]
    lines.extend("\t".join((_cell(rec_id, "\t"), str(len(files)), f"{vol:.12g}"))
                 for rec_id, vol in zip(ids, vols))
    text = "\n".join(lines)
    if out is not None:
        _write_output(out, text + "\n")
    click.echo(text)


@main.command("simmat")
@click.argument("paths", nargs=-1, required=True, type=click.Path())
@click.option("--anchor", "anchor_name", required=True,
              help="Modality name used as the anchor (column axis).")
@click.pass_obj
def cmd_simmat(out: Path | None, paths, anchor_name):
    """Write the B x B cross-volume matrix as CSV with id headers."""
    files = _load_files(paths)
    ids, batch = _anchor_batch(files, anchor_name)
    values = cross_volume_matrix(batch).values
    # One %-template formats a row's values.
    template = ",".join(["%.12g"] * len(ids)) + "\n"
    lines = [",".join(["id", *map(_cell, ids)]) + "\n"]
    lines.extend(_cell(rec_id) + "," + template % tuple(row.tolist())
                 for rec_id, row in zip(ids, values))
    out_path = out if out is not None else Path("simmat.csv")
    _write_output(out_path, "".join(lines))
    click.echo(f"wrote {out_path}", err=True)


@main.command("train")
@click.argument("config_path", type=click.Path())
@click.pass_obj
def cmd_train(out: Path | None, config_path):
    """Generate the synthetic dataset and train; write trace + checkpoint."""
    formats = _load("formats")
    spec, config = formats.build_train_setup(formats.read_key_values(config_path))
    out_dir = out if out is not None else Path(".")
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    dataset = generate_dataset(spec)
    try:
        result = run_training(config, dataset, embed_dim=spec.embed_dim)
    except DivergedTrainingError as exc:
        if exc.trace is not None:
            with _writing(out_dir):
                formats.write_trace_csv(out_dir / "trace.csv", exc.trace)
        raise
    with _writing(out_dir):
        formats.write_trace_csv(out_dir / "trace.csv", result.trace)
        formats.write_checkpoint(
            out_dir / "checkpoint.bin", out_dir / "checkpoint.json", result.params
        )
    click.echo(f"wrote {out_dir / 'trace.csv'} and {out_dir / 'checkpoint.bin'}", err=True)


@main.command("eval")
@click.argument("paths", nargs=-1, required=True, type=click.Path())
@click.option("--anchor", "anchor_name", required=True)
@click.option("--ks", default=None,
              help="Comma-separated recall cutoffs.")
@click.pass_obj
def cmd_eval(out: Path | None, paths, anchor_name, ks):
    """Retrieval recall over the cross-volume matrix (diagonal = match)."""
    if ks is None:
        ks = ",".join(map(str, _load("metrics").DEFAULT_KS))
    try:
        k_values = [int(k) for k in ks.split(",") if k.strip()]
        if not k_values:
            raise ValueError(f"no cutoff in {ks!r}")
        bad = [k for k in k_values if k < 1]
        if bad:
            raise ValueError(f"cutoffs must be >= 1, got {bad}")
    except ValueError as exc:
        raise InvalidConfigError(f"bad --ks value: {exc}") from None
    files = _load_files(paths)
    ids, batch = _anchor_batch(files, anchor_name)
    recalls = retrieval_recall(cross_volume_matrix(batch).values, ks=k_values)
    report = {"direction": "data_to_anchor", "queries": len(ids)}
    report.update({f"r_at_{k}": recalls[k] for k in k_values})
    _report(out, report)


@main.command("metric")
@click.argument("paths", nargs=-1, required=True, type=click.Path())
@click.pass_obj
def cmd_metric(out: Path | None, paths):
    """Mean matched-tuple volume over all ids (and 1 - mean)."""
    files = _load_files(paths)
    ids, batch = _anchor_batch(files, files[0].modality, files[0].ids)
    score = alignment_metric(batch)
    _report(out, {
        "mean_matched_volume": score.mean_matched_volume,
        "one_minus_gram": score.one_minus_gram,
        "samples": len(ids),
    })


def run() -> None:
    """Process entry point: run ``main``, then freeze the heap.

    ``main`` ends by ``SystemExit`` (click's standalone mode) or returns,
    and the process exits; freezing then moves everything the command
    made, its imports included, to the permanent generation, which the
    collections at interpreter exit skip.  In-process calls of ``main``
    never freeze.
    """
    try:
        main()
    finally:
        gc.freeze()
