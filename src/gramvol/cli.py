"""Command-line entry point: volumes, similarity matrices, training, eval.

Commands exchange data through line-delimited JSON embedding files (one
modality per file) and write matrices/traces as CSV.  Each file is loaded
as one (N, n) float64 array and, unless --no-normalize, scaled row-wise
to unit norm by one ``normalize`` call.  Diagnostics go to stderr; stdout
carries data only.  ``eval`` and ``metric`` print one JSON line; their
--out file holds that line, or a header line and a value line of CSV when
the path ends in ``.csv``.  With --no-normalize, ``volume`` takes any
finite vectors as they are, while ``simmat``, ``eval`` and ``metric``
still need unit rows and exit 2 ("row off unit norm") on a row more than
1e-10 off.  Exit codes are stable:

    0  success
    2  embedding file parse/data error, one "path:line:" message (a bad
       header or record, a wrong vector length, a second modality, a
       duplicate id, NaN or Inf, bytes that are not UTF-8); a file that
       cannot be read; files of different dimensions; for simmat, eval
       and metric, two files with the same modality name
    3  a requested id is missing from one of the modality files
    4  unknown anchor modality name
    5  configuration error: simmat, eval or metric given fewer than two
       files, an eval --ks cutoff below 1, an --out path that cannot be
       written ("cannot write <path>: <reason>"), a train config that
       cannot be read, is not UTF-8 or holds a bad value (batch_size
       below 2, tau_init outside [1e-3, 10], a non-finite float)
    6  training diverged, or an encoder produced a zero embedding (partial
       trace is still written); any other library error in train exits
       with its code above, or 1, and a one-line message
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import click
import numpy as np

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
from .formats import (
    _atomic_write_text,
    read_embeddings,
    read_train_setup,
    write_checkpoint,
    write_trace_csv,
)
from .metrics import alignment_metric, retrieval_recall
from .similarity import ModalityBatch, MultimodalBatch, cross_volume_matrix
from .synth import generate_dataset
from .train import train as run_training
from .volume import VolumeBatch, normalize

EXIT_PARSE = 2
EXIT_MISSING_ID = 3
EXIT_UNKNOWN_ANCHOR = 4
EXIT_CONFIG = 5
EXIT_DIVERGED = 6

_EXIT_CODES: tuple[tuple[type[GramVolError], int], ...] = (
    (EmbeddingParseError, EXIT_PARSE),
    (DimensionMismatchError, EXIT_PARSE),
    (ZeroVectorError, EXIT_PARSE),
    (NonFiniteInputError, EXIT_PARSE),
    (InconsistentBatchError, EXIT_PARSE),
    (MissingIdError, EXIT_MISSING_ID),
    (UnknownAnchorError, EXIT_UNKNOWN_ANCHOR),
    (InvalidConfigError, EXIT_CONFIG),
    (InvalidSpecError, EXIT_CONFIG),
)


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@contextlib.contextmanager
def _writing(path: Path):
    """Exit 5 with one line when writing the output at ``path`` fails."""
    try:
        yield
    except OSError as exc:
        _fail(EXIT_CONFIG, f"cannot write {path}: {exc.strerror or exc}")


def _write_output(path: Path, text: str) -> None:
    with _writing(path):
        _atomic_write_text(path, text)


def _write_report(path: Path, report: dict, json_line: str) -> None:
    """Write a flat report: CSV when the target ends in .csv, else JSON."""
    if str(path).endswith(".csv"):
        header = ",".join(report)
        values = ",".join(
            v if isinstance(v, str) else repr(v) for v in report.values()
        )
        _write_output(path, f"{header}\n{values}\n")
    else:
        _write_output(path, json_line + "\n")


def _exit_code_for(exc: GramVolError) -> int:
    for exc_type, code in _EXIT_CODES:
        if isinstance(exc, exc_type):
            return code
    return 1


@dataclasses.dataclass
class CliOptions:
    seed: int | None
    normalize: bool
    out: Path | None


@click.group()
@click.option("--seed", type=int, default=None,
              help="Override the seed from the config (train only).")
@click.option("--normalize/--no-normalize", "normalize_vectors", default=True,
              help="Normalize vectors on load (default on).")
@click.option("--out", type=click.Path(path_type=Path), default=None,
              help="Output path; a directory for train, a file elsewhere.")
@click.pass_context
def main(ctx, seed, normalize_vectors, out):
    """Volume-based multimodal similarity toolbox."""
    ctx.obj = CliOptions(seed=seed, normalize=normalize_vectors, out=out)


def _read_file(path: str):
    try:
        return read_embeddings(path)
    except OSError as exc:
        raise EmbeddingParseError(f"{path}: {exc.strerror or exc}") from None
    except EmbeddingParseError as exc:
        raise EmbeddingParseError(f"{path}:{exc.line_no}: {exc}", exc.line_no)


def _load_files(paths, do_normalize):
    """The parsed files, each one modality's (N, n) rows; normalized unless
    ``do_normalize`` is off."""
    files = [_read_file(path) for path in paths]
    dims = {path: f.n for path, f in zip(paths, files)}
    if len(set(dims.values())) > 1:
        raise DimensionMismatchError(f"modality files have different dimensions: {dims}")
    if do_normalize:
        files = [dataclasses.replace(f, rows=normalize(f.rows)) for f in files]
    return files


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
    columns, so matched tuples sit on the diagonal.  Rows must be unit
    norm, so under --no-normalize a row off by over 1e-10 is a data error.
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
    anchor, *datas = (
        ModalityBatch(rows=rows, modality_name=f.modality)
        for f, rows in zip(ordered, _rows(ordered, ids))
    )
    return ids, MultimodalBatch(anchor=anchor, datas=tuple(datas))


@main.command("volume")
@click.argument("paths", nargs=-1, required=True, type=click.Path())
@click.option("--ids", "id_filter", default=None,
              help="Comma-separated ids to report (default: all, first-file order).")
@click.pass_obj
def cmd_volume(opts: CliOptions, paths, id_filter):
    """Print the tuple volume for each id across the modality files."""
    try:
        files = _load_files(paths, opts.normalize)
        ids = files[0].ids
        if id_filter is not None:
            ids = [i.strip() for i in id_filter.split(",") if i.strip()]
        k = len(files)
        vols = []
        if ids:
            mats = _rows(files, ids)
            vols = VolumeBatch(mats[0], mats[1:], paired=True).values
        lines = ["id\tk\tvolume"]
        lines += [f"{rec_id}\t{k}\t{vol:.12g}" for rec_id, vol in zip(ids, vols)]
    except GramVolError as exc:
        _fail(_exit_code_for(exc), str(exc))
        return
    if opts.out is not None:
        _write_output(opts.out, "\n".join(lines) + "\n")
    click.echo("\n".join(lines))


@main.command("simmat")
@click.argument("paths", nargs=-1, required=True, type=click.Path())
@click.option("--anchor", "anchor_name", required=True,
              help="Modality name used as the anchor (column axis).")
@click.pass_obj
def cmd_simmat(opts: CliOptions, paths, anchor_name):
    """Write the B x B cross-volume matrix as CSV with id headers."""
    try:
        files = _load_files(paths, opts.normalize)
        ids, batch = _anchor_batch(files, anchor_name)
        values = cross_volume_matrix(batch).values
    except GramVolError as exc:
        _fail(_exit_code_for(exc), str(exc))
        return
    # The id cells go through csv.writer, which quotes ids such as "a,b".
    # Its "\r\n" terminator, cut from each line, makes it quote an id
    # holding either character.  One %-template formats a row's values.
    lines = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(["id", *ids])
    lines[0] = lines[0][:-2] + "\n"
    template = ",".join(["%.12g"] * len(ids)) + "\n"
    for rec_id, row in zip(ids, values):
        writer.writerow((rec_id, ""))  # "<id cell>,\r\n"
        lines[-1] = lines[-1][:-2] + template % tuple(row.tolist())
    out_path = opts.out if opts.out is not None else Path("simmat.csv")
    _write_output(out_path, "".join(lines))
    click.echo(f"wrote {out_path}", err=True)


@main.command("train")
@click.argument("config_path", type=click.Path())
@click.pass_obj
def cmd_train(opts: CliOptions, config_path):
    """Generate the synthetic dataset and train; write trace + checkpoint."""
    try:
        spec, config = read_train_setup(config_path)
    except OSError as exc:
        _fail(EXIT_CONFIG, f"{config_path}: {exc.strerror or exc}")
        return
    except GramVolError as exc:
        _fail(EXIT_CONFIG, str(exc))
        return
    if opts.seed is not None:
        spec = dataclasses.replace(spec, seed=opts.seed)
        config = dataclasses.replace(config, seed=opts.seed)
    out_dir = opts.out if opts.out is not None else Path(".")
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    dataset = generate_dataset(spec)
    try:
        result = run_training(config, dataset, embed_dim=spec.embed_dim)
    except DivergedTrainingError as exc:
        if exc.trace is not None:
            with _writing(out_dir):
                write_trace_csv(out_dir / "trace.csv", exc.trace)
        _fail(EXIT_DIVERGED, str(exc))
        return
    except GramVolError as exc:
        _fail(_exit_code_for(exc), str(exc))
        return
    with _writing(out_dir):
        write_trace_csv(out_dir / "trace.csv", result.trace)
        write_checkpoint(
            out_dir / "checkpoint.bin", out_dir / "checkpoint.json", result.params
        )
    click.echo(f"wrote {out_dir / 'trace.csv'} and {out_dir / 'checkpoint.bin'}", err=True)


@main.command("eval")
@click.argument("paths", nargs=-1, required=True, type=click.Path())
@click.option("--anchor", "anchor_name", required=True)
@click.option("--ks", default="1,5,10", help="Comma-separated recall cutoffs.")
@click.pass_obj
def cmd_eval(opts: CliOptions, paths, anchor_name, ks):
    """Retrieval recall over the cross-volume matrix (diagonal = match)."""
    try:
        k_values = [int(k) for k in ks.split(",") if k.strip()]
        bad = [k for k in k_values if k < 1]
        if bad:
            raise ValueError(f"cutoffs must be >= 1, got {bad}")
    except ValueError as exc:
        _fail(EXIT_CONFIG, f"bad --ks value: {exc}")
        return
    try:
        files = _load_files(paths, opts.normalize)
        ids, batch = _anchor_batch(files, anchor_name)
        recalls = retrieval_recall(cross_volume_matrix(batch).values, ks=k_values)
    except GramVolError as exc:
        _fail(_exit_code_for(exc), str(exc))
        return
    report = {"direction": "data_to_anchor", "queries": len(ids)}
    report.update({f"r_at_{k}": recalls[k] for k in k_values})
    line = json.dumps(report)
    if opts.out is not None:
        _write_report(opts.out, report, line)
    click.echo(line)


@main.command("metric")
@click.argument("paths", nargs=-1, required=True, type=click.Path())
@click.pass_obj
def cmd_metric(opts: CliOptions, paths):
    """Mean matched-tuple volume over all ids (and 1 - mean)."""
    try:
        files = _load_files(paths, opts.normalize)
        ids, batch = _anchor_batch(files, files[0].modality, files[0].ids)
        score = alignment_metric(batch)
    except GramVolError as exc:
        _fail(_exit_code_for(exc), str(exc))
        return
    report = {
        "mean_matched_volume": score.mean_matched_volume,
        "one_minus_gram": score.one_minus_gram,
        "samples": len(ids),
    }
    line = json.dumps(report)
    if opts.out is not None:
        _write_report(opts.out, report, line)
    click.echo(line)


if __name__ == "__main__":
    main()
