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
1e-10 off.  ``volume`` prints a tab-separated table whose id cells are
quoted as CSV needs (an id holding a tab, a quote, LF or CR).  Exit codes
are stable, and the command group maps each library error to one:

    0  success
    2  embedding file parse/data error, one "path:line:" message (a bad
       header or record, an id or modality that is not a JSON string, a
       wrong vector length, a second modality, a duplicate id, NaN or
       Inf, bytes that are not UTF-8); a file that cannot be read; files
       of different dimensions; for simmat, eval and metric, two files
       with the same modality name
    3  a requested id is missing from one of the modality files
    4  unknown anchor modality name
    5  configuration error: simmat, eval or metric given fewer than two
       files, an eval --ks cutoff below 1, an --out path that cannot be
       written ("cannot write <path>: <reason>"), a train config that
       cannot be read, is not UTF-8, has a key other than the fields of
       ``SyntheticSpec``/``TrainConfig`` (``lambda`` names ``lam`` and
       ``data_seed`` the spec's ``seed``) or holds a bad value (batch_size
       below 2, tau_init outside [1e-3, 10], a seed below 0, a non-finite
       float, a noise_sigma that overflows the generated data, a training
       split of fewer than 2 samples)
    6  training diverged: a non-finite loss, a float overflow or invalid
       operation, or an encoder's zero embedding (the partial trace is
       still written)
    1  any other library error, for every command, with a one-line message
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


def _csv_writer(lines: list[str], delimiter: str = ","):
    """A csv writer that appends each row to ``lines``.  Rows end in
    "\r\n", which makes it quote a cell holding either character; callers
    cut the two off."""
    return csv.writer(SimpleNamespace(write=lines.append), delimiter=delimiter,
                      lineterminator="\r\n")


@dataclasses.dataclass
class CliOptions:
    seed: int | None
    normalize: bool
    out: Path | None


@click.group(cls=_Cli)
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
    files = _load_files(paths, opts.normalize)
    ids = files[0].ids
    if id_filter is not None:
        ids = [i.strip() for i in id_filter.split(",") if i.strip()]
    vols = []
    if ids:
        mats = _rows(files, ids)
        vols = VolumeBatch(mats[0], mats[1:], paired=True).values
    lines = []
    writer = _csv_writer(lines, delimiter="\t")
    writer.writerow(["id", "k", "volume"])
    writer.writerows((rec_id, len(files), f"{vol:.12g}") for rec_id, vol in zip(ids, vols))
    text = "\n".join(line[:-2] for line in lines)
    if opts.out is not None:
        _write_output(opts.out, text + "\n")
    click.echo(text)


@main.command("simmat")
@click.argument("paths", nargs=-1, required=True, type=click.Path())
@click.option("--anchor", "anchor_name", required=True,
              help="Modality name used as the anchor (column axis).")
@click.pass_obj
def cmd_simmat(opts: CliOptions, paths, anchor_name):
    """Write the B x B cross-volume matrix as CSV with id headers."""
    files = _load_files(paths, opts.normalize)
    ids, batch = _anchor_batch(files, anchor_name)
    values = cross_volume_matrix(batch).values
    # The id cells go through csv.writer, which quotes ids such as "a,b".
    # One %-template formats a row's values.
    lines = []
    writer = _csv_writer(lines)
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
    spec, config = read_train_setup(config_path)
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
        raise
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
        raise InvalidConfigError(f"bad --ks value: {exc}") from None
    files = _load_files(paths, opts.normalize)
    ids, batch = _anchor_batch(files, anchor_name)
    recalls = retrieval_recall(cross_volume_matrix(batch).values, ks=k_values)
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
    files = _load_files(paths, opts.normalize)
    ids, batch = _anchor_batch(files, files[0].modality, files[0].ids)
    score = alignment_metric(batch)
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
