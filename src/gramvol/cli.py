"""Command-line entry point: volumes, similarity matrices, training, eval.

Commands exchange data through line-delimited JSON embedding files (one
modality per file) and write matrices/traces as CSV.  Diagnostics go to
stderr; stdout carries data only.  Exit codes are stable:

    0  success
    2  embedding file parse/data error (message carries the line number),
       including modality files of different dimensions and, for simmat
       and eval, two files with the same modality name
    3  a requested id is missing from one of the modality files
    4  unknown anchor modality name
    5  configuration error, including an eval --ks cutoff below 1 and an
       --out path that cannot be written ("cannot write <path>: <reason>")
    6  training diverged, or an encoder produced a zero embedding (partial
       trace is still written); any other library error in train exits
       with its code above, or 1, and a one-line message
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

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
from .similarity import CrossVolumeMatrix, ModalityBatch, MultimodalBatch, cross_volume_matrix
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
    except FileNotFoundError:
        raise EmbeddingParseError(f"{path}: no such file")
    except EmbeddingParseError as exc:
        raise EmbeddingParseError(f"{path}:{exc.line_no}: {exc}", exc.line_no)


def _load_files(paths, do_normalize):
    """[(modality_name, id order, id->vector dict)] with per-file parsing."""
    out = []
    dims = {}
    for path in paths:
        emb = _read_file(path)
        dims[path] = emb.n
        by_id = emb.by_id()
        if do_normalize:
            by_id = {i: normalize(v) for i, v in by_id.items()}
        elif not all(np.isfinite(v).all() for v in by_id.values()):
            raise NonFiniteInputError(f"{path}: a vector contains NaN or Inf")
        out.append((emb.single_modality(), emb.ids(), by_id))
    if len(set(dims.values())) > 1:
        raise DimensionMismatchError(f"modality files have different dimensions: {dims}")
    return out


def _lookup(by_id, rec_id, modality):
    if rec_id not in by_id:
        raise MissingIdError(f"id {rec_id!r} missing from modality {modality!r}")
    return by_id[rec_id]


def _gather(files, ids):
    """Per-modality (B, n) matrices for the given id order."""
    out = []
    for modality, _, by_id in files:
        out.append(np.array([_lookup(by_id, i, modality) for i in ids]))
    return out


def _assemble_anchor_view(files, anchor_name):
    """(row ids, anchor matrix, data matrices) with anchor pulled out.

    Row order follows the first data modality's file order; the same ids
    index the columns, so matched tuples sit on the diagonal.
    """
    names = [name for name, _, _ in files]
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
    datas = [f for f in files if f[0] != anchor_name]
    ids = list(datas[0][1])
    anchor_rows = np.array([_lookup(anchor[2], i, anchor[0]) for i in ids])
    data_rows = _gather(datas, ids)
    return ids, anchor_rows, data_rows, [f[0] for f in datas]


def _volume_batch(ids, anchor_rows, data_rows, anchor_name, data_names) -> CrossVolumeMatrix:
    batch = MultimodalBatch(
        anchor=ModalityBatch(rows=anchor_rows, modality_name=anchor_name),
        datas=tuple(
            ModalityBatch(rows=rows, modality_name=name)
            for rows, name in zip(data_rows, data_names)
        ),
    )
    return cross_volume_matrix(batch)


@main.command("volume")
@click.argument("paths", nargs=-1, required=True, type=click.Path())
@click.option("--ids", "id_filter", default=None,
              help="Comma-separated ids to report (default: all, first-file order).")
@click.pass_obj
def cmd_volume(opts: CliOptions, paths, id_filter):
    """Print the tuple volume for each id across the modality files."""
    try:
        files = _load_files(paths, opts.normalize)
        ids = list(files[0][1])
        if id_filter is not None:
            ids = [i.strip() for i in id_filter.split(",") if i.strip()]
        k = len(files)
        vols = []
        if ids:
            mats = _gather(files, ids)
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
        ids, anchor_rows, data_rows, data_names = _assemble_anchor_view(files, anchor_name)
        matrix = _volume_batch(ids, anchor_rows, data_rows, anchor_name, data_names)
    except GramVolError as exc:
        _fail(_exit_code_for(exc), str(exc))
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id"] + ids)
    for i, rec_id in enumerate(ids):
        writer.writerow([rec_id] + [f"{v:.12g}" for v in matrix.values[i]])
    out_path = opts.out if opts.out is not None else Path("simmat.csv")
    _write_output(out_path, buf.getvalue())
    click.echo(f"wrote {out_path}", err=True)


@main.command("train")
@click.argument("config_path", type=click.Path())
@click.pass_obj
def cmd_train(opts: CliOptions, config_path):
    """Generate the synthetic dataset and train; write trace + checkpoint."""
    try:
        spec, config = read_train_setup(config_path)
    except FileNotFoundError:
        _fail(EXIT_CONFIG, f"{config_path}: no such file")
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
        ids, anchor_rows, data_rows, data_names = _assemble_anchor_view(files, anchor_name)
        matrix = _volume_batch(ids, anchor_rows, data_rows, anchor_name, data_names)
        recalls = retrieval_recall(matrix, ks=k_values, ascending=True)
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
        ids = list(files[0][1])
        mats = _gather(files, ids)
        batch = MultimodalBatch(
            anchor=ModalityBatch(rows=mats[0], modality_name=files[0][0]),
            datas=tuple(
                ModalityBatch(rows=m, modality_name=f[0])
                for m, f in zip(mats[1:], files[1:])
            ),
        )
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
