"""Command-line entry point: volumes, similarity matrices, training, eval.

Commands exchange data through line-delimited JSON embedding files (one
modality per file) and write matrices/traces as CSV.  Each file is loaded
as one (N, n) float64 array and, unless --no-normalize, scaled row-wise
to unit norm by one ``normalize`` call.  Diagnostics go to stderr; stdout
carries data only.

Module scope imports click, the standard library and ``errors`` only, so
``--help``, a command's ``--help`` and a usage error never import numpy.
A command loads what it uses (``_load``) when it first calls into it:
``volume`` loads ``formats`` and ``volume``, ``simmat`` also
``similarity``, ``eval`` and ``metric`` also ``metrics``, and ``train``
``formats`` and the training modules.  The library functions the
commands call are module-level stand-ins (``_lazy``), so patching one of
these globals reaches every call.

``eval`` and ``metric`` print one JSON line; their --out file holds that
line, or a header line and a value line of CSV when the path ends in
``.csv``.  With --no-normalize, ``volume`` takes any finite vectors as
they are whose Gram determinant stays finite, while ``simmat``, ``eval``
and ``metric`` still need unit rows and exit 2 ("row off unit norm") on
a row more than 1e-10 off.  ``volume`` prints a tab-separated table
whose id cells are quoted as CSV needs (an id holding a tab, a quote, LF
or CR).  Exit codes are stable, and the command group maps each library
error to one:

    0  success
    2  embedding file parse/data error, one "path:line:" message (a bad
       header or record, an id or modality that is not a JSON string, a
       vector element that is not a JSON number, a wrong vector length,
       a second modality, a duplicate id, NaN or Inf, bytes that are not
       UTF-8); a file that cannot be read; files of different dimensions;
       for simmat, eval and metric, two files with the same modality name;
       under --no-normalize, a vector whose squared norm overflows or,
       for volume, a tuple whose Gram determinant overflows
    3  a requested id is missing from one of the modality files
    4  unknown anchor modality name
    5  configuration error: simmat, eval or metric given fewer than two
       files, an eval --ks with no cutoff or a cutoff below 1, an --out
       path that cannot be written ("cannot write <path>: <reason>"), a
       train config that cannot be read, is not UTF-8, has a key other
       than the fields of ``SyntheticSpec``/``TrainConfig`` (``lambda``
       names ``lam`` and ``data_seed`` the spec's ``seed``) or holds a bad
       value (batch_size or eval_max_samples below 2, tau_init outside
       [1e-3, 10], a seed below 0, a non-finite float, a noise_sigma that
       overflows the generated data, a training or held-out split of
       fewer than 2 samples, sizes whose run would allocate more than
       ``synth.MAX_RUN_VALUES`` = 2**28 float64 values up front: the
       views, the parameters and their two Adam moments)
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

#: ``len(sys.modules)`` at the last heap freeze while ``run()`` runs a
#: command, None otherwise.
_frozen_modules: int | None = None


def _load(module: str):
    """``gramvol.<module>``, imported on first use.

    Under ``run()``, a load that brought new modules in freezes the heap
    again, so what a command loads is frozen like the start-up imports.
    """
    global _frozen_modules
    name = f"{__package__}.{module}"
    __import__(name)  # the import statement's path, which ``-X importtime`` reports
    loaded = sys.modules[name]
    if _frozen_modules is not None and len(sys.modules) > _frozen_modules:
        gc.freeze()
        _frozen_modules = len(sys.modules)
    return loaded


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
cross_volume_matrix = _lazy("similarity", "cross_volume_matrix")
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
    """Print a flat report as one JSON line, and write it to ``path`` when
    given: a header and a value line of CSV when it ends in .csv, else the
    JSON line."""
    line = json.dumps(report)
    if path is not None:
        if str(path).endswith(".csv"):
            values = ",".join(v if isinstance(v, str) else repr(v) for v in report.values())
            _write_output(path, f"{','.join(report)}\n{values}\n")
        else:
            _write_output(path, line + "\n")
    click.echo(line)


def _cell(text: str, delimiter: str = ",") -> str:
    """``text`` as one CSV cell: quoted when it holds the delimiter, a
    quote, LF or CR, with each inner quote doubled."""
    if any(c in text for c in (delimiter, '"', "\n", "\r")):
        return '"' + text.replace('"', '""') + '"'
    return text


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
        return [dataclasses.replace(f, rows=normalize(f.rows)) for f in files]
    # Rows taken as they are: one whose squared norm overflows would
    # overflow every volume it enters.
    for path, f in zip(paths, files):
        over = (_load("volume").squared_norms(f.rows) == float("inf")).nonzero()[0]
        if over.size:
            raise NonFiniteInputError(
                f"{path}: the squared norm of id {f.ids[over[0]]!r} overflows; "
                "run without --no-normalize")
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
    similarity = _load("similarity")
    anchor, *datas = (
        similarity.ModalityBatch(rows=rows, modality_name=f.modality)
        for f, rows in zip(ordered, _rows(ordered, ids))
    )
    return ids, similarity.MultimodalBatch(anchor=anchor, datas=tuple(datas))


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
        import numpy as np

        mats = _rows(files, ids)
        with np.errstate(over="ignore", invalid="ignore"):
            batch = _load("volume").VolumeBatch(mats[0], mats[1:], paired=True)
        # Unit rows keep every determinant within 1; raw rows may overflow it.
        over = (~np.isfinite(batch.gram_det)).nonzero()[0]
        if over.size:
            raise NonFiniteInputError(f"the Gram determinant of id {ids[over[0]]!r} "
                                      "overflows; run without --no-normalize")
        vols = batch.values
    lines = ["id\tk\tvolume"]
    lines.extend("\t".join((_cell(rec_id, "\t"), str(len(files)), f"{vol:.12g}"))
                 for rec_id, vol in zip(ids, vols))
    text = "\n".join(lines)
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
    # One %-template formats a row's values.
    template = ",".join(["%.12g"] * len(ids)) + "\n"
    lines = [",".join(["id", *map(_cell, ids)]) + "\n"]
    lines.extend(_cell(rec_id) + "," + template % tuple(row.tolist())
                 for rec_id, row in zip(ids, values))
    out_path = opts.out if opts.out is not None else Path("simmat.csv")
    _write_output(out_path, "".join(lines))
    click.echo(f"wrote {out_path}", err=True)


@main.command("train")
@click.argument("config_path", type=click.Path())
@click.pass_obj
def cmd_train(opts: CliOptions, config_path):
    """Generate the synthetic dataset and train; write trace + checkpoint."""
    formats = _load("formats")
    kv = formats.read_key_values(config_path)
    if opts.seed is not None:
        kv["seed"] = str(opts.seed)
    spec, config = formats.build_train_setup(kv)
    out_dir = opts.out if opts.out is not None else Path(".")
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
def cmd_eval(opts: CliOptions, paths, anchor_name, ks):
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
    files = _load_files(paths, opts.normalize)
    ids, batch = _anchor_batch(files, anchor_name)
    recalls = retrieval_recall(cross_volume_matrix(batch).values, ks=k_values)
    report = {"direction": "data_to_anchor", "queries": len(ids)}
    report.update({f"r_at_{k}": recalls[k] for k in k_values})
    _report(opts.out, report)


@main.command("metric")
@click.argument("paths", nargs=-1, required=True, type=click.Path())
@click.pass_obj
def cmd_metric(opts: CliOptions, paths):
    """Mean matched-tuple volume over all ids (and 1 - mean)."""
    files = _load_files(paths, opts.normalize)
    ids, batch = _anchor_batch(files, files[0].modality, files[0].ids)
    score = alignment_metric(batch)
    _report(opts.out, {
        "mean_matched_volume": score.mean_matched_volume,
        "one_minus_gram": score.one_minus_gram,
        "samples": len(ids),
    })


def run() -> None:
    """Process entry point: freeze the heap at dispatch and after each load
    that imports modules, then run ``main``.

    Everything imported lives until the process ends, so moving it to the
    permanent generation spares the full collections at interpreter exit a
    walk over it.  At dispatch that is click and the standard library; the
    numerics and training modules a command loads (``_load``) are frozen
    after their import.  In-process calls of ``main`` never freeze.
    """
    global _frozen_modules
    gc.freeze()
    _frozen_modules = len(sys.modules)
    try:
        main()
    finally:
        _frozen_modules = None
