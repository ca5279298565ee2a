"""File formats: embedding files, key=value configs, traces, checkpoints.

Embedding files are line-delimited JSON: a header record carrying the
dimension and a format version, then one record per id, all of one
modality, with the raw vector.  A file is read into its ids and one
(N, n) float64 array.  Floats are written with shortest-round-trip
decimals, so a write/read cycle reproduces 64-bit values exactly.  All
writers go through a temp file plus rename, so partially written outputs
never appear under the target name.
"""

from __future__ import annotations

import json
import os
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import EmbeddingParseError, InvalidConfigError

if TYPE_CHECKING:
    from .synth import SyntheticSpec
    from .train import TrainConfig, TrainingTrace

EMBED_FORMAT_VERSION = 1
CHECKPOINT_FORMAT_VERSION = 1
#: The Python types of JSON numbers; ``true`` and ``"0.5"`` are not among them.
_NUMBERS = frozenset((int, float))


def _atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to a new file beside ``path``, then rename it there.

    The file is created with mode 0o666 less the umask, as ``open(path,
    "w")`` would create it.
    """
    path = Path(path)
    tmp = path.parent / f"{path.name}.{os.urandom(6).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_text(path: str | Path, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# Embedding files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingFile:
    """Parsed embedding file: one modality's (N, n) rows, in file order, and
    each id's row index."""

    modality: str
    index: dict[str, int]
    rows: np.ndarray

    @property
    def ids(self) -> list[str]:
        return list(self.index)


def write_embeddings(
    path: str | Path,
    dim: int,
    records: Iterable[tuple[str, str, Sequence[float]]],
) -> None:
    """Write (id, modality, vector) triples under a dimension header."""
    lines = [json.dumps({"format_version": EMBED_FORMAT_VERSION, "n": int(dim)})]
    for rec_id, modality, vec in records:
        arr = np.asarray(vec, dtype=np.float64)
        lines.append(json.dumps(
            {"id": str(rec_id), "modality": str(modality), "vec": arr.tolist()}
        ))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _read_header(obj, line_no: int) -> int:
    """The dimension n from a header record."""
    # A JSON integer only: ``true`` and ``1.0`` compare equal to 1.
    version = obj.get("format_version") if isinstance(obj, dict) else None
    if type(version) is not int or version != EMBED_FORMAT_VERSION or "n" not in obj:
        raise EmbeddingParseError(
            f"first record must be a header with format_version={EMBED_FORMAT_VERSION} and n",
            line_no
        )
    n = obj["n"]
    if type(n) is not int or n < 1:
        raise EmbeddingParseError(f"header n must be an integer >= 1, got {n!r}", line_no)
    return n


def read_embeddings(path: str | Path) -> EmbeddingFile:
    """Parse an embedding file, reporting the line number of any defect.

    The checks run as each line is read: the header, each record's fields
    (string id and modality, a vector of JSON numbers) and vector length,
    one modality per file, unique ids.  Finiteness is checked on the whole
    array at the end, at the first bad row's line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise EmbeddingParseError(
            f"invalid UTF-8: {exc.reason}", head.count(b"\n") + 1
        ) from None
    n = modality = None
    index: dict[str, int] = {}
    vecs: list[np.ndarray] = []
    line_nos: list[int] = []
    # Lines end at "\r\n", "\r" or "\n", as text-mode ``open`` reads them.
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.removesuffix("\n").split("\n")
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise EmbeddingParseError(f"invalid JSON: {exc}", line_no) from exc
        if n is None:
            n = _read_header(obj, line_no)
            continue
        try:
            rec_id, rec_modality = obj["id"], obj["modality"]
            if type(rec_id) is not str or type(rec_modality) is not str:
                raise TypeError("id and modality must be JSON strings, "
                                f"got {json.dumps(rec_id)} and {json.dumps(rec_modality)}")
            vec = obj["vec"]
            if type(vec) is not list:
                raise TypeError(f"vec must be a JSON array, got {json.dumps(vec)}")
            if not _NUMBERS.issuperset(map(type, vec)):
                bad = next(v for v in vec if type(v) not in _NUMBERS)
                raise TypeError(f"vec elements must be JSON numbers, got {json.dumps(bad)}")
            vec = np.asarray(vec, dtype=np.float64)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise EmbeddingParseError(f"bad record: {exc}", line_no) from exc
        if vec.ndim != 1 or vec.shape[0] != n:
            raise EmbeddingParseError(
                f"vector length {vec.shape} does not match header n={n}", line_no
            )
        if modality is None:
            modality = rec_modality
        elif rec_modality != modality:
            raise EmbeddingParseError(
                f"second modality {rec_modality!r} in a {modality!r} file", line_no
            )
        if rec_id in index:
            raise EmbeddingParseError(f"duplicate id {rec_id!r}", line_no)
        index[rec_id] = len(vecs)
        vecs.append(vec)
        line_nos.append(line_no)
    if n is None:
        raise EmbeddingParseError("file has no header record", 1)
    if not index:
        raise EmbeddingParseError("file has no records after the header", line_no)
    rows = np.array(vecs)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise EmbeddingParseError("vector contains NaN or Inf", line_nos[bad[0]])
    return EmbeddingFile(modality=modality, index=index, rows=rows)


# ---------------------------------------------------------------------------
# key=value configs
# ---------------------------------------------------------------------------

def parse_key_values(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment, blanks skipped."""
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfigError(f"line {line_no}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise InvalidConfigError(f"line {line_no}: empty key or value in {raw!r}")
        if key in out:
            raise InvalidConfigError(f"line {line_no}: duplicate key {key!r}")
        out[key] = value
    return out


def build_train_setup(kv: dict[str, str]) -> tuple[SyntheticSpec, TrainConfig]:
    """Typed (SyntheticSpec, TrainConfig) from parsed key=value pairs.

    Each key is a field of either class, parsed by the type of its default;
    ``lambda`` sets ``lam``.  ``seed``, a field of both, drives data
    generation and training.  ``noise_sigma`` accepts a single float or a
    comma-separated list (one value per modality).  Raises
    ``InvalidConfigError`` where ``train.check_splits`` does, so a config
    that cannot train is refused before any data is made.
    """
    from .synth import SyntheticSpec  # training modules load on first use
    from .train import TrainConfig, check_splits

    spec_kwargs: dict = {}
    train_kwargs: dict = {}
    targets = {}  # config key -> (kwargs, field name, parser)
    for cls, kwargs in ((SyntheticSpec, spec_kwargs), (TrainConfig, train_kwargs)):
        for f in fields(cls):
            key = "lambda" if f.name == "lam" else f.name
            targets[key] = (kwargs, f.name, type(f.default))
    for key, value in kv.items():
        if key not in targets:
            raise InvalidConfigError(f"unknown config key {key!r}")
        kwargs, name, parse = targets[key]
        try:
            if key == "noise_sigma":
                parts = [float(p) for p in value.split(",")]
                kwargs[name] = parts[0] if len(parts) == 1 else tuple(parts)
            else:
                kwargs[name] = parse(value)
        except ValueError as exc:
            raise InvalidConfigError(f"bad value for {key!r}: {value!r}") from exc
    if "seed" in train_kwargs:
        spec_kwargs["seed"] = train_kwargs["seed"]
    spec, config = SyntheticSpec(**spec_kwargs), TrainConfig(**train_kwargs)
    check_splits(config, spec.samples, spec.modalities)
    return spec, config


def read_key_values(path: str | Path) -> dict[str, str]:
    """``parse_key_values`` on the file at ``path``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidConfigError(f"{path}: invalid UTF-8: {exc.reason}") from None
    except OSError as exc:
        raise InvalidConfigError(f"{path}: {exc.strerror or exc}") from None
    return parse_key_values(text)


# ---------------------------------------------------------------------------
# Training traces
# ---------------------------------------------------------------------------

def trace_to_csv(trace: TrainingTrace) -> str:
    from .train import TraceRow

    lines = [",".join(f.name for f in fields(TraceRow))]
    lines += [",".join(map(repr, astuple(row))) for row in trace.rows]
    return "\n".join(lines) + "\n"


def write_trace_csv(path: str | Path, trace: TrainingTrace) -> None:
    _atomic_write_text(path, trace_to_csv(trace))


# ---------------------------------------------------------------------------
# Checkpoints: flat little-endian float64 binary + JSON shape sidecar
# ---------------------------------------------------------------------------

def write_checkpoint(
    bin_path: str | Path,
    json_path: str | Path,
    params: dict[str, np.ndarray],
) -> None:
    blobs = []
    tensors = []
    for name, arr in params.items():
        arr = np.asarray(arr, dtype="<f8")
        blobs.append(arr.tobytes(order="C"))
        tensors.append({"name": name, "shape": list(arr.shape)})
    sidecar = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "dtype": "<f8",
        "tensors": tensors,
    }
    _atomic_write_bytes(bin_path, b"".join(blobs))
    _atomic_write_text(json_path, json.dumps(sidecar, indent=2) + "\n")
