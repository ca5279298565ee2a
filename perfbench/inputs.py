"""Benchmark inputs and the independent oracles its output checks use.

Nothing here imports gramvol: the embedding files are written with the
benchmark's own JSON writer, and volumes and recalls are recomputed with
plain numpy, so a change to the library's format or volume code can
neither change the inputs nor pass its own checks.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: Modality names of the embedding files; the first one is the anchor.
MODALITIES = ("text", "video", "audio", "depth", "touch", "smell")
#: Id prefix of the duplicated tuples appended to the exported embeddings.
DUP_PREFIX = "dup"


def write_jsonl(path: Path, ids, modality: str, rows: np.ndarray) -> int:
    """Write one modality as an embedding file; returns the bytes written.

    Same layout as the documented format (header record, then one record
    per id); floats go through ``repr``, which round-trips doubles exactly.
    """
    lines = [json.dumps({"format_version": 1, "n": int(rows.shape[1])})]
    for rec_id, row in zip(ids, rows):
        vec = ", ".join(repr(float(x)) for x in row)
        lines.append(
            f'{{"id": {json.dumps(str(rec_id))}, '
            f'"modality": {json.dumps(modality)}, "vec": [{vec}]}}'
        )
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(data)
    return len(data)


def modality_paths(out_dir: Path, k: int) -> list[Path]:
    return [out_dir / f"{name}.jsonl" for name in MODALITIES[:k]]


def write_views(out_dir: Path, ids, views) -> list[Path]:
    """One embedding file per view, anchor first; returns the paths."""
    paths = modality_paths(out_dir, len(views))
    for name, path, rows in zip(MODALITIES, paths, views):
        write_jsonl(path, ids, name, rows)
    return paths


def planted_views(seed: int, n_ids: int, dim: int, k: int, sigma: float, n_dups: int):
    """(ids, k raw views, duplicate row indices) with a planted alignment.

    Every id draws a latent vector; each modality sees it plus its own
    Gaussian noise of scale ``sigma``, so matched tuples are close but not
    collinear.  For ``n_dups`` ids (never row 0) every data modality repeats
    the anchor vector exactly: those tuples have volume exactly 0, which
    exercises the rank-deficient branch.  Rows are left unnormalized so the
    CLI's normalize-on-load path runs.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_ids, dim))
    views = z[None, :, :] + sigma * rng.standard_normal((k, n_ids, dim))
    dups = np.sort(rng.choice(np.arange(1, n_ids), size=n_dups, replace=False))
    views[1:, dups] = views[0, dups]
    ids = [f"s{i:05d}" for i in range(n_ids)]
    return ids, list(views), dups


def unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def oracle_volume(rows: np.ndarray) -> float:
    """Parallelotope volume as |det R| from a QR factorization of the rows.

    Independent of the library's pivoted-Cholesky Gram determinant, and
    accurate for small volumes, where a square root of det(G) is not.
    """
    k, n = rows.shape
    if k > n:
        return 0.0
    r = np.linalg.qr(rows.T, mode="r")
    return float(abs(np.prod(np.diag(r))))


def diagonal_ranks(values: np.ndarray) -> np.ndarray:
    """1-based rank of each row's diagonal entry, smaller values first.

    The documented tie rule: a candidate with a smaller value ranks ahead,
    and so does a lower-index candidate with an equal value.
    """
    n = values.shape[0]
    ranks = np.empty(n, dtype=np.int64)
    for i in range(n):
        row, d = values[i], values[i, i]
        ranks[i] = 1 + int(np.sum(row < d)) + int(np.sum(row[:i] == d))
    return ranks


def recalls_from_matrix(values: np.ndarray, ks) -> dict[int, float]:
    ranks = diagonal_ranks(values)
    return {int(k): float(np.mean(ranks <= k)) for k in ks}


def read_matrix_csv(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """(row ids, column ids, values) of a ``simmat`` CSV."""
    lines = path.read_text(encoding="utf-8").splitlines()
    col_ids = lines[0].split(",")[1:]
    row_ids, rows = [], []
    for line in lines[1:]:
        cells = line.split(",")
        row_ids.append(cells[0])
        rows.append([float(c) for c in cells[1:]])
    return row_ids, col_ids, np.array(rows, dtype=np.float64)


def check_simmat(values: np.ndarray, views, dups, sample: int, seed: int) -> list[str]:
    """Problems found in a cross-volume matrix against the numpy oracle.

    ``values[i, j]`` must be Vol(anchor_j, data_i...).  Checked: the whole
    diagonal, ``sample`` seeded off-diagonal entries, and exact zeros on
    the rows of duplicated tuples.
    """
    n = len(views[0])
    if values.shape != (n, n):
        return [f"matrix shape {values.shape}, expected {(n, n)}"]
    unit_views = [unit(v) for v in views]
    problems = []
    dup_set = set(int(d) for d in dups)
    nonzero = [d for d in sorted(dup_set) if np.any(values[d] != 0.0)]
    if nonzero:
        problems.append(f"rows of duplicated tuples {nonzero} are not exactly 0")
    rng = np.random.default_rng(seed)
    pairs = [(i, i) for i in range(n)]
    pairs += [(int(a), int(b)) for a, b in rng.integers(0, n, size=(sample, 2)) if a != b]
    bad, worst = 0, (0.0, None)
    for i, j in pairs:
        if i in dup_set:
            continue
        rows = np.stack([unit_views[0][j]] + [v[i] for v in unit_views[1:]])
        err = abs(values[i, j] - oracle_volume(rows))
        if not err <= 1e-9:
            bad += 1
            worst = max(worst, (err, (i, j)), key=lambda w: w[0])
    if bad:
        problems.append(f"{bad} of {len(pairs)} checked entries differ from the oracle "
                        f"by more than 1e-9, worst {worst[0]:.3g} at {worst[1]}")
    return problems
