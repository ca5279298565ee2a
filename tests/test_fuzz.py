"""Mutation fuzz of the CLI's inputs: embedding files and train configs.

Each case mutates a valid input with a seeded ``random.Random``, runs one
command in-process through click's ``CliRunner`` with ``RuntimeWarning``
raised as an error, and checks the CLI contract: an exit code from the
command's documented set, exactly one ``error:`` line on stderr when it
fails, and no exception other than ``SystemExit``.  The case counts are
fixed, so the suite does the same work on every run (a few seconds).
"""

from __future__ import annotations

import random
import re
import traceback
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import gramvol.cli as cli_mod
from gramvol.formats import write_embeddings

#: Exit codes a scoring command may give on any file (cli.py's list):
#: success, a data error, a missing id, an unknown anchor.
SCORING_EXITS = {0, 2, 3, 4}
#: ... and ``train`` on any config: success, a config error, divergence.
TRAIN_EXITS = {0, 5, 6}

MODALITIES = ("a", "b", "c")
IDS = [f"p{i}" for i in range(6)]

#: What a token of a JSON line may become: edge numbers, two numbers (a
#: vector of another length), other JSON types, other ids and modality
#: names, and broken syntax.
EDGE_TOKENS = [
    "0", "-1", "2", "5", "-0.0", "1e-320", "3e200", "1e308", "1e400", "-1e400",
    "NaN", "Infinity", "-Infinity", "99999999999999999999", "true", "null",
    "[]", "{}", "[1, 0, 0]", '"x"', '""', '"a"', '"b"', '"p1"', '"\\u0000"',
    "0, 0", "", ",", "{", "]", ":",
]
_TOKEN = re.compile(r'-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|"(?:[^"\\]|\\.)*"|[{}\[\],:]')

#: A train config small enough that any accepted mutation of it trains in
#: milliseconds.
BASE_CONFIG = {
    "latent_dim": "4", "embed_dim": "8", "modalities": "2", "num_classes": "2",
    "noise_sigma": "0.05", "samples": "24", "batch_size": "8", "epochs": "1",
    "eval_max_samples": "8", "seed": "0",
}
CONFIG_KEYS = [
    *BASE_CONFIG, "paired_dims", "lr", "lambda", "tau_init", "loss",
    "holdout_fraction",
]
#: Config values: zero, negatives, non-numbers, non-finite values and sizes
#: past the run bound.  No value makes an accepted run long: ``epochs``
#: never takes a large one, ``samples`` and ``epochs`` are never dropped
#: for their defaults, and every size past the bound is refused.
EDGE_VALUES = [
    "0", "-1", "1", "2", "0.5", "x", "nan", "inf", "-inf", "1e400", "1e300",
    "1e-320", "99999999999999999999", "-99999999999999999999", "cosine", "gram",
    "0.03,0.5", "1,2,3",
]


def _invoke(args):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return CliRunner().invoke(cli_mod.main, [str(a) for a in args])


def _check(result, allowed, case):
    where = f"{case}\n{result.stderr}"
    if result.exc_info is not None and not isinstance(result.exception, SystemExit):
        where += "".join(traceback.format_exception(*result.exc_info))
    assert result.exception is None or isinstance(result.exception, SystemExit), where
    assert result.exit_code in allowed, where
    if result.exit_code:
        assert result.stderr.startswith("error: "), where
        assert result.stderr.count("\n") == 1, where


def _mutate_file(r: random.Random, text: str) -> bytes:
    """One to three edits of a JSON-lines file: a token replaced, a line
    dropped or repeated, the modality renamed, a vector's last element
    dropped or repeated, or a character inserted or deleted (raw bytes, so
    the result may not be UTF-8)."""
    lines = text.splitlines()
    raw = None
    for _ in range(r.randint(1, 3)):
        i = r.randrange(len(lines))
        kind = r.randrange(7)
        if kind == 0:
            tokens = list(_TOKEN.finditer(lines[i]))
            if tokens:
                m = r.choice(tokens)
                lines[i] = lines[i][:m.start()] + r.choice(EDGE_TOKENS) + lines[i][m.end():]
        elif kind == 1 and len(lines) > 1:
            del lines[i]
        elif kind == 2:
            lines.insert(r.randrange(len(lines) + 1), lines[i])
        elif kind == 3:
            lines = [re.sub(r'"modality": "\w*"', f'"modality": "{r.choice("abz")}"', ln)
                     for ln in lines]
        elif kind == 4 and lines[i]:
            j = r.randrange(len(lines[i]))
            lines[i] = lines[i][:j] + lines[i][j + 1:]
        elif kind == 5:
            # A vector of another length, which token edits seldom make.
            last = r.choice([0, 2])
            lines[i] = re.sub(r"(, [^,\[\]]+)\]", lambda m: m.group(1) * last + "]", lines[i])
        else:
            raw = r.choice([b"\xff", b"\r", b"\x00", b"\t", b"\\", b"\xc3"])
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if raw is not None:
        j = r.randrange(len(data) + 1)
        data = data[:j] + raw + data[j:]
    return data


@pytest.fixture(scope="module")
def base_records():
    """Each modality's valid records: unit rows of dimension 3."""
    rng = np.random.default_rng(5)
    records = {}
    for name in MODALITIES:
        rows = rng.standard_normal((len(IDS), 3))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        records[name] = [(i, name, row) for i, row in zip(IDS, rows)]
    return records


@pytest.mark.parametrize("seed", range(4))
def test_mutated_embedding_files(tmp_path, base_records, seed):
    paths = []
    for name, records in base_records.items():
        write_embeddings(tmp_path / f"{name}.jsonl", 3, records)
        paths.append(tmp_path / f"{name}.jsonl")
    valid = {p: p.read_text(encoding="utf-8") for p in paths}
    r = random.Random(seed)
    for case in range(500):
        target = r.choice(paths)
        mutated = _mutate_file(r, valid[target])
        target.write_bytes(mutated)
        command = r.choice([
            ["volume", *paths],
            ["--out", tmp_path / "simmat.csv", "simmat", "--anchor", "a", *paths],
            ["eval", "--anchor", r.choice(["a", "c"]), *paths],
            ["metric", *paths],
        ])
        _check(_invoke(command), SCORING_EXITS,
               f"case {seed}/{case}: {command[0]} on {target.name}:\n{mutated!r}")
        target.write_text(valid[target], encoding="utf-8")


def _mutate_config(r: random.Random) -> bytes:
    """One or two edits of ``BASE_CONFIG``, mostly a key set to an edge
    value; else a key dropped or repeated, an unknown key, a line without
    ``=``, or a byte that is not UTF-8."""
    lines = [f"{k} = {v}" for k, v in BASE_CONFIG.items()]
    for _ in range(r.randint(1, 2)):
        kind = r.randrange(10)
        if kind < 6:
            key = r.choice(CONFIG_KEYS)
            values = [v for v in EDGE_VALUES
                      if key != "epochs" or v in ("0", "-1", "1", "2", "x", "0.5")]
            lines = [ln for ln in lines if not ln.startswith(f"{key} ")]
            lines.append(f"{key} = {r.choice(values)}")
        elif kind == 6:
            # Not samples or epochs, whose defaults would train for longer.
            i = r.randrange(len(lines))
            if not lines[i].startswith(("samples ", "epochs ")):
                del lines[i]
        elif kind == 7:
            lines.append(r.choice(lines))
        elif kind == 8:
            lines.append(r.choice(["unknown = 1", "samples", "= 3", "seed ="]))
        else:
            lines.insert(r.randrange(len(lines) + 1), "\udcff")
    return "\n".join(lines).encode("utf-8", "surrogateescape") + b"\n"


@pytest.mark.parametrize("seed", range(4))
def test_mutated_train_configs(tmp_path, seed):
    r = random.Random(100 + seed)
    cfg = tmp_path / "train.cfg"
    for case in range(150):
        mutated = _mutate_config(r)
        cfg.write_bytes(mutated)
        _check(_invoke(["--out", tmp_path / f"run{case}", "train", cfg]), TRAIN_EXITS,
               f"case {seed}/{case}:\n{mutated.decode('utf-8', 'replace')}")
