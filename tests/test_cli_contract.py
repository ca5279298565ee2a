"""Property tests of the CLI contract on mutated inputs.

A valid three-file set is mutated one way per example (a truncated line,
a field of another JSON type, a dropped or repeated key, non-UTF-8 bytes,
another header) and, independently, given ids that need CSV quoting.
Every command then runs in-process.  Whatever the input, a command exits
0, 2, 3, 4 or 5; a failure prints exactly one stderr line starting
``error:``; and no exception other than ``SystemExit`` escapes.

A small valid train config likewise has some keys given an out-of-range
value, a wrong type or a non-finite float, dropped or repeated, plus
unknown keys; ``train`` then exits 0, 5 or 6 under the same rules.
"""

from __future__ import annotations

import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gramvol.cli import main

N_DIM = 3
MODALITIES = ("m0", "m1", "m2")
PLAIN_IDS = ["s0", "s1", "s2", "s3"]
QUOTED_IDS = ["a,b", 'q"x', " lead", "", "new\nline", "cr\rx", "é"]

JSON_VALUES = [None, True, 0, 2, 1.5, -1e400, "x", "3", [], {}, [1, "a"], [[1.0]], [1.0] * 5]
HEADERS = [
    {"format_version": 2, "n": N_DIM}, {"n": N_DIM}, {"format_version": 1},
    {"format_version": 1, "n": 0}, {"format_version": 1, "n": -2},
    {"format_version": 1, "n": N_DIM - 1}, {"format_version": 1, "n": N_DIM + 1},
    {"format_version": 1, "n": float(N_DIM)}, {"format_version": 1, "n": str(N_DIM)},
    {"format_version": 1, "n": N_DIM, "extra": [1]}, [1, 2], "header", None,
]


def valid_lines(ids: list[str], seed: int) -> list[list[str]]:
    """One list of JSON lines per modality file."""
    rng = np.random.default_rng(seed)
    files = []
    for name in MODALITIES:
        lines = [json.dumps({"format_version": 1, "n": N_DIM})]
        for rec_id in ids:
            vec = rng.standard_normal(N_DIM).tolist()
            lines.append(json.dumps({"id": rec_id, "modality": name, "vec": vec}))
        files.append(lines)
    return files


@st.composite
def mutated_files(draw) -> list[bytes]:
    ids = draw(st.sampled_from([PLAIN_IDS, QUOTED_IDS]))
    files = valid_lines(ids, draw(st.integers(0, 3)))
    which = draw(st.integers(0, len(files) - 1))
    lines = files[which]
    row = draw(st.integers(1, len(lines) - 1))
    record = json.loads(lines[row])
    kind = draw(st.sampled_from([
        "none", "truncate", "retype", "drop_key", "repeat_key", "non_utf8",
        "header", "repeat_line", "delete_line",
    ]))
    raw: list[bytes] = [ln.encode("utf-8") for ln in lines]
    if kind == "truncate":
        at = draw(st.integers(0, len(lines[row]) - 1))
        raw[row] = raw[row][:at]
    elif kind == "retype":
        key = draw(st.sampled_from(["id", "modality", "vec"]))
        record[key] = draw(st.sampled_from(JSON_VALUES))
        raw[row] = json.dumps(record).encode("utf-8")
    elif kind == "drop_key":
        del record[draw(st.sampled_from(sorted(record)))]
        raw[row] = json.dumps(record).encode("utf-8")
    elif kind == "repeat_key":
        key = draw(st.sampled_from(sorted(record)))
        value = draw(st.sampled_from(JSON_VALUES))
        raw[row] = (raw[row][:-1] + f", {json.dumps(key)}: {json.dumps(value)}}}".encode())
    elif kind == "non_utf8":
        at = draw(st.integers(0, len(raw[row])))
        raw[row] = raw[row][:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) \
            + raw[row][at:]
    elif kind == "header":
        raw[0] = json.dumps(draw(st.sampled_from(HEADERS))).encode("utf-8")
    elif kind == "repeat_line":
        raw.insert(row, raw[row])
    elif kind == "delete_line":
        del raw[row]
    out = [b"\n".join(ln.encode("utf-8") for ln in lns) + b"\n" for lns in files]
    out[which] = b"\n".join(raw) + b"\n"
    return out


COMMANDS = {
    "volume": lambda paths, out: ["volume", *paths],
    "simmat": lambda paths, out: ["--out", out, "simmat", *paths, "--anchor", "m0"],
    "eval": lambda paths, out: ["eval", *paths, "--anchor", "m1"],
    "metric": lambda paths, out: ["--out", out, "metric", *paths],
}


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(contents=mutated_files())
def test_every_command_keeps_the_exit_contract(contents):
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, data in zip(MODALITIES, contents):
            path = Path(tmp) / f"{name}.jsonl"
            path.write_bytes(data)
            paths.append(str(path))
        for command, args in COMMANDS.items():
            out = str(Path(tmp) / f"{command}.out")
            result = runner.invoke(main, args(paths, out))
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                command, result.exception)
            assert result.exit_code in (0, 2, 3, 4, 5), (command, result.stderr)
            if result.exit_code:
                assert result.stderr.count("\n") == 1, (command, result.stderr)
                assert result.stderr.startswith("error: "), (command, result.stderr)
            elif command == "volume":
                rows = list(csv.reader(io.StringIO(result.stdout, newline=""), delimiter="\t"))
                assert rows[0] == ["id", "k", "volume"]
                assert all(len(r) == 3 for r in rows)
            elif command == "simmat":
                text = Path(out).read_bytes().decode("utf-8")
                rows = list(csv.reader(io.StringIO(text, newline="")))
                ids = rows[0][1:]
                assert [r[0] for r in rows[1:]] == ids
                assert all(len(r) == len(ids) + 1 for r in rows)


NOT_INT = ["x", "1.5", "nan", "inf", "1,2", "[1]", "true", "0x10"]
NOT_FINITE = ["x", "nan", "inf", "-inf", "1e400", "1,2", "[1]", "true", "0x10"]


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False).map(repr)


# Every config key: a small valid value, a strategy for others, and values
# that must exit 5 (out of range, of another type, not finite).
TRAIN_KEYS = {
    "latent_dim": ("3", _ints(3, 4), ["0", "-1", "40", *NOT_INT]),
    "embed_dim": ("8", _ints(4, 12), ["0", "-3", "1", *NOT_INT]),
    "modalities": ("3", _ints(2, 3), ["1", "0", *NOT_INT]),
    "num_classes": ("2", _ints(2, 3), ["1", "-2", *NOT_INT]),
    "noise_sigma": ("0.05", _floats(0.0, 0.2),
                    ["-0.1", "0.1,0.1,0.1,0.1", "0.1,nan,0.1", "0.1,0.1,inf", "1e308",
                     *NOT_FINITE]),
    # 1 and 2 samples leave fewer than 2 to train on, 3 fewer than 2 to hold
    # out; from 16 on, every holdout_fraction drawn leaves at least 2 of each.
    "samples": ("24", _ints(16, 128), ["0", "-5", "1", "2", "3", *NOT_INT]),
    "paired_dims": ("0", _ints(0, 1), ["-1", "50", *NOT_INT]),
    "batch_size": ("8", _ints(2, 64), ["1", "0", "-2", *NOT_INT]),
    "epochs": ("0", _ints(0, 1), ["-1", *NOT_INT]),
    "lr": ("0.01", _floats(0.0, 0.05), ["-0.1", *NOT_FINITE]),
    "lambda": ("0.1", _floats(0.0, 1.0), ["-0.5", *NOT_FINITE]),
    "tau_init": ("1.0", _floats(0.01, 2.0), ["1e-300", "0", "11", "-1", *NOT_FINITE]),
    "seed": ("0", _ints(0, 9), ["-1", *NOT_INT]),
    "loss": ("gram", st.sampled_from(["gram", "cosine"]), ["volume", "GRAM", "1"]),
    "eval_max_samples": ("8", _ints(2, 64), ["0", "1", *NOT_INT]),
    "holdout_fraction": ("0.2", _floats(0.1, 0.5), ["0", "1", "1.5", *NOT_FINITE]),
}
# Field names that are not keys, a removed key, and keys that never were.
UNKNOWN_KEYS = ["lam", "spec.seed", "data_seed", "hidden", "encoders", "learning_rate"]


def run_train(tmp, config: str):
    path = Path(tmp) / "train.cfg"
    path.write_text(config)
    out = Path(tmp) / "run"
    result = CliRunner().invoke(main, ["--out", str(out), "train", str(path)])
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        config, result.exception)
    if result.exit_code:
        assert result.stderr.count("\n") == 1, (config, result.stderr)
        assert result.stderr.startswith("error: "), (config, result.stderr)
    else:
        assert (out / "trace.csv").exists() and (out / "checkpoint.bin").exists()
    return result


def test_train_keys_are_the_dataclass_fields():
    from dataclasses import fields

    from gramvol import SyntheticSpec, TrainConfig

    names = {f.name for f in fields(SyntheticSpec)} | {f.name for f in fields(TrainConfig)}
    assert set(TRAIN_KEYS) - {"lambda"} == names - {"lam"}


def test_every_bad_value_exits_5(tmp_path):
    base = {key: value for key, (value, _, _) in TRAIN_KEYS.items()}
    assert run_train(tmp_path, "".join(f"{k} = {v}\n" for k, v in base.items())).exit_code == 0
    cases = [(key, bad) for key, (_, _, bads) in TRAIN_KEYS.items() for bad in bads]
    # An integer, so that data_seed fails for being unknown, not for its value.
    cases += [(key, "1") for key in UNKNOWN_KEYS]
    for key, bad in cases:
        config = "".join(f"{k} = {v}\n" for k, v in {**base, key: bad}.items())
        assert run_train(tmp_path, config).exit_code == 5, (key, bad)


@st.composite
def train_configs(draw) -> str:
    lines = {key: [draw(valid)] for key, (_, valid, _) in TRAIN_KEYS.items()}
    if draw(st.booleans()):  # one noise level per modality
        m = int(lines["modalities"][0])
        lines["noise_sigma"] = [",".join(draw(st.lists(_floats(0.0, 0.2), min_size=m,
                                                       max_size=m)))]
    for key in draw(st.lists(st.sampled_from(sorted(TRAIN_KEYS)), max_size=2, unique=True)):
        kind = draw(st.sampled_from(["bad", "missing", "duplicate"]))
        if kind == "bad":
            lines[key] = [draw(st.sampled_from(TRAIN_KEYS[key][2]))]
        else:
            lines[key] = [] if kind == "missing" else lines[key] * 2
    if draw(st.integers(0, 3)) == 3:
        lines[draw(st.sampled_from(UNKNOWN_KEYS))] = ["0.1"]
    body = [f"{key} = {value}" for key, values in lines.items() for value in values]
    # Missing keys fall back to the defaults, which are too large to run here.
    for key in ("samples", "embed_dim", "epochs"):
        if not lines[key]:
            body.append(f"{key} = {TRAIN_KEYS[key][0]}")
    order = draw(st.permutations(range(len(body))))
    return "\n".join(body[i] for i in order) + "\n"


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=train_configs())
def test_train_keeps_the_exit_contract(config):
    with tempfile.TemporaryDirectory() as tmp:
        assert run_train(tmp, config).exit_code in (0, 5, 6)
