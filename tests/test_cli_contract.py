"""Property test of the CLI contract on mutated embedding files.

A valid three-file set is mutated one way per example (a truncated line,
a field of another JSON type, a dropped or repeated key, non-UTF-8 bytes,
another header) and, independently, given ids that need CSV quoting.
Every command then runs in-process.  Whatever the input, a command exits
0, 2, 3, 4 or 5; a failure prints exactly one stderr line starting
``error:``; and no exception other than ``SystemExit`` escapes.
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
@given(contents=mutated_files(), normalize=st.booleans())
def test_every_command_keeps_the_exit_contract(contents, normalize):
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, data in zip(MODALITIES, contents):
            path = Path(tmp) / f"{name}.jsonl"
            path.write_bytes(data)
            paths.append(str(path))
        flags = [] if normalize else ["--no-normalize"]
        for command, args in COMMANDS.items():
            out = str(Path(tmp) / f"{command}.out")
            result = runner.invoke(main, [*flags, *args(paths, out)])
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                command, result.exception)
            assert result.exit_code in (0, 2, 3, 4, 5), (command, result.stderr)
            if result.exit_code:
                assert result.stderr.count("\n") == 1, (command, result.stderr)
                assert result.stderr.startswith("error: "), (command, result.stderr)
            elif command == "simmat":
                text = Path(out).read_bytes().decode("utf-8")
                rows = list(csv.reader(io.StringIO(text, newline="")))
                ids = rows[0][1:]
                assert [r[0] for r in rows[1:]] == ids
                assert all(len(r) == len(ids) + 1 for r in rows)
