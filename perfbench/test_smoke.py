"""Smoke test of the benchmark at a tiny size (16 ids, 1 epoch).

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_benchmark_json_matches_the_script():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"].strip() and "\n" not in w["why"] and len(w["why"]) <= 200
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in BENCH["end_to_end"]
    ] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _, _) in run.PER_LAYER.items()
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = _run(["--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke"])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0 and result["attempted"] >= 4
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), (m["name"], got)


def test_missing_wrapped_name_is_reported_as_null(monkeypatch, capsys):
    gone = ("gramvol.train", "no_such_function", "losses.loss_report", None)
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (gone,))
    assert run.main(["--workload", "train-gram", "--seed", "3", "--seconds", "1",
                     "--trace", "1", "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    for name in ("losses.loss_report_ms", "losses.batches", "losses.degenerate_ratio"):
        assert result["metrics"][name]["value"] is None
        assert "no_such_function" in result["metrics"][name]["reason"]
    assert result["metrics"]["optim.steps"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(["--workload", "cli-files", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
