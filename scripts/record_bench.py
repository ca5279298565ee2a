#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as ``BENCH_<label>.json``.

Run from the repository root:

    python3 scripts/record_bench.py --label LABEL

Runs the unchanged ``perfbench/run.py`` on every workload that
``BENCHMARK.json`` declares, at fixed seeds: one ``--trace 0`` run per
seed for the end-to-end metrics, then one ``--trace 1`` run per seed for
the per-layer metrics.  The file holds the environment (with numpy's
bundled OpenBLAS kernel and configuration, read in this process), the
git revision, and each metric's median over the seeds with the per-seed
values.  Each run takes the benchmark's ``run_seconds`` plus set-up,
about 3 x 6 x 37 s in all.
"""

from __future__ import annotations

import argparse
import ctypes
import datetime
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = (1, 2, 3)


def git(*args: str) -> str | None:
    try:
        res = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def openblas_info() -> dict:
    """The kernel and configuration string of numpy's bundled OpenBLAS, each
    None where numpy ships no OpenBLAS that reports it."""
    sys.path.insert(0, str(ROOT / "src"))
    from gramvol.volume import openblas_libraries

    info = {"blas_core": None, "blas_config": None}
    for lib in openblas_libraries():
        for key, what in (("blas_core", "corename"), ("blas_config", "config")):
            for name in (f"scipy_openblas_get_{what}64_", f"openblas_get_{what}64_",
                         f"openblas_get_{what}"):
                if info[key] is None and hasattr(lib, name):
                    fn = getattr(lib, name)
                    fn.argtypes, fn.restype = [], ctypes.c_char_p
                    info[key] = fn().decode().strip()
    return info


def summarize(declared: list[dict], runs: list[dict]) -> dict:
    """Each declared metric's unit, direction, median over ``runs`` (the
    runs that report it) and per-run values."""
    out = {}
    for metric in declared:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        present = [v for v in values if v is not None]
        out[metric["name"]] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "median": statistics.median(present) if present else None,
            "runs": values,
        }
    return out


def run_bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(result JSON, environment) of one ``perfbench/run.py`` run."""
    args = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    print("#", " ".join(args[1:]), file=sys.stderr, flush=True)
    res = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(args[1:])} exited {res.returncode}: "
                         f"{res.stderr.strip()[-300:]}")
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), {})
    return json.loads(lines[-1]), env


def record(label: str) -> dict:
    out = {
        "label": label,
        "git_revision": git("rev-parse", "HEAD"),
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "seeds": list(SEEDS),
        "seconds": BENCH["run_seconds"],
        "environment": {"platform": platform.platform(), "machine": platform.machine(),
                        **openblas_info()},
        "workloads": {},
    }
    for workload in (w["name"] for w in BENCH["workloads"]):
        runs = []
        for seed in SEEDS:
            result, env = run_bench(workload, seed, trace=0)
            out["environment"].update(
                {k: v for k, v in env.items() if not k.startswith(("loadavg", "git"))})
            runs.append(result)
        traced = [run_bench(workload, seed, trace=1)[0] for seed in SEEDS]
        out["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs + traced),
            "failed_steps": sum(r["failed"] for r in runs + traced),
            "attempted_steps": sum(r["attempted"] for r in runs + traced),
            "end_to_end": summarize(BENCH["end_to_end"], runs),
            "per_layer": summarize(BENCH["per_layer"], traced),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    args = parser.parse_args(argv)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record(args.label), indent=1) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
