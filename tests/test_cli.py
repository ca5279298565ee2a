"""CLI commands end to end, through real files and exit codes."""

import contextlib
import csv
import gc
import importlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import gramvol as gv
from gramvol.formats import write_embeddings
from gramvol.metrics import alignment_metric

from conftest import assert_same_at_1_and_2_threads, unit_rows


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "gramvol", *map(str, args)],
        capture_output=True, text=True, cwd=cwd,
    )


def write_modality(path, name, ids, rows):
    write_embeddings(path, rows.shape[1], [(i, name, r) for i, r in zip(ids, rows)])


@pytest.fixture
def orthogonal_pair_files(tmp_path):
    e = np.eye(2)
    write_modality(tmp_path / "a.jsonl", "anchor", ["x", "y"], e)
    write_modality(tmp_path / "m.jsonl", "data", ["x", "y"], e)
    return tmp_path


class TestVolumeCommand:
    def test_orthogonal_pair(self, tmp_path):
        write_modality(tmp_path / "a.jsonl", "a", ["p"], np.array([[1.0, 0.0]]))
        write_modality(tmp_path / "b.jsonl", "b", ["p"], np.array([[0.0, 1.0]]))
        res = run_cli("volume", tmp_path / "a.jsonl", tmp_path / "b.jsonl")
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0].split("\t") == ["id", "k", "volume"]
        assert lines[1].split("\t") == ["p", "2", "1"]

    def test_identical_vectors_three_files(self, tmp_path, rng):
        v = unit_rows(rng, 1, 4)
        for name in ("a", "b", "c"):
            write_modality(tmp_path / f"{name}.jsonl", name, ["p"], v)
        res = run_cli("volume", *(tmp_path / f"{n}.jsonl" for n in ("a", "b", "c")))
        assert res.returncode == 0
        assert res.stdout.strip().split("\n")[1].split("\t")[2] == "0"

    def test_pairwise_half_triple(self, tmp_path):
        g = np.full((3, 3), 0.5)
        np.fill_diagonal(g, 1.0)
        rows = np.linalg.cholesky(g)
        for i, name in enumerate(("a", "b", "c")):
            write_modality(tmp_path / f"{name}.jsonl", name, ["p"], rows[None, i])
        res = run_cli("volume", *(tmp_path / f"{n}.jsonl" for n in ("a", "b", "c")))
        vol = float(res.stdout.strip().split("\n")[1].split("\t")[2])
        assert vol == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_unnormalized_input_normalized_by_default(self, tmp_path):
        write_modality(tmp_path / "a.jsonl", "a", ["p"], np.array([[3.0, 0.0]]))
        write_modality(tmp_path / "b.jsonl", "b", ["p"], np.array([[0.0, 4.0]]))
        res = run_cli("volume", tmp_path / "a.jsonl", tmp_path / "b.jsonl")
        assert float(res.stdout.strip().split("\n")[1].split("\t")[2]) == pytest.approx(1.0)

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format_version": 1, "n": 2}\nnonsense\n')
        write_modality(tmp_path / "b.jsonl", "b", ["p"], np.array([[0.0, 1.0]]))
        res = run_cli("volume", bad, tmp_path / "b.jsonl")
        assert res.returncode == 2
        assert ":2:" in res.stderr  # line number in the diagnostic
        assert res.stdout == ""

    def test_missing_id_exit_3(self, tmp_path):
        write_modality(tmp_path / "a.jsonl", "a", ["p", "q"], np.eye(2))
        write_modality(tmp_path / "b.jsonl", "b", ["p"], np.array([[0.0, 1.0]]))
        res = run_cli("volume", tmp_path / "a.jsonl", tmp_path / "b.jsonl")
        assert res.returncode == 3

    def test_mixed_dimensions_exit_2(self, tmp_path):
        from click.testing import CliRunner

        from gramvol.cli import main

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_modality(a, "a", ["p"], np.array([[1.0, 0.0]]))
        write_modality(b, "b", ["p"], np.array([[0.0, 1.0, 0.0]]))
        result = CliRunner().invoke(main, ["volume", str(a), str(b)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: modality files have different dimensions: ")
        assert result.stderr.count("\n") == 1
        assert f"{str(a)!r}: 2" in result.stderr and f"{str(b)!r}: 3" in result.stderr
        assert result.stdout == ""

    def test_ids_quoted_as_tsv_needs(self, tmp_path):
        from click.testing import CliRunner

        from gramvol.cli import main

        ids = ["plain", "t\tab", "n\nl", "c\rr", 'q"x', "a,b"]
        rng = np.random.default_rng(0)
        write_modality(tmp_path / "a.jsonl", "a", ids, unit_rows(rng, 6, 3))
        write_modality(tmp_path / "b.jsonl", "b", ids, unit_rows(rng, 6, 3))
        out = tmp_path / "v.tsv"
        result = CliRunner().invoke(
            main, ["--out", str(out), "volume", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]
        )
        assert result.exit_code == 0, result.stderr
        text = out.read_bytes().decode("utf-8")
        rows = list(csv.reader(io.StringIO(text, newline=""), delimiter="\t"))
        assert rows[0] == ["id", "k", "volume"]
        assert [r[0] for r in rows[1:]] == ids
        assert all(len(r) == 3 and r[1] == "2" for r in rows[1:])
        # Ids that need no quoting print as they are.
        assert text.split("\n")[1].startswith("plain\t2\t")
        assert "\na,b\t2\t" in text


class TestSimmatCommand:
    def test_single_record(self, tmp_path, rng):
        write_modality(tmp_path / "a.jsonl", "a", ["p"], unit_rows(rng, 1, 4))
        write_modality(tmp_path / "b.jsonl", "b", ["p"], unit_rows(rng, 1, 4))
        out = tmp_path / "m.csv"
        res = run_cli("--out", out, "simmat", tmp_path / "a.jsonl", tmp_path / "b.jsonl",
                      "--anchor", "a")
        assert res.returncode == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["id", "p"]
        assert len(rows) == 2

    def test_orthogonal_pair_matrix(self, orthogonal_pair_files):
        out = orthogonal_pair_files / "m.csv"
        res = run_cli("--out", out, "simmat",
                      orthogonal_pair_files / "a.jsonl", orthogonal_pair_files / "m.jsonl",
                      "--anchor", "anchor")
        assert res.returncode == 0
        rows = list(csv.reader(out.open()))
        got = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
        np.testing.assert_array_equal(got, [[0.0, 1.0], [1.0, 0.0]])

    def test_round_trip_matches_in_process(self, tmp_path, rng):
        b, n = 6, 8
        ids = [f"s{i}" for i in range(b)]
        mats = [unit_rows(rng, b, n) for _ in range(3)]
        for m, name in zip(mats, ("txt", "vid", "aud")):
            write_modality(tmp_path / f"{name}.jsonl", name, ids, m)
        out = tmp_path / "m.csv"
        res = run_cli("--out", out, "simmat",
                      tmp_path / "txt.jsonl", tmp_path / "vid.jsonl", tmp_path / "aud.jsonl",
                      "--anchor", "txt")
        assert res.returncode == 0
        rows = list(csv.reader(out.open()))
        got = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
        batch = gv.MultimodalBatch(
            anchor=gv.ModalityBatch(rows=np.array([gv.normalize(v) for v in mats[0]])),
            datas=tuple(
                gv.ModalityBatch(rows=np.array([gv.normalize(v) for v in m]))
                for m in mats[1:]
            ),
        )
        expected = gv.cross_volume_matrix(batch).values
        assert np.abs(got - expected).max() < 1e-9

    @pytest.mark.parametrize("command", ["simmat", "eval"])
    def test_duplicate_modality_exit_2(self, tmp_path, rng, command):
        ids = ["a", "b", "c"]
        for fname, name in (("t1", "txt"), ("t2", "txt"), ("v", "vid")):
            write_modality(tmp_path / f"{fname}.jsonl", name, ids, unit_rows(rng, 3, 5))
        res = run_cli("--out", tmp_path / "out.csv", command,
                      *(tmp_path / f"{f}.jsonl" for f in ("t1", "t2", "v")),
                      "--anchor", "txt")
        assert res.returncode == 2
        assert "duplicate modality" in res.stderr
        assert not (tmp_path / "out.csv").exists()

    def test_unknown_anchor_exit_4(self, orthogonal_pair_files):
        res = run_cli("simmat", orthogonal_pair_files / "a.jsonl",
                      orthogonal_pair_files / "m.jsonl", "--anchor", "nope")
        assert res.returncode == 4


class TestTrainCommand:
    CONFIG = (
        "latent_dim = 6\nembed_dim = 16\nmodalities = 3\nnum_classes = 2\n"
        "noise_sigma = 0.05\nsamples = 96\nbatch_size = 16\nepochs = 2\n"
        "lr = 0.005\ntau_init = 1.0\neval_max_samples = 16\nseed = 4\n"
    )

    def test_writes_trace_and_checkpoint(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "run"
        res = run_cli("--out", out, "train", cfg)
        assert res.returncode == 0, res.stderr
        assert (out / "trace.csv").exists()
        assert (out / "checkpoint.bin").exists()
        assert (out / "checkpoint.json").exists()
        header = (out / "trace.csv").read_text().split("\n")[0]
        assert header == "epoch,l_d2a,l_a2d,l_dam,matched_vol,mismatched_vol,r_at_1"

    def test_checkpoint_layout(self, tmp_path):
        # One entry per modality's encoder array, then the matching head's,
        # then the temperature, in this order and at these shapes.
        cfg = tmp_path / "train.cfg"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "run"
        res = run_cli("--out", out, "train", cfg)
        assert res.returncode == 0, res.stderr
        sidecar = json.loads((out / "checkpoint.json").read_text())
        d, n, h = 6, 16, 128  # latent_dim, embed_dim, the encoders' hidden width
        expected = [(f"enc{i}.{name}", shape) for i in range(3) for name, shape in (
            ("w1", [d, h]), ("b1", [h]), ("w2", [h, n]), ("b2", [n]))]
        expected += [("head.w1", [3 * n, 4 * n]), ("head.b1", [4 * n]),
                     ("head.w2", [4 * n, 4 * n]), ("head.b2", [4 * n]),
                     ("head.w3", [4 * n]), ("head.b3", []), ("log_tau", [])]
        assert [(t["name"], t["shape"]) for t in sidecar["tensors"]] == expected
        values = sum(math.prod(shape) for _, shape in expected)
        assert (out / "checkpoint.bin").stat().st_size == 8 * values

    def test_zero_epochs_trace_has_only_epoch_zero(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(self.CONFIG.replace("epochs = 2", "epochs = 0"))
        out = tmp_path / "run"
        res = run_cli("--out", out, "train", cfg)
        assert res.returncode == 0, res.stderr
        lines = (out / "trace.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("0,")

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(self.CONFIG)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            res = run_cli("--out", out, "train", cfg)
            assert res.returncode == 0, res.stderr
            outs.append(out)
        for fname in ("trace.csv", "checkpoint.bin", "checkpoint.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    @staticmethod
    def train_at_1_and_2_threads(tmp_path, config):
        """``gramvol train`` writes the same trace and checkpoint bytes at 1
        and at 2 BLAS threads."""
        cfg = tmp_path / "train.cfg"
        cfg.write_text(config)
        assert_same_at_1_and_2_threads(
            lambda out: ["-m", "gramvol", "--out", out, "train", cfg],
            tmp_path=tmp_path, files=("trace.csv", "checkpoint.bin"))

    def test_byte_identical_across_blas_thread_counts(self, tmp_path):
        self.train_at_1_and_2_threads(tmp_path, (
            "latent_dim = 16\nembed_dim = 64\nmodalities = 3\nnum_classes = 4\n"
            "noise_sigma = 0.05\nsamples = 512\nbatch_size = 64\nepochs = 2\n"
            "seed = 3\neval_max_samples = 128\n"
        ))

    def test_cosine_byte_identical_across_blas_thread_counts(self, tmp_path):
        # At 128 x 128 the logit matrices pass OpenBLAS's 10,000-element
        # threading split of a single dot product, so a reduction that
        # went through one would change bits with the thread count.  Adam
        # absorbs many one-ulp gradient changes; at this seed, a flattened
        # np.vdot for the temperature gradient does change the outputs.
        self.train_at_1_and_2_threads(tmp_path, (
            "latent_dim = 16\nembed_dim = 64\nmodalities = 3\nnum_classes = 4\n"
            "noise_sigma = 0.05\nsamples = 512\nbatch_size = 128\nepochs = 2\n"
            "seed = 4\neval_max_samples = 128\nloss = cosine\n"
        ))

    @pytest.mark.parametrize("loss", ["gram", "cosine"])
    def test_byte_identical_across_blas_thread_counts_past_256(self, tmp_path, loss):
        # A batch of 300 sums the volume backward over K = 600 and the
        # head over K = 600, and 300 (or the 205 held-out samples) is a
        # row count and a width that the kernels' 8-wide tiles do not divide.
        self.train_at_1_and_2_threads(tmp_path, (
            "latent_dim = 16\nembed_dim = 64\nmodalities = 3\nnum_classes = 4\n"
            "noise_sigma = 0.05\nsamples = 1024\nbatch_size = 300\nepochs = 1\n"
            f"seed = 3\nloss = {loss}\n"
        ))

    def test_matched_volume_improves(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(self.CONFIG.replace("epochs = 2", "epochs = 4"))
        out = tmp_path / "run"
        res = run_cli("--out", out, "train", cfg)
        assert res.returncode == 0, res.stderr
        lines = (out / "trace.csv").read_text().strip().split("\n")[1:]
        first = float(lines[0].split(",")[4])
        last = float(lines[-1].split(",")[4])
        assert last < first

    def test_config_error_exit_5(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("nonsense_key = 1\n")
        res = run_cli("train", cfg)
        assert res.returncode == 5

    @pytest.mark.parametrize("line", [
        "batch_size = 1", "tau_init = 1e-300", "tau_init = 11", "lr = inf",
    ])
    def test_silently_wrong_config_exit_5(self, tmp_path, line):
        from click.testing import CliRunner

        import gramvol.cli as cli_mod

        key = line.split(" = ")[0]
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "\n".join(ln for ln in self.CONFIG.splitlines() if not ln.startswith(key))
            + f"\n{line}\n"
        )
        out = tmp_path / "run"
        result = CliRunner().invoke(cli_mod.main, ["--out", str(out), "train", str(cfg)])
        assert result.exit_code == 5
        assert result.stderr.startswith(f"error: {key}") and result.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key", ["beta1", "beta2", "adam_eps", "weight_decay"])
    def test_removed_adam_keys_exit_5(self, tmp_path, key):
        # Adam's betas, epsilon and weight decay are constants, not settings.
        from click.testing import CliRunner

        import gramvol.cli as cli_mod

        cfg = tmp_path / "train.cfg"
        cfg.write_text(self.CONFIG + f"{key} = 0.5\n")
        result = CliRunner().invoke(cli_mod.main, ["--out", str(tmp_path / "run"), "train", str(cfg)])
        assert result.exit_code == 5
        assert result.stderr == f"error: unknown config key '{key}'\n"

    @pytest.mark.parametrize("key", ["modalities", "samples", "embed_dim", "num_classes"])
    def test_oversized_config_exit_5(self, tmp_path, key):
        # Sizes past numpy's largest dimension: no array is allocated
        # before the size check, or in place of it.
        from click.testing import CliRunner

        import gramvol.cli as cli_mod

        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "\n".join(ln for ln in self.CONFIG.splitlines() if not ln.startswith(key))
            + f"\n{key} = 99999999999999999999\n"
        )
        out = tmp_path / "run"
        result = CliRunner().invoke(cli_mod.main, ["--out", str(out), "train", str(cfg)])
        assert result.exit_code == 5, result.exception
        assert result.stderr.startswith("error: a training run on this spec needs ")
        assert result.stderr.endswith(" values, more than 268435456\n")
        assert result.stderr.count("\n") == 1
        assert not out.exists()

    def test_tiny_training_split_exit_5(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(self.CONFIG.replace("samples = 96", "samples = 2"))
        res = run_cli("--out", tmp_path / "run", "train", cfg)
        assert res.returncode == 5
        assert res.stderr == (
            "error: the training split holds 1 of 2 samples (holdout_fraction 0.2); "
            "it needs at least 2\n"
        )

    def test_tiny_held_out_split_exit_5(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(self.CONFIG.replace("samples = 96", "samples = 3"))
        res = run_cli("--out", tmp_path / "run", "train", cfg)
        assert res.returncode == 5
        assert res.stderr == (
            "error: the held-out split holds 1 of 3 samples (holdout_fraction 0.2); "
            "it needs at least 2\n"
        )
        assert not (tmp_path / "run" / "trace.csv").exists()

    @pytest.mark.parametrize("lines, bound, message", [
        (["samples = 3"], None,
         "the held-out split holds 1 of 3 samples (holdout_fraction 0.2); it needs at least 2"),
        # 1,638 training samples in one batch: 2 x 1638^2 cross volumes.
        (["samples = 2048", "batch_size = 2048"], 10**6,
         "a training step's cross-volume grid needs 5366088 float64 values, more than 1000000"),
    ], ids=["held-out-split", "training-grid"])
    def test_refused_config_makes_no_out_dir_or_data(self, tmp_path, monkeypatch,
                                                     lines, bound, message):
        from click.testing import CliRunner

        import gramvol.cli as cli_mod
        from gramvol import synth

        if bound is not None:
            monkeypatch.setattr(synth, "MAX_RUN_VALUES", bound)
        generated = []
        monkeypatch.setattr(cli_mod, "generate_dataset", generated.append)
        keys = {line.split(" = ")[0] for line in lines}
        cfg = tmp_path / "train.cfg"
        cfg.write_text("\n".join(
            [ln for ln in self.CONFIG.splitlines() if ln.split(" = ")[0] not in keys] + lines
        ) + "\n")
        out = tmp_path / "run"
        result = CliRunner().invoke(cli_mod.main, ["--out", str(out), "train", str(cfg)])
        assert result.exit_code == 5, result.exception
        assert result.stderr == f"error: {message}\n"
        assert not out.exists()
        assert generated == []

    def test_diverged_training_exit_6(self, tmp_path, monkeypatch):
        # The bounded toy architecture cannot diverge from a config alone,
        # so the abort path is exercised by stubbing the trainer.
        from click.testing import CliRunner

        import gramvol.cli as cli_mod
        from gramvol.errors import DivergedTrainingError
        from gramvol.train import TraceRow, TrainingTrace

        def explode(*args, **kwargs):
            raise DivergedTrainingError(
                "boom", trace=TrainingTrace(rows=[TraceRow(0, 1, 1, 1, 1, 1, 0)])
            )

        monkeypatch.setattr(cli_mod, "run_training", explode)
        cfg = tmp_path / "train.cfg"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "run"
        result = CliRunner().invoke(
            cli_mod.main, ["--out", str(out), "train", str(cfg)],
        )
        assert result.exit_code == 6
        # the partial trace is still written
        assert (out / "trace.csv").exists()

    def test_collapsed_encoder_exit_6_with_partial_trace(self, tmp_path, monkeypatch):
        from click.testing import CliRunner

        import gramvol.cli as cli_mod
        from gramvol.encoders import ToyEncoder
        from gramvol.errors import ZeroVectorError

        real = ToyEncoder.encode_cached
        calls = []

        def collapse_mid_run(self, x):
            calls.append(1)
            # One call evaluates epoch 0; the fourth is epoch 1's third step.
            if len(calls) == 4:
                raise ZeroVectorError("encoder produced a zero embedding")
            return real(self, x)

        monkeypatch.setattr(ToyEncoder, "encode_cached", collapse_mid_run)
        cfg = tmp_path / "train.cfg"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "run"
        result = CliRunner().invoke(cli_mod.main, ["--out", str(out), "train", str(cfg)])
        assert result.exit_code == 6, result.output
        assert "zero embedding" in result.stderr
        lines = (out / "trace.csv").read_text().strip().split("\n")
        assert len(lines) == 2 and lines[1].startswith("0,")
        assert not (out / "checkpoint.bin").exists()

    @pytest.mark.parametrize("exc_name, code", [
        ("InvalidConfigError", 5), ("InconsistentBatchError", 2), ("BatchTooSmallError", 1),
    ])
    def test_library_error_maps_to_exit_code(self, tmp_path, monkeypatch, exc_name, code):
        from click.testing import CliRunner

        import gramvol.cli as cli_mod
        import gramvol.errors as errors

        def fail(*args, **kwargs):
            raise getattr(errors, exc_name)("boom")

        monkeypatch.setattr(cli_mod, "run_training", fail)
        cfg = tmp_path / "train.cfg"
        cfg.write_text(self.CONFIG)
        result = CliRunner().invoke(cli_mod.main, ["--out", str(tmp_path / "run"), "train", str(cfg)])
        assert result.exit_code == code
        # a one-line message, not a traceback
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == "error: boom\n"

    @pytest.mark.parametrize("line", ["lr = 1e300", "lambda = 1e300"])
    def test_overflow_exit_6_with_partial_trace(self, tmp_path, line):
        key = line.split(" = ")[0]
        cfg = tmp_path / "train.cfg"
        cfg.write_text("\n".join(
            ln for ln in self.CONFIG.splitlines() if not ln.startswith(key)) + f"\n{line}\n")
        out = tmp_path / "run"
        res = run_cli("--out", out, "train", cfg)
        assert res.returncode == 6
        assert res.stderr.startswith("error: training diverged at epoch 1: overflow")
        assert res.stderr.count("\n") == 1
        lines = (out / "trace.csv").read_text().strip().split("\n")
        assert len(lines) == 2 and lines[1].startswith("0,")
        assert not (out / "checkpoint.bin").exists()


class TestEvalCommand:
    def test_perfect_retrieval(self, tmp_path, rng):
        b, n = 4, 6
        ids = [f"s{i}" for i in range(b)]
        rows = unit_rows(rng, b, n)
        for name in ("txt", "vid"):
            write_modality(tmp_path / f"{name}.jsonl", name, ids, rows)
        res = run_cli("eval", tmp_path / "txt.jsonl", tmp_path / "vid.jsonl",
                      "--anchor", "txt", "--ks", "1,2")
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["r_at_1"] == 1.0
        assert report["r_at_2"] == 1.0
        assert report["direction"] == "data_to_anchor"

    def test_single_line_json(self, tmp_path, rng):
        ids = ["a", "b", "c"]
        for name in ("txt", "vid"):
            write_modality(tmp_path / f"{name}.jsonl", name, ids, unit_rows(rng, 3, 5))
        res = run_cli("eval", tmp_path / "txt.jsonl", tmp_path / "vid.jsonl", "--anchor", "txt")
        assert res.returncode == 0
        assert len(res.stdout.strip().split("\n")) == 1
        json.loads(res.stdout)

    @pytest.mark.parametrize("ks", ["0", "-1", "1,0,5"])
    def test_nonpositive_cutoff_exit_5(self, tmp_path, rng, ks):
        ids = ["a", "b", "c"]
        for name in ("txt", "vid"):
            write_modality(tmp_path / f"{name}.jsonl", name, ids, unit_rows(rng, 3, 5))
        res = run_cli("eval", tmp_path / "txt.jsonl", tmp_path / "vid.jsonl",
                      "--anchor", "txt", "--ks", ks)
        assert res.returncode == 5
        assert "bad --ks value" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("ks", ["", ",", " , "])
    def test_no_cutoff_exit_5(self, tmp_path, rng, ks):
        ids = ["a", "b", "c"]
        for name in ("txt", "vid"):
            write_modality(tmp_path / f"{name}.jsonl", name, ids, unit_rows(rng, 3, 5))
        res = run_cli("eval", tmp_path / "txt.jsonl", tmp_path / "vid.jsonl",
                      "--anchor", "txt", "--ks", ks)
        assert res.returncode == 5
        assert res.stderr == f"error: bad --ks value: no cutoff in {ks!r}\n"
        assert res.stdout == ""


class TestMetricCommand:
    def test_collinear_tuples(self, tmp_path, rng):
        rows = unit_rows(rng, 3, 5)
        ids = ["a", "b", "c"]
        write_modality(tmp_path / "x.jsonl", "x", ids, rows)
        write_modality(tmp_path / "y.jsonl", "y", ids, rows)
        res = run_cli("metric", tmp_path / "x.jsonl", tmp_path / "y.jsonl")
        report = json.loads(res.stdout)
        assert report["mean_matched_volume"] == 0.0
        assert report["one_minus_gram"] == 1.0

    def test_orthonormal_tuples(self, tmp_path):
        e = np.eye(4)
        write_modality(tmp_path / "x.jsonl", "x", ["a", "b"], e[:2])
        write_modality(tmp_path / "y.jsonl", "y", ["a", "b"], e[2:])
        res = run_cli("metric", tmp_path / "x.jsonl", tmp_path / "y.jsonl")
        report = json.loads(res.stdout)
        assert report["mean_matched_volume"] == 1.0

    def test_matches_in_process(self, tmp_path, rng):
        ids = ["a", "b", "c", "d"]
        mats = [unit_rows(rng, 4, 6) for _ in range(3)]
        for m, name in zip(mats, ("x", "y", "z")):
            write_modality(tmp_path / f"{name}.jsonl", name, ids, m)
        res = run_cli("metric", *(tmp_path / f"{n}.jsonl" for n in ("x", "y", "z")))
        report = json.loads(res.stdout)
        batch = gv.MultimodalBatch(
            anchor=gv.ModalityBatch(rows=np.array([gv.normalize(v) for v in mats[0]])),
            datas=tuple(
                gv.ModalityBatch(rows=np.array([gv.normalize(v) for v in m]))
                for m in mats[1:]
            ),
        )
        expected = alignment_metric(batch)
        assert report["mean_matched_volume"] == pytest.approx(
            expected.mean_matched_volume, abs=1e-12
        )

    def test_one_file_exit_5(self, tmp_path, rng):
        write_modality(tmp_path / "x.jsonl", "x", ["a", "b"], unit_rows(rng, 2, 3))
        res = run_cli("metric", tmp_path / "x.jsonl")
        assert res.returncode == 5
        assert res.stderr == "error: need at least two modality files\n"
        assert res.stdout == ""

    def test_duplicate_modality_exit_2(self, tmp_path, rng):
        ids = ["a", "b", "c"]
        for fname, name in (("t1", "txt"), ("t2", "txt"), ("v", "vid")):
            write_modality(tmp_path / f"{fname}.jsonl", name, ids, unit_rows(rng, 3, 5))
        res = run_cli("--out", tmp_path / "out.json", "metric",
                      *(tmp_path / f"{f}.jsonl" for f in ("t1", "t2", "v")))
        assert res.returncode == 2
        assert "duplicate modality" in res.stderr
        assert not (tmp_path / "out.json").exists()


class TestReaderErrors:
    """Malformed embedding files exit 2 with one ``error: path:line:`` line."""

    @pytest.mark.parametrize("body, line_no", [
        (b'{"format_version": 1, "n": "x"}\n', 1),
        (b'[1,2]\n', 1),
        (b'{"format_version": 1, "n": 2}\n{"id": "p", "modality": "a", "vec": [1.0, 0.0]}\n'
         b'{"id": "q", "modality": "a", "vec": ["\xff"]}\n', 3),
        (b'{"format_version": 1, "n": 2}\n{"id": "p", "modality": "a", "vec": [NaN, 1.0]}\n', 2),
        (b'{"format_version": 1, "n": 2}\n{"id": "p", "modality": "a", "vec": [1.0, Infinity]}\n',
         2),
        (b"", 1),
        (b"\n \n\t\r\n", 1),
    ], ids=["n-not-int", "header-array", "non-utf8", "nan", "inf", "empty", "blank"])
    def test_exit_2_with_path_and_line(self, tmp_path, body, line_no):
        from click.testing import CliRunner

        from gramvol.cli import main

        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(body)
        write_modality(tmp_path / "b.jsonl", "b", ["p"], np.array([[0.0, 1.0]]))
        result = CliRunner().invoke(main, ["volume", str(bad), str(tmp_path / "b.jsonl")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"error: {bad}:{line_no}: ")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("record", [
        '{"id": null, "modality": "a", "vec": [1.0, 0.0]}',
        '{"id": 5, "modality": "a", "vec": [1.0, 0.0]}',
        '{"id": "p", "modality": ["a"], "vec": [1.0, 0.0]}',
    ])
    def test_non_string_id_or_modality_exit_2(self, tmp_path, record):
        # Read with str(), null would pair with the id "None" and 5 with "5".
        from click.testing import CliRunner

        from gramvol.cli import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format_version": 1, "n": 2}\n' + record + "\n")
        write_modality(tmp_path / "b.jsonl", "b", ["None", "5", "p"], np.eye(3)[:, :2])
        result = CliRunner().invoke(main, ["volume", str(bad), str(tmp_path / "b.jsonl")])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: {bad}:2: bad record: ")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("vec", [
        '[true, "0.5"]', '[1.0, "0.5"]', '[1.0, null]', '[[1.0], 0.0]', '5', '"1.0"', '{}',
    ])
    def test_non_number_vector_exit_2(self, tmp_path, vec):
        # np.asarray would read [true, "0.5"] as [1.0, 0.5].
        from click.testing import CliRunner

        from gramvol.cli import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format_version": 1, "n": 2}\n'
                       '{"id": "p", "modality": "a", "vec": %s}\n' % vec)
        write_modality(tmp_path / "b.jsonl", "b", ["p"], np.array([[0.0, 1.0]]))
        result = CliRunner().invoke(main, ["volume", str(bad), str(tmp_path / "b.jsonl")])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: {bad}:2: bad record: vec ")
        assert result.stderr.count("\n") == 1
        assert result.stdout == ""

    @pytest.mark.parametrize("command", ["volume", "train"])
    def test_unreadable_path_one_line(self, tmp_path, command):
        res = run_cli(command, tmp_path)
        assert res.returncode == (2 if command == "volume" else 5)
        assert res.stderr == f"error: {tmp_path}: Is a directory\n"

    def test_non_utf8_train_config_exit_5(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_bytes(b"epochs = 1\nseed = \xff\n")
        res = run_cli("train", cfg)
        assert res.returncode == 5
        assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1
        assert "UTF-8" in res.stderr


class TestReportOut:
    """``eval``/``metric --out``: every path gets the JSON line stdout prints."""

    KEYS = {
        "eval": ["direction", "queries", "r_at_1", "r_at_5", "r_at_10"],
        "metric": ["mean_matched_volume", "one_minus_gram", "samples"],
    }

    @staticmethod
    def run(tmp_path, rng, command, out):
        ids = [f"s{i}" for i in range(6)]
        for name in ("txt", "vid", "aud"):
            write_modality(tmp_path / f"{name}.jsonl", name, ids, unit_rows(rng, 6, 5))
        extra = ["--anchor", "txt"] if command == "eval" else []
        res = run_cli("--out", out, command,
                      *(tmp_path / f"{n}.jsonl" for n in ("txt", "vid", "aud")), *extra)
        assert res.returncode == 0, res.stderr
        return json.loads(res.stdout), res.stdout

    @pytest.mark.parametrize("command", ["eval", "metric"])
    @pytest.mark.parametrize("suffix", [".json", ".txt", ".csv"])
    def test_other_suffix_writes_the_json_line(self, tmp_path, rng, command, suffix):
        out = tmp_path / f"report{suffix}"
        report, stdout = self.run(tmp_path, rng, command, out)
        assert out.read_text() == stdout
        assert len(stdout.splitlines()) == 1
        assert list(report) == self.KEYS[command]


class TestNormRange:
    """Finite rows whose squared norm leaves the float range."""

    @pytest.fixture
    def huge_files(self, tmp_path):
        write_modality(tmp_path / "a.jsonl", "a", ["p"], np.array([[1.0, 0.0]]))
        write_modality(tmp_path / "b.jsonl", "b", ["p"], np.array([[3e200, 4e200]]))
        return [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]

    def test_overflowing_square_still_normalized(self, tmp_path, huge_files):
        res = run_cli("volume", *huge_files)
        assert (res.returncode, res.stderr) == (0, "")
        assert res.stdout == "id\tk\tvolume\np\t2\t0.8\n"
        res = run_cli("--out", tmp_path / "s.csv", "simmat", *huge_files, "--anchor", "a")
        assert (res.returncode, res.stderr) == (0, f"wrote {tmp_path / 's.csv'}\n")
        assert (tmp_path / "s.csv").read_text() == "id,p\np,0.8\n"
        res = run_cli("metric", *huge_files)
        assert (res.returncode, res.stderr) == (0, "")
        assert json.loads(res.stdout)["mean_matched_volume"] == pytest.approx(0.8, abs=1e-15)

    @pytest.mark.parametrize("command", ["volume", "simmat", "eval", "metric"])
    def test_zero_row_names_file_and_id(self, tmp_path, command):
        from click.testing import CliRunner

        from gramvol.cli import main

        write_modality(tmp_path / "a.jsonl", "a", ["p", "q"], np.eye(2))
        write_modality(tmp_path / "z.jsonl", "z", ["p", "q"], np.array([[1.0, 1.0], [0.0, 0.0]]))
        out = tmp_path / "out.csv"
        extra = ["--anchor", "a"] if command in ("simmat", "eval") else []
        result = CliRunner().invoke(main, ["--out", str(out), command, str(tmp_path / "a.jsonl"),
                                           str(tmp_path / "z.jsonl"), *extra])
        assert result.exit_code == 2
        assert result.stderr == (f"error: {tmp_path / 'z.jsonl'}: id 'q': "
                                 "cannot normalize vector with norm 0.0\n")
        assert result.stdout == ""
        assert not out.exists()

    def test_underflowing_square_reports_true_norm(self, tmp_path):
        write_modality(tmp_path / "a.jsonl", "a", ["p"], np.array([[1.0, 0.0]]))
        write_modality(tmp_path / "t.jsonl", "t", ["p"], np.array([[3e-200, 4e-200]]))
        res = run_cli("volume", tmp_path / "a.jsonl", tmp_path / "t.jsonl")
        assert res.returncode == 2
        assert res.stderr == (f"error: {tmp_path / 't.jsonl'}: id 'p': "
                              "cannot normalize vector with norm 5e-200\n")


class TestRemovedOptions:
    """Flags that were removed are click usage errors: exit 2, "No such
    option", no traceback, no stdout and no output."""

    @staticmethod
    def check_usage_error(res, flag, out):
        assert res.returncode == 2
        assert "No such option" in res.stderr and flag in res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--normalize", "--no-normalize"])
    def test_normalize_flags_are_usage_errors(self, tmp_path, flag):
        # Every command scales its rows to unit norm; there is no switch.
        write_modality(tmp_path / "a.jsonl", "a", ["p", "q"], np.eye(2))
        write_modality(tmp_path / "b.jsonl", "b", ["p", "q"], np.eye(2))
        out = tmp_path / "out.csv"
        res = run_cli(flag, "--out", out, "simmat", tmp_path / "a.jsonl", tmp_path / "b.jsonl",
                      "--anchor", "a")
        self.check_usage_error(res, flag, out)

    @pytest.mark.parametrize("flag", ["--seed", "--ids"])
    def test_seed_and_ids_flags_are_usage_errors(self, tmp_path, flag):
        # The config's seed key is the one seed setter; volume reports
        # every id of the first file.
        write_modality(tmp_path / "a.jsonl", "a", ["p", "q"], np.eye(2))
        write_modality(tmp_path / "b.jsonl", "b", ["p", "q"], np.eye(2))
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TestTrainCommand.CONFIG)
        out = tmp_path / "out"
        args = {
            "--seed": ["--seed", "3", "--out", out, "train", cfg],
            "--ids": ["--out", out, "volume", "--ids", "p",
                      tmp_path / "a.jsonl", tmp_path / "b.jsonl"],
        }[flag]
        self.check_usage_error(run_cli(*args), flag, out)


class TestUnwritableOut:
    def test_train_out_is_existing_file_exit_5(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TestTrainCommand.CONFIG)
        out = tmp_path / "taken"
        out.write_text("keep me\n")
        res = run_cli("--out", out, "train", cfg)
        assert res.returncode == 5
        assert res.stderr.strip().splitlines() == [
            f"error: cannot write {out}: File exists"
        ]
        assert out.read_text() == "keep me\n"

    @pytest.mark.parametrize("command", ["volume", "simmat", "eval", "metric"])
    def test_missing_directory_exit_5(self, tmp_path, rng, command):
        ids = ["a", "b", "c"]
        for name in ("txt", "vid"):
            write_modality(tmp_path / f"{name}.jsonl", name, ids, unit_rows(rng, 3, 5))
        out = tmp_path / "nodir" / "x.csv"
        extra = ["--anchor", "txt"] if command in ("simmat", "eval") else []
        res = run_cli("--out", out, command,
                      tmp_path / "txt.jsonl", tmp_path / "vid.jsonl", *extra)
        assert res.returncode == 5
        assert res.stderr.strip().splitlines() == [
            f"error: cannot write {out}: No such file or directory"
        ]
        assert res.stdout == ""
        assert not (tmp_path / "nodir").exists()


class TestProcessEntry:
    @pytest.mark.parametrize("ends", ["return", "exit"])
    def test_run_freezes_what_main_made(self, monkeypatch, ends):
        # Frozen objects are in the permanent generation, which
        # gc.get_objects() does not list.
        import gramvol.cli as cli_mod

        made = []

        def main():
            made.append([])  # a list, so the collector tracks it
            if ends == "exit":
                sys.exit(0)  # as click's standalone mode ends

        monkeypatch.setattr(cli_mod, "main", main)
        try:
            with pytest.raises(SystemExit) if ends == "exit" else contextlib.nullcontext():
                cli_mod.run()
            assert len(made) == 1
            assert not any(obj is made[0] for obj in gc.get_objects())
        finally:
            gc.unfreeze()

    def test_in_process_main_does_not_freeze(self, orthogonal_pair_files):
        from click.testing import CliRunner

        from gramvol.cli import main

        before = gc.get_freeze_count()
        paths = [str(orthogonal_pair_files / n) for n in ("a.jsonl", "m.jsonl")]
        result = CliRunner().invoke(main, ["metric", *paths])
        assert result.exit_code == 0, result.output
        assert gc.get_freeze_count() == before

    def test_module_entry_help(self):
        res = run_cli("--help")
        assert res.returncode == 0, res.stderr
        assert "Volume-based multimodal similarity toolbox." in res.stdout


#: Modules that only training needs.
TRAINING_MODULES = {"gramvol.train", "gramvol.losses", "gramvol.encoders", "gramvol.synth",
                    "logging"}

#: Modules that only a command body needs.
NUMERICS_MODULES = {"numpy", "gramvol.formats", "gramvol.volume", "gramvol.metrics"}


def imported_modules(*args, code=0):
    """Modules a fresh interpreter imports running ``python -X importtime
    ARGS``; every one must exit with ``code``."""
    res = subprocess.run([sys.executable, "-X", "importtime", *map(str, args)],
                         capture_output=True, text=True)
    assert res.returncode == code, res.stderr
    return {line.rsplit("|", 1)[1].strip() for line in res.stderr.splitlines()
            if line.startswith("import time:")}


class TestImportSets:
    """``--help`` and usage errors import no numerics, each scoring command
    only its own and no training module, and a bare ``import gramvol``
    no training module; the public names still resolve to their owners'."""

    @pytest.mark.parametrize("command", ["--help", "volume", "simmat", "eval", "metric"])
    def test_scoring_commands_skip_training_modules(self, orthogonal_pair_files, command):
        paths = [orthogonal_pair_files / n for n in ("a.jsonl", "m.jsonl")]
        args = {
            "--help": ["--help"],
            "volume": ["volume", *paths],
            "simmat": ["--out", orthogonal_pair_files / "s.csv", "simmat", *paths,
                       "--anchor", "anchor"],
            "eval": ["eval", *paths, "--anchor", "anchor"],
            "metric": ["metric", *paths],
        }[command]
        numerics = {
            "--help": set(),
            "volume": {"numpy", "gramvol.formats", "gramvol.volume"},
            "simmat": NUMERICS_MODULES,
            "eval": NUMERICS_MODULES,
            "metric": NUMERICS_MODULES,
        }[command]
        modules = imported_modules("-m", "gramvol", *args)
        assert "gramvol.cli" in modules
        assert modules & NUMERICS_MODULES == numerics
        assert not modules & TRAINING_MODULES

    @pytest.mark.parametrize("args", [
        ["simmat", "a.jsonl", "m.jsonl"],
        ["eval", "a.jsonl", "--anchor"],
        ["--seed", "x", "train", "t.cfg"],
        ["volume"],
        ["nosuch"],
        *([command, "--help"] for command in ("volume", "simmat", "train", "eval", "metric")),
    ], ids=" ".join)
    def test_help_and_usage_errors_skip_numerics(self, args):
        code = 0 if args[-1] == "--help" else 2
        modules = imported_modules("-m", "gramvol", *args, code=code)
        assert "gramvol.cli" in modules
        assert not modules & (NUMERICS_MODULES | TRAINING_MODULES)

    @pytest.mark.parametrize("name, command", [
        ("read_embeddings", "volume"),
        ("normalize", "volume"),
        ("cross_volume_matrix", "simmat"),
        ("_atomic_write_text", "simmat"),
        ("retrieval_recall", "eval"),
        ("alignment_metric", "metric"),
        ("generate_dataset", "train"),
        ("run_training", "train"),
    ])
    def test_patched_global_intercepts_command(self, orthogonal_pair_files, monkeypatch,
                                               name, command):
        # The names the benchmark's tracer wraps on gramvol.cli: replacing
        # the module global must reach the command's call.
        from click.testing import CliRunner

        import gramvol.cli as cli_mod

        original, calls = getattr(cli_mod, name), []

        def spy(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli_mod, name, spy)
        tmp = orthogonal_pair_files
        cfg = tmp / "train.cfg"
        cfg.write_text(TestTrainCommand.CONFIG.replace("epochs = 2", "epochs = 0"))
        paths = [str(tmp / n) for n in ("a.jsonl", "m.jsonl")]
        args = {
            "volume": ["volume", *paths],
            "simmat": ["--out", str(tmp / "s.csv"), "simmat", *paths, "--anchor", "anchor"],
            "eval": ["eval", *paths, "--anchor", "anchor"],
            "metric": ["metric", *paths],
            "train": ["--out", str(tmp / "run"), "train", str(cfg)],
        }[command]
        result = CliRunner().invoke(cli_mod.main, args)
        assert result.exit_code == 0, result.output
        assert calls and set(calls) == {name}

    def test_bare_import(self):
        modules = imported_modules("-c", "import gramvol")
        assert "gramvol" in modules
        assert not modules & TRAINING_MODULES

    def test_train_imports_no_logging(self, tmp_path):
        # Training reports through its trace only; nothing logs.
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TestTrainCommand.CONFIG.replace("epochs = 2", "epochs = 1"))
        modules = imported_modules("-m", "gramvol", "--out", tmp_path / "run", "train", cfg)
        assert TRAINING_MODULES - {"logging"} <= modules
        assert "logging" not in modules

    def test_public_names_are_their_owners(self):
        assert set(gv.__all__) <= set(dir(gv))
        for name in gv.__all__:
            value = getattr(gv, name)
            if name == "errors":
                assert value is importlib.import_module("gramvol.errors")
                continue
            assert value.__module__.startswith("gramvol.")
            assert getattr(importlib.import_module(value.__module__), name) is value

    def test_train_stays_the_function(self, tmp_path):
        # Importing a submodule binds it onto its package; ``gramvol.train``
        # must keep naming the function, however the module got imported.
        (tmp_path / "train.cfg").write_text(TestTrainCommand.CONFIG.replace(
            "epochs = 2", "epochs = 0"))
        code = (
            "import sys, types\n"
            "import gramvol\n"
            "import gramvol.train\n"
            "assert isinstance(gramvol.train, types.FunctionType), gramvol.train\n"
            "from click.testing import CliRunner\n"
            "from gramvol.cli import main\n"
            "res = CliRunner().invoke(main, ['--out', sys.argv[1], 'train', sys.argv[2]])\n"
            "assert res.exit_code == 0, res.output\n"
            "assert gramvol.train is sys.modules['gramvol.train'].train, gramvol.train\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "run"), str(tmp_path / "train.cfg")],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
