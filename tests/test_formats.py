"""Embedding files, configs, traces, and checkpoints."""

import json
import os

import numpy as np
import pytest

from gramvol import SyntheticSpec, TrainConfig
from gramvol.errors import EmbeddingParseError, InvalidConfigError
from gramvol.formats import (
    _atomic_write_text,
    build_train_setup,
    parse_key_values,
    read_embeddings,
    trace_to_csv,
    write_checkpoint,
    write_embeddings,
    write_trace_csv,
)
from gramvol.train import TraceRow, TrainingTrace


class TestEmbeddingFiles:
    def test_round_trip_exact(self, tmp_path, rng):
        path = tmp_path / "emb.jsonl"
        vecs = rng.standard_normal((5, 7))
        write_embeddings(path, 7, [(f"s{i}", "video", vecs[i]) for i in range(5)])
        emb = read_embeddings(path)
        assert emb.n == 7
        assert emb.modality == "video"
        assert emb.ids == [f"s{i}" for i in range(5)]
        assert emb.rows.dtype == np.float64 and emb.rows.shape == (5, 7)
        # shortest-round-trip decimals reproduce the doubles exactly
        np.testing.assert_array_equal(emb.rows, vecs)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "modality": "m", "vec": [1.0]}\n')
        with pytest.raises(EmbeddingParseError) as err:
            read_embeddings(path)
        assert err.value.line_no == 1

    def test_wrong_vector_length_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format_version": 1, "n": 3}\n'
            '{"id": "a", "modality": "m", "vec": [1.0, 0.0, 0.0]}\n'
            '{"id": "b", "modality": "m", "vec": [1.0]}\n'
        )
        with pytest.raises(EmbeddingParseError) as err:
            read_embeddings(path)
        assert err.value.line_no == 3

    def test_duplicate_id_modality(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text(
            '{"format_version": 1, "n": 1}\n'
            '{"id": "a", "modality": "m", "vec": [1.0]}\n'
            '{"id": "a", "modality": "m", "vec": [0.5]}\n'
        )
        with pytest.raises(EmbeddingParseError):
            read_embeddings(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format_version": 1, "n": 1}\nnot json\n')
        with pytest.raises(EmbeddingParseError) as err:
            read_embeddings(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("body, line_no, needle", [
        ('{"format_version": 1, "n": "x"}\n', 1, "header n"),
        ('{"format_version": 1, "n": 2.5}\n', 1, "header n"),
        ('[1, 2]\n', 1, "header"),
        ('{"format_version": 1, "n": 1}\n{"id": "a", "modality": "m", "vec": [NaN]}\n',
         2, "NaN or Inf"),
        ('{"format_version": 1, "n": 1}\n{"id": "a", "modality": "m", "vec": [1e999]}\n',
         2, "NaN or Inf"),
        ('{"format_version": 1, "n": 1}\n{"id": "a", "modality": "m", "vec": [1.0]}\n'
         '{"id": "b", "modality": "q", "vec": [1.0]}\n', 3, "second modality 'q'"),
        ('{"format_version": 1, "n": 1}\n{"id": "a", "modality": "m", "vec": [1%s]}\n'
         % ("0" * 400), 2, "bad record"),
        ('{"format_version": 1, "n": 1}\n\n', 2, "no records"),
    ])
    def test_defect_reports_line(self, tmp_path, body, line_no, needle):
        path = tmp_path / "bad.jsonl"
        path.write_text(body)
        with pytest.raises(EmbeddingParseError) as err:
            read_embeddings(path)
        assert err.value.line_no == line_no
        assert needle in str(err.value)

    @pytest.mark.parametrize("eol", [b"\n", b"\r", b"\r\n"])
    def test_non_utf8_reports_line(self, tmp_path, eol):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(eol.join([
            b'{"format_version": 1, "n": 1}',
            b'{"id": "a", "modality": "m", "vec": [1.0]}',
            b'{"id": "\xff", "modality": "m"}', b"",
        ]))
        with pytest.raises(EmbeddingParseError) as err:
            read_embeddings(path)
        assert err.value.line_no == 3
        assert "UTF-8" in str(err.value)

    @pytest.mark.parametrize("field", ["id", "modality"])
    @pytest.mark.parametrize("value", [None, 5, 1.5, True, ["a"], {"a": 1}])
    def test_id_and_modality_must_be_strings(self, tmp_path, field, value):
        # str() would make null read as "None" and 5 pair with "5".
        record = {"id": "a", "modality": "m", "vec": [1.0], field: value}
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format_version": 1, "n": 1}\n' + json.dumps(record) + "\n")
        with pytest.raises(EmbeddingParseError, match="bad record: .*JSON strings") as err:
            read_embeddings(path)
        assert err.value.line_no == 2

    def test_lines_split_like_text_mode(self, tmp_path):
        # \r and \r\n end lines; U+2028 inside a JSON string does not.
        path = tmp_path / "emb.jsonl"
        path.write_bytes(
            b'{"format_version": 1, "n": 1}\r'
            b'{"id": "a\xe2\x80\xa8b", "modality": "m", "vec": [2.0]}\r\n'
        )
        emb = read_embeddings(path)
        assert emb.ids == ["a\u2028b"]
        np.testing.assert_array_equal(emb.rows, [[2.0]])


class TestConfigParsing:
    def test_key_values_with_comments(self):
        kv = parse_key_values("# top\nbatch_size = 8\nlr= 0.01  # inline\n\nseed =3\n")
        assert kv == {"batch_size": "8", "lr": "0.01", "seed": "3"}

    def test_malformed_line(self):
        with pytest.raises(InvalidConfigError):
            parse_key_values("batch_size 8\n")

    def test_duplicate_key(self):
        with pytest.raises(InvalidConfigError):
            parse_key_values("lr=1\nlr=2\n")

    def test_build_setup_defaults_and_overrides(self):
        spec, config = build_train_setup({
            "modalities": "4", "noise_sigma": "0.4,0.3,0.2,0.1",
            "seed": "9", "lambda": "0.2", "loss": "cosine",
        })
        assert isinstance(spec, SyntheticSpec) and isinstance(config, TrainConfig)
        assert spec.modalities == 4
        assert spec.sigmas() == (0.4, 0.3, 0.2, 0.1)
        assert spec.seed == 9  # one seed drives the data and training
        assert config.seed == 9
        assert config.lam == 0.2
        assert config.loss == "cosine"

    def test_unknown_key_rejected(self):
        for key in ("learning_rate", "data_seed"):
            with pytest.raises(InvalidConfigError, match=f"^unknown config key '{key}'$"):
                build_train_setup({key: "1"})

    def test_every_key_sets_its_field(self):
        spec, config = build_train_setup({
            "latent_dim": "5", "embed_dim": "9", "modalities": "2", "num_classes": "3",
            "noise_sigma": "0.5,0.25", "samples": "77", "paired_dims": "1",
            "batch_size": "5", "epochs": "4", "lr": "0.5", "lambda": "0.375",
            "tau_init": "2.5", "seed": "8", "loss": "cosine", "eval_max_samples": "33",
            "holdout_fraction": "0.625",
        })
        assert spec == SyntheticSpec(
            latent_dim=5, embed_dim=9, modalities=2, num_classes=3, noise_sigma=(0.5, 0.25),
            samples=77, seed=8, paired_dims=1,
        )
        assert config == TrainConfig(
            batch_size=5, epochs=4, lr=0.5, lam=0.375, tau_init=2.5, seed=8, loss="cosine",
            eval_max_samples=33, holdout_fraction=0.625,
        )
        assert type(config.lr) is float and type(config.epochs) is int

    @pytest.mark.parametrize("key", ["lam", "spec.seed", "noise_sigmas"])
    def test_field_names_are_not_keys_where_renamed(self, key):
        with pytest.raises(InvalidConfigError, match=f"unknown config key '{key}'"):
            build_train_setup({key: "1"})

    def test_bad_value_rejected(self):
        with pytest.raises(InvalidConfigError):
            build_train_setup({"epochs": "three"})


class TestTraceCsv:
    def _trace(self):
        return TrainingTrace(rows=[
            TraceRow(0, 1.5, 1.25, 0.7, 0.9, 0.95, 0.125),
            TraceRow(1, 0.5, 0.5625, 0.69, 0.4, 0.9, 0.75),
        ])

    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        trace = self._trace()
        write_trace_csv(path, trace)
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        got = [
            TraceRow(int(cells[0]), *map(float, cells[1:]))
            for cells in (line.split(",") for line in lines)
        ]
        assert header.split(",")[0] == "epoch"
        assert got == trace.rows

    def test_header_and_shape(self):
        text = trace_to_csv(self._trace())
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,l_d2a,l_a2d,l_dam,matched_vol,mismatched_vol,r_at_1"
        assert len(lines) == 3


class TestCheckpoints:
    def test_round_trip(self, tmp_path, rng):
        params = {
            "enc0.w1": rng.standard_normal((3, 4)),
            "enc0.b1": rng.standard_normal(4),
            "log_tau": np.array(-2.65926),
        }
        write_checkpoint(tmp_path / "c.bin", tmp_path / "c.json", params)
        sidecar = json.loads((tmp_path / "c.json").read_text(encoding="utf-8"))
        assert sidecar["format_version"] == 1 and sidecar["dtype"] == "<f8"
        flat = np.frombuffer((tmp_path / "c.bin").read_bytes(), dtype="<f8")
        offset = 0
        for tensor, (name, want) in zip(sidecar["tensors"], params.items(), strict=True):
            assert tensor == {"name": name, "shape": list(want.shape)}
            got = flat[offset:offset + want.size].reshape(want.shape)
            np.testing.assert_array_equal(got, want)
            offset += want.size
        assert offset == flat.size

    def test_binary_is_little_endian_float64(self, tmp_path):
        params = {"w": np.array([1.0, 2.0])}
        write_checkpoint(tmp_path / "c.bin", tmp_path / "c.json", params)
        raw = (tmp_path / "c.bin").read_bytes()
        assert raw == np.array([1.0, 2.0], dtype="<f8").tobytes()


class TestAtomicWrite:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_outputs_follow_the_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            write_trace_csv(tmp_path / "trace.csv", TrainingTrace(rows=[]))
            write_checkpoint(tmp_path / "c.bin", tmp_path / "c.json", {"w": np.ones(2)})
            write_embeddings(tmp_path / "e.jsonl", 2, [("a", "m", [1.0, 0.0])])
        finally:
            os.umask(old)
        for name in ("trace.csv", "c.bin", "c.json", "e.jsonl"):
            assert (tmp_path / name).stat().st_mode & 0o777 == mode, name

    def test_failed_rename_leaves_no_file(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("no rename")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="no rename"):
            _atomic_write_text(tmp_path / "out.csv", "x\n")
        assert list(tmp_path.iterdir()) == []
