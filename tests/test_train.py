"""Optimizer, encoders, and the training loop."""

import dataclasses
import importlib
import math

import numpy as np
import pytest

import gramvol as gv
from gramvol import SyntheticSpec, TrainConfig, synth, volume
from gramvol.encoders import ToyEncoder
from gramvol.errors import (
    BatchTooSmallError,
    DivergedTrainingError,
    InvalidConfigError,
    InvalidSpecError,
    ZeroVectorError,
)
from gramvol.losses import DamHead, Temperature, loss_report
from gramvol.train import EPS, AdamState, TraceRow, adam_step, cosine_pairwise_report, evaluate

from conftest import BLAS_CORES, assert_same_at_1_and_2_threads, central_diff, rel_err, unit_rows

# The module: ``gramvol.train`` in the package namespace is the function.
train_mod = importlib.import_module("gramvol.train")


class TestAdamStep:
    def test_zero_gradient_zero_decay_is_noop(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        before = params["w"].copy()
        state = AdamState.init(params)
        adam_step(params, {"w": np.zeros(3)}, state, 0.1)
        np.testing.assert_array_equal(params["w"], before)

    def test_first_step_is_sign_like(self):
        # After bias correction the first update is -lr * g / (|g| + eps),
        # reproduced here from the update definition.
        g = np.array([0.5, -0.25, 2.0])
        params = {"w": np.zeros(3)}
        state = AdamState.init(params)
        adam_step(params, {"w": g}, state, 0.1)
        expected = -0.1 * g / (np.abs(g) + EPS)
        np.testing.assert_allclose(params["w"], expected, rtol=0, atol=1e-15)

    def test_moments_accumulate(self):
        params = {"w": np.zeros(1)}
        state = AdamState.init(params)
        adam_step(params, {"w": np.array([1.0])}, state, 1e-3)
        adam_step(params, {"w": np.array([1.0])}, state, 1e-3)
        assert state.t == 2
        assert state.m["w"][0] == pytest.approx(0.1 + 0.9 * 0.1)

    def test_follows_the_textbook_update(self, rng):
        # 50 steps against lr (m / c1) / (sqrt(v / c2) + eps) on copies.
        # Each entry's gradient keeps its sign while its scale spans 1e-6
        # to 1e3, so a parameter moves away from 0 and its relative error
        # is the update's; entries 0-3 have exactly zero gradients, and
        # every other entry some zero steps.  "s" is a 0-d parameter.
        lr, n = 1e-2, 40
        params = {"w": np.zeros(n), "s": np.array(0.0)}
        state = AdamState.init(params)
        ref = {k: p.copy() for k, p in params.items()}
        ref_m = {k: np.zeros_like(p) for k, p in params.items()}
        ref_v = {k: np.zeros_like(p) for k, p in params.items()}
        sign = np.where(rng.random(n + 1) < 0.5, -1.0, 1.0)
        sign[:4] = 0.0
        for t in range(1, 51):
            g = sign * np.abs(rng.standard_normal(n + 1)) * 10.0 ** rng.uniform(-6, 3, n + 1)
            g[rng.random(n + 1) < 0.2] = 0.0
            grads = {"w": g[:n], "s": np.array(g[n])}
            adam_step(params, grads, state, lr)
            c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            for k, grad in grads.items():
                ref_m[k] *= 0.9
                ref_m[k] += (1.0 - 0.9) * grad
                ref_v[k] *= 0.999
                ref_v[k] += (1.0 - 0.999) * np.square(grad)
                ref[k] -= lr * (ref_m[k] / c1) / (np.sqrt(ref_v[k] / c2) + EPS)
                np.testing.assert_array_equal(state.m[k], ref_m[k])
                np.testing.assert_array_equal(state.v[k], ref_v[k])
                np.testing.assert_allclose(params[k], ref[k], rtol=1e-13, atol=0)
        assert params["s"].shape == () and params["w"][:4].tolist() == [0.0] * 4
        assert (np.abs(params["w"][4:]) > 0).all()


#: Prints, for k = 3 and 4 encoders at B = 64, 13 and 38 rows and two
#: input and output widths, whether the bank of the encoders gives each
#: encoder's embeddings and parameter gradients bit for bit.
BANK_SCRIPT = """
import numpy as np
from gramvol.encoders import ToyEncoder

r = np.random.default_rng(8)
for k in (3, 4):
    for b in (64, 13, 38):
        for d, n in ((16, 64), (6, 20)):
            encs = [ToyEncoder.init(d, n, r) for _ in range(k)]
            bank = ToyEncoder.stack(encs)
            x, g = r.standard_normal((k, b, d)), r.standard_normal((k, b, n))
            e, cache = bank.encode_cached(x)
            grads = bank.backward(cache, g)
            same_e = same_g = True
            for i, enc in enumerate(encs):
                ei, ci = enc.encode_cached(x[i])
                gi = enc.backward(ci, g[i])
                same_e &= np.array_equal(e[i], ei)
                same_g &= all(np.array_equal(grads[name][i], gi[name]) for name in gi)
            print(k, b, d, n, same_e, same_g)
"""


class TestToyEncoder:
    @pytest.mark.parametrize("core", BLAS_CORES)
    def test_bank_is_its_encoders_bit_for_bit(self, core):
        lines = assert_same_at_1_and_2_threads(["-c", BANK_SCRIPT], core=core)
        assert len(lines) == 12
        assert [line for line in lines if not line.endswith(" True True")] == []

    def test_bank_views_share_the_bank_arrays(self, rng):
        bank = ToyEncoder.stack([ToyEncoder.init(4, 8, rng) for _ in range(3)])
        assert bank.w1.shape == (3, 4, 128) and bank.b2.shape == (3, 8)
        enc = bank[1]
        for name, arr in enc.params().items():
            assert arr.shape == getattr(bank, name).shape[1:]
            assert np.shares_memory(arr, getattr(bank, name))

    def test_output_unit_norm(self, rng):
        enc = ToyEncoder.init(4, 8, rng)
        e = enc.encode(rng.standard_normal((10, 4)))
        np.testing.assert_allclose(np.linalg.norm(e, axis=1), 1.0, atol=1e-12)

    def test_zero_embedding_raises(self, rng):
        enc = ToyEncoder.init(4, 8, rng)
        enc.w2[...] = 0.0  # with b2 = 0, every embedding is the zero vector
        with pytest.raises(ZeroVectorError, match="zero embedding"):
            enc.encode(rng.standard_normal((3, 4)))

    def test_backward_matches_finite_differences(self, rng):
        enc = ToyEncoder.init(3, 4, rng)
        x = rng.standard_normal((6, 3))
        w = rng.standard_normal((6, 4))  # fixed projection defining a scalar loss

        def loss_for(enc_):
            return float(np.sum(enc_.encode(x) * w))

        _, cache = enc.encode_cached(x)
        grads = enc.backward(cache, w)
        for name in ("w1", "b1", "w2", "b2"):
            arr = getattr(enc, name)
            fd = central_diff(lambda _arr: loss_for(enc), arr)
            mask = np.abs(fd) > 1e-8
            assert rel_err(grads[name][mask], fd[mask]).max() < 1e-5


class TestCosineReport:
    def test_matches_finite_differences(self, rng):
        tau = Temperature.from_tau(0.5)
        anchor = unit_rows(rng, 4, 6)
        datas = [unit_rows(rng, 4, 6) for _ in range(2)]
        rep = cosine_pairwise_report(anchor, datas, tau)

        def value(a, ds, t):
            r = cosine_pairwise_report(a, ds, t)
            return 0.5 * (r.l_d2a + r.l_a2d)

        fd = central_diff(lambda a: value(a, datas, tau), anchor)
        mask = np.abs(fd) > 1e-8
        assert rel_err(rep.grad_anchor[mask], fd[mask]).max() < 1e-5
        h = 1e-6
        fd_tau = (
            value(anchor, datas, Temperature(tau.log_tau + h))
            - value(anchor, datas, Temperature(tau.log_tau - h))
        ) / (2 * h)
        assert rel_err(rep.grad_log_tau, fd_tau).max() < 1e-5

    def test_data_gradients_match_finite_differences(self, rng):
        tau = Temperature.from_tau(0.5)
        anchor = unit_rows(rng, 4, 6)
        datas = [unit_rows(rng, 4, 6) for _ in range(2)]
        rep = cosine_pairwise_report(anchor, datas, tau)
        for m in range(2):
            def value(d):
                ds = list(datas)
                ds[m] = d
                r = cosine_pairwise_report(anchor, ds, tau)
                return 0.5 * (r.l_d2a + r.l_a2d)

            fd = central_diff(value, datas[m].copy())
            mask = np.abs(fd) > 1e-8
            assert rel_err(rep.grad_datas[m][mask], fd[mask]).max() < 1e-5


def tiny_spec(seed=0, **kw):
    defaults = dict(latent_dim=6, embed_dim=16, modalities=3, num_classes=2,
                    noise_sigma=0.05, samples=80, seed=seed)
    defaults.update(kw)
    return SyntheticSpec(**defaults)


def tiny_config(seed=0, **kw):
    defaults = dict(batch_size=16, epochs=2, lr=5e-3, tau_init=1.0,
                    eval_max_samples=16, seed=seed)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrainLoop:
    def test_config_validation(self):
        with pytest.raises(InvalidConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(InvalidConfigError):
            TrainConfig(loss="triplet")
        with pytest.raises(InvalidConfigError):
            TrainConfig(holdout_fraction=1.0)

    @pytest.mark.parametrize("kw, needle", [
        # A 1 x 1 contrastive loss has zero gradient.
        ({"batch_size": 1}, "batch_size"),
        # tau is clamped only after a step, so the first one would use tau_init.
        ({"tau_init": 1e-300}, "tau_init"),
        ({"tau_init": 10.5}, "tau_init"),
        ({"lr": math.inf}, "lr must be finite"),
        ({"holdout_fraction": math.inf}, "holdout_fraction must be finite"),
        ({"lam": math.nan}, "lambda must be finite"),
        # numpy's generators take no negative seed.
        ({"seed": -1}, "seed must be >= 0"),
    ])
    def test_config_rejects_silently_wrong_values(self, kw, needle):
        with pytest.raises(InvalidConfigError, match=needle):
            TrainConfig(**kw)

    def test_boundary_values_accepted(self):
        from gramvol.losses import TAU_MAX, TAU_MIN

        assert TrainConfig(tau_init=TAU_MIN).tau_init == TAU_MIN
        assert TrainConfig(tau_init=TAU_MAX).tau_init == TAU_MAX
        assert TrainConfig(batch_size=2).batch_size == 2

    def test_zero_learning_rate_is_noop(self):
        ds = gv.generate_dataset(tiny_spec())
        cfg = tiny_config(lr=0.0, epochs=1)
        res = gv.train(cfg, ds, embed_dim=16)
        fresh = gv.train(tiny_config(lr=0.0, epochs=0), ds, embed_dim=16)
        for name, arr in res.params.items():
            np.testing.assert_array_equal(arr, fresh.params[name])

    def test_zero_epochs_single_eval_row(self):
        ds = gv.generate_dataset(tiny_spec())
        res = gv.train(tiny_config(epochs=0), ds, embed_dim=16)
        assert [r.epoch for r in res.trace.rows] == [0]

    def test_same_seed_identical_traces(self):
        ds = gv.generate_dataset(tiny_spec())
        a = gv.train(tiny_config(seed=7), ds, embed_dim=16)
        b = gv.train(tiny_config(seed=7), ds, embed_dim=16)
        for ra, rb in zip(a.trace.rows, b.trace.rows):
            assert ra == rb
        for name in a.params:
            assert a.params[name].tobytes() == b.params[name].tobytes()

    def test_matched_volume_decreases(self):
        ds = gv.generate_dataset(tiny_spec(samples=256))
        cfg = tiny_config(epochs=5, batch_size=32, lr=1e-2, eval_max_samples=32)
        res = gv.train(cfg, ds, embed_dim=16)
        matched = res.trace.column("matched_vol")
        assert matched[-1] < matched[0]
        # strictly decreasing over the first epochs of a fresh run
        assert np.all(np.diff(matched[:4]) < 0)

    def test_losses_stay_finite_and_logged(self):
        ds = gv.generate_dataset(tiny_spec())
        res = gv.train(tiny_config(), ds, embed_dim=16)
        for row in res.trace.rows:
            for col in ("l_d2a", "l_a2d", "l_dam", "matched_vol", "r_at_1"):
                assert math.isfinite(getattr(row, col))

    def test_cosine_loss_variant_runs(self):
        ds = gv.generate_dataset(tiny_spec())
        res = gv.train(tiny_config(loss="cosine"), ds, embed_dim=16)
        assert not any(name.startswith("head.") for name in res.params)
        assert all(r.l_dam == 0.0 for r in res.trace.rows)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_trace(self):
        # tanh plus row normalization keep the loss finite under any step
        # size, so non-finite values are injected at the data level.
        ds = gv.generate_dataset(tiny_spec())
        views = ds.views.copy()
        views[0, 0, 0] = np.nan
        broken = type(ds)(views=views)
        with pytest.raises(DivergedTrainingError) as err:
            gv.train(tiny_config(epochs=2), broken, embed_dim=16)
        assert err.value.trace is not None
        assert len(err.value.trace.rows) >= 1

    @pytest.mark.parametrize(
        "kw", [{"lr": 1e300}, {"lam": 1e300}, {"lr": 1e300, "loss": "cosine"}]
    )
    def test_overflow_diverges(self, kw):
        # An overflow would otherwise warn and leave non-finite parameters.
        ds = gv.generate_dataset(tiny_spec())
        with pytest.raises(DivergedTrainingError, match="overflow") as err:
            gv.train(tiny_config(epochs=1, **kw), ds, embed_dim=16)
        assert [r.epoch for r in err.value.trace.rows] == [0]

    def test_non_finite_total_loss_diverges(self, monkeypatch):
        real = train_mod.loss_report

        def infinite_step_loss(*args, grad=True, **kwargs):
            report = real(*args, grad=grad, **kwargs)
            if grad:
                report.l_tot = math.inf
            return report

        monkeypatch.setattr(train_mod, "loss_report", infinite_step_loss)
        ds = gv.generate_dataset(tiny_spec())
        with pytest.raises(DivergedTrainingError,
                           match="^training diverged at epoch 1: the total loss is not finite$"
                           ) as err:
            gv.train(tiny_config(epochs=1), ds, embed_dim=16)
        assert [r.epoch for r in err.value.trace.rows] == [0]

    def test_latent_dim_exceeding_embed_dim(self):
        # A library call gets the refusal that ``gramvol train`` gives.
        spec = tiny_spec()
        ds = gv.generate_dataset(spec)
        with pytest.raises(InvalidConfigError,
                           match="^latent_dim must be <= embed_dim, got 6 vs 5$"):
            gv.train(tiny_config(epochs=0), ds, embed_dim=spec.latent_dim - 1)

    def test_tau_clamped_into_range(self):
        ds = gv.generate_dataset(tiny_spec())
        res = gv.train(tiny_config(epochs=1, lr=5.0), ds, embed_dim=16)
        assert 1e-3 - 1e-12 <= math.exp(res.params["log_tau"]) <= 10.0 + 1e-12


#: The report function ``train`` hands to ``evaluate`` for each objective.
OBJECTIVES = {"gram": loss_report, "cosine": cosine_pairwise_report}


class TestEvaluate:
    @pytest.mark.parametrize("loss_kind", ["gram", "cosine"])
    def test_losses_equal_training_report_bit_for_bit(self, rng, loss_kind):
        ds = gv.generate_dataset(tiny_spec(samples=40))
        encoders = ToyEncoder.stack([ToyEncoder.init(v.shape[1], 16, rng) for v in ds.views])
        head = DamHead(3, 16, rng) if loss_kind == "gram" else None
        tau = Temperature.from_tau(0.2)
        row = evaluate(encoders, ds, tau, head, 32, OBJECTIVES[loss_kind], 5)
        embeds = [encoders[i].encode(v[:32]) for i, v in enumerate(ds.views)]
        if loss_kind == "gram":
            rep = loss_report(embeds[0], embeds[1:], tau, head)
        else:
            rep = cosine_pairwise_report(embeds[0], embeds[1:], tau)
        assert isinstance(row, TraceRow) and row.epoch == 5
        assert (row.l_d2a, row.l_a2d, row.l_dam) == (rep.l_d2a, rep.l_a2d, rep.l_dam)

    @pytest.mark.parametrize("loss_kind", ["gram", "cosine"])
    def test_builds_one_cross_volume_matrix(self, rng, monkeypatch, loss_kind):
        ds = gv.generate_dataset(tiny_spec(samples=40))
        encoders = ToyEncoder.stack([ToyEncoder.init(v.shape[1], 16, rng) for v in ds.views])
        head = DamHead(3, 16, rng) if loss_kind == "gram" else None
        shapes = []
        init = volume.VolumeBatch.__init__

        def counting_init(self, anchor, datas, *args, **kwargs):
            shapes.append(np.shape(anchor))
            init(self, anchor, datas, *args, **kwargs)

        monkeypatch.setattr(volume.VolumeBatch, "__init__", counting_init)
        evaluate(encoders, ds, Temperature.from_tau(0.2), head, 32, OBJECTIVES[loss_kind], 0)
        assert shapes == [(32, 16)]

    @pytest.mark.parametrize("loss_kind", ["gram", "cosine"])
    @pytest.mark.parametrize("samples, max_samples", [(40, 1), (1, 32)])
    def test_one_sample_raises(self, rng, loss_kind, samples, max_samples):
        # One sample has no mismatched tuple: no row rather than a NaN one.
        views = gv.generate_dataset(tiny_spec(samples=40)).views
        ds = synth.MultimodalDataset(views[:, :samples])
        encoders = ToyEncoder.stack([ToyEncoder.init(v.shape[1], 16, rng) for v in ds.views])
        head = DamHead(3, 16, rng) if loss_kind == "gram" else None
        with pytest.raises(BatchTooSmallError, match="at least 2 samples, got 1"):
            evaluate(encoders, ds, Temperature.from_tau(0.2), head, max_samples,
                     OBJECTIVES[loss_kind], 0)

    @pytest.mark.parametrize("loss_kind", ["gram", "cosine"])
    @pytest.mark.parametrize("max_samples", [32, 30], ids=["unpadded", "padded"])
    def test_strided_views_give_the_bits_of_a_contiguous_copy(self, rng, loss_kind,
                                                              max_samples):
        # The held-out split's views are a strided slice of the dataset's
        # (k, N, d) array, and evaluate slices them again; 30 rows are
        # padded to 32 on their way to BLAS, 32 rows are not.
        _, held = synth.split_dataset(gv.generate_dataset(tiny_spec()), 0.5)
        assert not held.views.flags.c_contiguous
        copy = synth.MultimodalDataset(views=held.views.copy())
        encoders = ToyEncoder.stack([ToyEncoder.init(v.shape[1], 16, rng) for v in held.views])
        head = DamHead(3, 16, rng) if loss_kind == "gram" else None
        rows = [evaluate(encoders, ds, Temperature.from_tau(0.2), head, max_samples,
                         OBJECTIVES[loss_kind], 1) for ds in (held, copy)]
        bits = [np.array(dataclasses.astuple(row)).tobytes() for row in rows]
        assert bits[0] == bits[1]


class TestRunSizeBound:
    def test_counts_what_a_volume_run_allocates(self, monkeypatch):
        # The spec counts its data, the views and the class means; the
        # training check counts the model, the parameters with their two
        # Adam moments, which hold the matching head under gram only.  A
        # count at the bound passes, one value past it fails.
        spec = tiny_spec()
        ds = gv.generate_dataset(spec)
        data = ds.views.size + spec.num_classes * spec.latent_dim
        configs = {loss: tiny_config(epochs=0, loss=loss) for loss in ("gram", "cosine")}
        models = {loss: 3 * sum(p.size for p in gv.train(config, ds, embed_dim=16).params.values())
                  for loss, config in configs.items()}
        monkeypatch.setattr(synth, "MAX_RUN_VALUES", data)
        dataclasses.replace(spec)
        monkeypatch.setattr(synth, "MAX_RUN_VALUES", data - 1)
        with pytest.raises(InvalidSpecError, match=f"needs {data} float64 values"):
            dataclasses.replace(spec)
        for loss, config in configs.items():
            model = models[loss]
            monkeypatch.setattr(synth, "MAX_RUN_VALUES", model)
            gv.train(config, ds, embed_dim=spec.embed_dim)
            monkeypatch.setattr(synth, "MAX_RUN_VALUES", model - 1)
            with pytest.raises(InvalidConfigError,
                               match=f"^a training run on this spec needs {model} float64"):
                gv.train(config, ds, embed_dim=spec.embed_dim)

    @pytest.mark.parametrize("name, config, b", [
        # 200 training samples, batches capped at the split.
        ("training", tiny_config(epochs=0, batch_size=1000, holdout_fraction=0.5), 200),
        # 200 held-out samples, the evaluated slice capped at the split.
        ("held-out", tiny_config(epochs=0, batch_size=2, eval_max_samples=1000,
                                 holdout_fraction=0.5), 200),
    ], ids=["training", "held-out"])
    def test_counts_one_steps_cross_volume_grid(self, monkeypatch, name, config, b):
        # A step's cross volumes are (modalities - 1) B^2 float64 values.
        # The 400 samples make a grid larger than the model's 48,726
        # values, so the grid, not the model, meets the bound.
        spec = tiny_spec(samples=400)
        ds = gv.generate_dataset(spec)
        grid = (spec.modalities - 1) * b * b
        monkeypatch.setattr(synth, "MAX_RUN_VALUES", grid)
        gv.train(config, ds, embed_dim=spec.embed_dim)
        monkeypatch.setattr(synth, "MAX_RUN_VALUES", grid - 1)
        with pytest.raises(InvalidConfigError,
                           match=f"^a {name} step's cross-volume grid needs {grid} float64"):
            gv.train(config, ds, embed_dim=spec.embed_dim)


class TestObjectiveLookup:
    @pytest.mark.parametrize("loss, name", [
        ("gram", "loss_report"), ("cosine", "cosine_pairwise_report"),
    ])
    def test_step_loop_and_evaluate_call_the_module_global(self, monkeypatch, loss, name):
        # A tracer replaces these globals: a loop that kept the functions
        # it saw at import would time nothing, and read 0, not a gap.
        calls = {global_name: [] for global_name in ("loss_report", "cosine_pairwise_report")}
        for global_name, calls_of in calls.items():
            def counting(*args, _fn=getattr(train_mod, global_name), _calls=calls_of, **kwargs):
                _calls.append(kwargs.get("grad", True))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(train_mod, global_name, counting)
        gv.train(tiny_config(epochs=1, loss=loss), gv.generate_dataset(tiny_spec()), embed_dim=16)
        # 64 training samples in batches of 16, and epochs 0 and 1 evaluated.
        assert calls.pop(name) == [False] + [True] * 4 + [False]
        assert calls.popitem()[1] == []
