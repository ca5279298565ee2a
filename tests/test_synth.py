"""Synthetic dataset generation: determinism, structure, validation."""

import ast
from pathlib import Path

import numpy as np
import pytest

from gramvol import SyntheticSpec, generate_dataset
from gramvol.errors import InvalidSpecError
from gramvol.synth import split_dataset, split_sizes

from conftest import assert_same_at_1_and_2_threads


class TestSpecValidation:
    def test_too_few_classes(self):
        with pytest.raises(InvalidSpecError):
            SyntheticSpec(num_classes=1)

    def test_negative_sigma(self):
        with pytest.raises(InvalidSpecError):
            SyntheticSpec(noise_sigma=-0.1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), (0.1, float("nan"), 0.1)])
    def test_non_finite_sigma(self, sigma):
        with pytest.raises(InvalidSpecError, match="noise_sigma must be finite"):
            SyntheticSpec(noise_sigma=sigma)

    def test_negative_seed(self):
        # numpy's generators take no negative seed.
        with pytest.raises(InvalidSpecError, match="seed must be >= 0"):
            SyntheticSpec(seed=-1)

    def test_sigma_list_length(self):
        with pytest.raises(InvalidSpecError):
            SyntheticSpec(modalities=3, noise_sigma=(0.1, 0.2)).sigmas()

    def test_scalar_sigma_broadcast(self):
        assert SyntheticSpec(modalities=4, noise_sigma=0.2).sigmas() == (0.2,) * 4

    def test_paired_dims_must_leave_shared_coordinates(self):
        with pytest.raises(InvalidSpecError):
            SyntheticSpec(latent_dim=8, modalities=3, paired_dims=4)

    def test_visibility_masks(self):
        spec = SyntheticSpec(latent_dim=10, modalities=3, paired_dims=3)
        masks = spec.visibility_masks()
        assert spec.shared_dims == 4
        np.testing.assert_array_equal(masks[0], np.ones(10))
        np.testing.assert_array_equal(masks[1][:4], 1.0)
        assert masks[1][4:7].sum() == 3 and masks[1][7:].sum() == 0
        assert masks[2][7:].sum() == 3 and masks[2][4:7].sum() == 0


class TestGenerateDataset:
    def test_seed_determinism_byte_identical(self):
        spec = SyntheticSpec(samples=64, seed=11)
        a = generate_dataset(spec)
        b = generate_dataset(spec)
        for va, vb in zip(a.views, b.views):
            assert va.tobytes() == vb.tobytes()

    def test_different_seed_differs(self):
        a = generate_dataset(SyntheticSpec(samples=32, seed=0))
        b = generate_dataset(SyntheticSpec(samples=32, seed=1))
        assert a.views[0].tobytes() != b.views[0].tobytes()

    def test_shapes_and_ids(self):
        spec = SyntheticSpec(latent_dim=8, modalities=3, samples=40, seed=0)
        ds = generate_dataset(spec)
        assert ds.modalities == 3
        # One array in the encoder bank's (k, N, d) layout.
        assert isinstance(ds.views, np.ndarray) and ds.views.shape == (3, 40, 8)
        assert ds.num_samples == 40

    @pytest.mark.parametrize("others", [0.0, 0.03])
    @pytest.mark.parametrize("i", range(3))
    def test_one_sigma_moves_only_its_own_view(self, i, others):
        # Every modality draws its noise, at sigma 0 too, so modality i's
        # sigma leaves every other view byte-identical.  At others = 0 the
        # first spec has every sigma 0.
        sigmas = [others] * 3
        datasets = []
        for sigma in (0.0, 0.1):
            sigmas[i] = sigma
            datasets.append(generate_dataset(
                SyntheticSpec(modalities=3, noise_sigma=tuple(sigmas), samples=64, seed=4)))
        a, b = datasets
        for j in range(3):
            assert (a.views[j].tobytes() == b.views[j].tobytes()) == (j != i)

    def test_byte_identical_across_blas_thread_counts(self):
        # A latent of 300 projects with a summed dimension past 256 and a
        # width that the dgemm kernel's 8 columns do not divide.
        script = (
            "import hashlib\n"
            "from gramvol import SyntheticSpec, generate_dataset\n"
            "ds = generate_dataset(SyntheticSpec(latent_dim=300, embed_dim=300, "
            "modalities=2, samples=2000, seed=1))\n"
            "print(hashlib.sha256(b''.join(v.tobytes() for v in ds.views)).hexdigest())\n"
        )
        assert_same_at_1_and_2_threads(["-c", script])

    def test_embed_dim_is_not_read(self):
        # Generation knows nothing of the model: an embedding width whose
        # gram model exceeds the size bound still generates the data.
        ds = generate_dataset(SyntheticSpec(embed_dim=2048))
        assert ds.views.shape == (3, 2048, 16)

    def test_overflowing_sigma(self):
        # Finite, but sigma times a normal draw above 1.8 is not.
        spec = SyntheticSpec(latent_dim=4, embed_dim=8, noise_sigma=1e308, samples=64)
        with pytest.raises(InvalidSpecError, match="noise_sigma 1e\\+308 overflows"):
            generate_dataset(spec)


class TestSplit:
    def test_fixed_80_20_by_id(self):
        ds = generate_dataset(SyntheticSpec(samples=100, seed=0))
        train_ds, held_ds = split_dataset(ds, 0.2)
        assert train_ds.num_samples == 80
        assert held_ds.num_samples == 20
        np.testing.assert_array_equal(train_ds.views[1], ds.views[1][:80])
        np.testing.assert_array_equal(held_ds.views, ds.views[:, 80:])
        # The halves are slices of the dataset's views, not copies.
        assert np.shares_memory(train_ds.views, ds.views)
        assert np.shares_memory(held_ds.views, ds.views)

    def test_bad_fraction(self):
        ds = generate_dataset(SyntheticSpec(samples=10, seed=0))
        with pytest.raises(InvalidSpecError):
            split_dataset(ds, 1.5)

    def test_benchmark_copy_of_the_split_formula_matches(self):
        # perfbench/run.py counts the samples behind train_samples_per_s
        # with its own copy of the formula.  The function is compiled alone
        # from the file's syntax tree: importing run.py sets environment
        # variables.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        func = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "n_train_samples")
        namespace = {}
        exec(compile(ast.Module(body=[func], type_ignores=[]), str(path), "exec"), namespace)
        n_train_samples = namespace["n_train_samples"]
        mismatches = [(samples, holdout)
                      for holdout in (0.1, 0.2, 0.25, 0.3, 0.5, 0.75, 0.9)
                      for samples in range(1, 5001)
                      if n_train_samples(samples, holdout) != split_sizes(samples, holdout)[0]]
        assert not mismatches, f"{len(mismatches)} mismatches, first {mismatches[:3]}"
