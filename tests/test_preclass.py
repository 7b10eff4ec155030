import warnings

import numpy as np
import pytest

from wbanet.errors import InputError, SamplingError
from wbanet.preclass import (Label, LabelMap, fcm, hfcm_partition, log_ratio,
                             patch_windows, sample_patches)


class TestLogRatio:
    def test_identical_images(self):
        img = np.random.default_rng(0).uniform(0, 100, (8, 8))
        assert np.all(log_ratio(img, img) == 0.0)

    def test_closed_form_pixel(self):
        i1 = np.zeros((1, 1))
        i2 = np.full((1, 1), np.e - 1)
        assert log_ratio(i1, i2)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        i1 = rng.uniform(0, 50, (6, 6))
        i2 = rng.uniform(0, 50, (6, 6))
        assert np.array_equal(log_ratio(i1, i2), log_ratio(i2, i1))

    def test_negative_intensity_rejected(self):
        with pytest.raises(InputError):
            log_ratio(np.full((2, 2), -1.0), np.ones((2, 2)))

    def test_extent_mismatch_rejected(self):
        with pytest.raises(InputError):
            log_ratio(np.ones((2, 2)), np.ones((2, 3)))


class TestFcm:
    def test_separated_point_masses(self):
        values = np.concatenate([np.zeros(50), np.full(50, 10.0)])
        res = fcm(values, k=2)
        assert res.centers[0] == pytest.approx(0.0, abs=1e-3)
        assert res.centers[1] == pytest.approx(10.0, abs=1e-3)

    def test_membership_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        res = fcm(rng.normal(size=500), k=3)
        assert np.allclose(res.memberships.sum(axis=1), 1.0, atol=1e-9)

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(3)
        res = fcm(rng.normal(size=400) ** 2, k=4)
        diffs = np.diff(res.objective)
        assert np.all(diffs <= 1e-9)

    def test_degenerate_data_flagged(self):
        # constant data need no special case: every centre lands on the
        # value (up to summation rounding) and the memberships are uniform
        # after one iteration
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fcm(np.full(500, 3.0), k=3)
        np.testing.assert_allclose(res.centers, 3.0, rtol=1e-12)
        assert np.all(res.memberships == 1.0 / 3.0)
        assert len(res.objective) == 1

    def test_preconditions(self):
        with pytest.raises(InputError):
            fcm(np.arange(10.0), k=1)
        with pytest.raises(InputError):
            fcm(np.arange(3.0), k=3)


class TestHfcmPartition:
    @pytest.fixture
    def bimodal_di(self):
        rng = np.random.default_rng(4)
        # sd 0.05 keeps the background mode clearly separated from the
        # change mode; the second-stage promotion of the top cluster to
        # CHANGED absorbs the background tail when the modes overlap.
        di = np.abs(rng.normal(0.1, 0.05, (64, 64)))
        changed = rng.choice(di.size, size=int(0.05 * di.size), replace=False)
        flat = di.ravel()
        flat[changed] = rng.normal(3.0, 0.2, changed.size)
        return np.abs(flat.reshape(di.shape))

    def test_changed_fraction_bracket(self, bimodal_di):
        labels = hfcm_partition(bimodal_di)
        frac = labels.mask(Label.CHANGED).mean()
        assert 0.02 <= frac <= 0.10

    def test_partition_covers_all_pixels(self, bimodal_di):
        labels = hfcm_partition(bimodal_di)
        counts = sum(labels.mask(lab).sum() for lab in Label)
        assert counts == bimodal_di.size

    def test_label_monotonic_in_di(self, bimodal_di):
        labels = hfcm_partition(bimodal_di)
        changed_vals = bimodal_di[labels.mask(Label.CHANGED)]
        unchanged_vals = bimodal_di[labels.mask(Label.UNCHANGED)]
        assert changed_vals.min() >= unchanged_vals.max()

    def test_changed_and_unchanged_nonempty(self, bimodal_di):
        labels = hfcm_partition(bimodal_di)
        assert labels.mask(Label.CHANGED).any()
        assert labels.mask(Label.UNCHANGED).any()

    def test_constant_di_degenerate(self):
        labels = hfcm_partition(np.zeros((16, 16)))
        assert labels.degenerate
        assert np.all(labels.labels == int(Label.UNCHANGED))


class TestPatchWindows:
    def test_every_pixel_matches_padded_slice(self):
        # non-square, so a swapped H/W axis or an off-by-one centre shows
        rng = np.random.default_rng(6)
        i1 = rng.uniform(0, 255, (10, 14))
        i2 = rng.integers(0, 256, (10, 14), dtype=np.uint8)
        p = 4
        pad1 = np.pad(i1, p // 2, mode="reflect")
        pad2 = np.pad(i2.astype(np.float64), p // 2, mode="reflect")
        rows, cols = np.indices(i1.shape).reshape(2, -1)
        got = patch_windows(i1, i2, p)[rows, cols]
        assert got.shape == (140, p, p, 2)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        for k, (r, c) in enumerate(zip(rows, cols)):
            assert np.array_equal(got[k, :, :, 0], pad1[r:r + p, c:c + p])
            assert np.array_equal(got[k, :, :, 1], pad2[r:r + p, c:c + p])
            assert got[k, p // 2, p // 2, 0] == i1[r, c]
            assert got[k, p // 2, p // 2, 1] == i2[r, c]


class TestSamplePatches:
    @pytest.fixture
    def scene(self):
        rng = np.random.default_rng(5)
        i1 = rng.uniform(0, 255, (32, 32))
        i2 = rng.uniform(0, 255, (32, 32))
        labels = np.zeros((32, 32), dtype=np.int8)
        labels[scene_slice()] = int(Label.CHANGED)
        labels[20:24, 20:24] = int(Label.INTERMEDIATE)
        return i1, i2, LabelMap(labels)

    def test_balanced_batch(self, scene):
        batch = sample_patches(*scene, p=8, n_per_class=50, seed=1)
        assert batch.patches.shape == (100, 8, 8, 2)
        assert batch.labels.sum() == 50

    def test_seeded_determinism(self, scene):
        a = sample_patches(*scene, p=8, n_per_class=50, seed=9)
        b = sample_patches(*scene, p=8, n_per_class=50, seed=9)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.patches, b.patches)

    def test_corner_patch_valid_via_reflection(self):
        i1 = np.arange(64.0).reshape(8, 8)
        i2 = i1 + 1
        labels = np.zeros((8, 8), dtype=np.int8)
        labels[0, 0] = int(Label.CHANGED)
        batch = sample_patches(i1, i2, LabelMap(labels), p=4,
                               n_per_class=1, seed=0)
        assert batch.patches.shape[1:] == (4, 4, 2)
        assert np.all(np.isfinite(batch.patches))

    def test_short_class_takes_all(self, scene):
        i1, i2, labels = scene
        batch = sample_patches(i1, i2, labels, p=4, n_per_class=10 ** 6, seed=0)
        n_changed = labels.mask(Label.CHANGED).sum()
        assert batch.labels.sum() == n_changed

    def test_empty_class_rejected(self):
        labels = LabelMap(np.zeros((8, 8), dtype=np.int8))  # no CHANGED
        with pytest.raises(SamplingError):
            sample_patches(np.ones((8, 8)), np.ones((8, 8)), labels,
                           p=4, n_per_class=5, seed=0)

    def test_odd_patch_rejected(self, scene):
        with pytest.raises(InputError):
            sample_patches(*scene, p=5, n_per_class=5, seed=0)


def scene_slice():
    return slice(4, 12), slice(4, 12)
