"""Dataset loading: splits, windows, binning, augmentation, batching."""

import numpy as np
import pytest

from repro.common.errors import DataError
from repro.data.datasets import (
    N_STEERING_BINS,
    TubDataset,
    augment_brightness,
    augment_flip,
    images_to_float,
    linear_bin,
    linear_unbin,
)


class TestBinning:
    def test_bin_extremes(self):
        bins = linear_bin(np.array([-1.0, 0.0, 1.0]))
        assert bins.shape == (3, N_STEERING_BINS)
        assert bins[0].argmax() == 0
        assert bins[1].argmax() == 7
        assert bins[2].argmax() == 14

    def test_one_hot(self):
        bins = linear_bin(np.linspace(-1, 1, 20))
        assert np.allclose(bins.sum(axis=1), 1.0)

    def test_round_trip_error_bounded(self):
        values = np.linspace(-1, 1, 101)
        recovered = linear_unbin(linear_bin(values))
        # Max quantisation error is half a bin width.
        assert np.abs(recovered - values).max() <= 1.0 / (N_STEERING_BINS - 1) + 1e-9

    def test_out_of_range_clipped(self):
        bins = linear_bin(np.array([5.0, -5.0]))
        assert bins[0].argmax() == 14
        assert bins[1].argmax() == 0

    def test_unbin_validates_shape(self):
        with pytest.raises(DataError):
            linear_unbin(np.zeros((2, 7)))


class TestAugmentation:
    def test_flip_negates_steering(self):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 255, (4, 8, 10, 3), dtype=np.uint8)
        angles = np.array([0.5, -0.2, 0.0, 1.0])
        flipped, neg = augment_flip(images, angles)
        assert np.array_equal(neg, -angles)
        assert np.array_equal(flipped[:, :, ::-1], images)

    def test_brightness_preserves_dtype_and_shape(self):
        images = np.full((3, 8, 10, 3), 128, dtype=np.uint8)
        out = augment_brightness(images, rng=0)
        assert out.dtype == np.uint8
        assert out.shape == images.shape
        # Per-frame gains differ.
        means = out.reshape(3, -1).mean(axis=1)
        assert means.std() > 1.0

    def test_images_to_float_range(self):
        images = np.array([[[[0, 128, 255]]]], dtype=np.uint8)
        out = images_to_float(images)
        assert out.dtype == np.float32
        assert out.min() == 0.0 and out.max() == 1.0

    def test_images_to_float_equals_scaled_copy_bit_for_bit(self):
        images = np.arange(256, dtype=np.uint8).reshape(1, 8, 32, 1).repeat(3, axis=3)
        out = images_to_float(images)
        reference = images.astype(np.float32) / 255.0
        assert out.dtype == np.float32
        assert np.array_equal(out.view(np.uint32), reference.view(np.uint32))
        assert not np.shares_memory(out, images)

    def test_images_to_float_rejects_float(self):
        with pytest.raises(DataError):
            images_to_float(np.zeros((1, 2, 2, 3), dtype=np.float32))


class TestSplits:
    def test_split_sizes(self, tub_factory):
        dataset = TubDataset(tub_factory(n_records=50))
        split = dataset.split(val_fraction=0.2, rng=0)
        assert len(split.x_train) == 40
        assert len(split.x_val) == 10
        assert split.x_train.dtype == np.float32

    def test_targets_layouts(self, tub_factory):
        dataset = TubDataset(tub_factory(n_records=30))
        assert dataset.split(rng=0, targets="both").y_train.shape[1] == 2
        assert dataset.split(rng=0, targets="angle").y_train.shape[1] == 1
        assert dataset.split(rng=0, targets="throttle").y_train.shape[1] == 1
        cat = dataset.split(rng=0, targets="categorical")
        assert cat.y_train.shape[1] == N_STEERING_BINS + 1

    def test_unknown_targets(self, tub_factory):
        with pytest.raises(DataError):
            TubDataset(tub_factory(n_records=10)).split(targets="waypoints")

    def test_deleted_records_excluded(self, tub_factory):
        tub = tub_factory(n_records=30)
        tub.mark_deleted(range(10))
        dataset = TubDataset(tub)
        assert len(dataset) == 20
        images, angles, throttles = dataset.load_arrays()
        assert len(images) == 20

    def test_split_deterministic(self, tub_factory):
        tub = tub_factory(n_records=30)
        a = TubDataset(tub).split(rng=7)
        b = TubDataset(tub).split(rng=7)
        assert np.array_equal(a.y_train, b.y_train)

    def test_sequence_windows(self, tub_factory):
        dataset = TubDataset(tub_factory(n_records=20))
        split = dataset.split(rng=0, sequence_length=4, val_fraction=0.2)
        total = len(split.x_train) + len(split.x_val)
        assert total == 20 - 3  # windows per tub: n - T + 1
        assert split.x_train.shape[1:4] == (4, 40, 56)

    def test_sequence_windows_do_not_cross_tubs(self, tub_factory):
        tubs = [tub_factory(n_records=10, seed=i) for i in range(2)]
        dataset = TubDataset(tubs)
        split = dataset.split(rng=0, sequence_length=4, val_fraction=0.2)
        assert len(split.x_train) + len(split.x_val) == 2 * (10 - 3)

    def test_sequence_too_long(self, tub_factory):
        dataset = TubDataset(tub_factory(n_records=5))
        with pytest.raises(DataError):
            dataset.split(sequence_length=10)

    def test_memory_split(self, tub_factory):
        dataset = TubDataset(tub_factory(n_records=20))
        split = dataset.split_memory(mem_length=3, rng=0)
        x_img, x_hist = split.x_train
        assert x_hist.shape[1:] == (3, 2)
        assert len(x_img) == len(x_hist) == len(split.y_train)
        total = len(split.y_train) + len(split.y_val)
        assert total == 20 - 3

    def test_memory_history_matches_labels(self, tub_factory):
        # History at window t must equal the labels of records t-3..t-1.
        tub = tub_factory(n_records=12, seed=4)
        dataset = TubDataset(tub)
        images, angles, throttles = dataset.load_arrays()
        split = dataset.split_memory(mem_length=2, rng=0, val_fraction=0.2)
        x_img, x_hist = split.x_train
        # Find which record each training sample is by matching images.
        floats = images.astype(np.float32) / 255.0
        for sample in range(min(4, len(x_img))):
            match = np.where(
                np.all(np.isclose(floats, x_img[sample]), axis=(1, 2, 3))
            )[0]
            t = int(match[0])
            expected = np.column_stack(
                [angles[t - 2 : t], throttles[t - 2 : t]]
            )
            assert np.allclose(x_hist[sample], expected, atol=1e-6)

    def test_bad_val_fraction(self, tub_factory):
        with pytest.raises(DataError):
            TubDataset(tub_factory(n_records=10)).split(val_fraction=0.0)

    def test_empty_dataset(self, tub_factory):
        tub = tub_factory(n_records=5)
        tub.mark_deleted(range(5))
        with pytest.raises(DataError):
            TubDataset(tub).load_arrays()

    def test_no_tubs(self):
        with pytest.raises(DataError):
            TubDataset([])


class TestBatches:
    def test_covers_everything_once(self):
        x = np.arange(10)[:, None]
        y = np.arange(10)[:, None]
        seen = []
        for xb, yb in TubDataset.batches(x, y, batch_size=3, rng=0):
            seen.extend(xb[:, 0].tolist())
        assert sorted(seen) == list(range(10))

    def test_no_shuffle_preserves_order(self):
        x = np.arange(6)[:, None]
        batches = list(TubDataset.batches(x, x, 4, shuffle=False))
        assert batches[0][0][:, 0].tolist() == [0, 1, 2, 3]

    def test_tuple_x_sliced_consistently(self):
        x = (np.arange(10)[:, None], np.arange(10)[:, None] * 2)
        y = np.arange(10)[:, None]
        for (xa, xb), yb in TubDataset.batches(x, y, 4, rng=1):
            assert np.array_equal(xb, xa * 2)
            assert np.array_equal(yb, xa)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            list(TubDataset.batches(np.zeros(5), np.zeros(4), 2))

    def test_statistics(self, tub_factory):
        stats = TubDataset(tub_factory(n_records=25)).statistics()
        assert stats["records"] == 25
        assert 0 <= stats["throttle_mean"] <= 1
