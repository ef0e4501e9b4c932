"""Dataset tests: IDX parsing against hand-built fixtures, FFT feature
properties, and the seeded synthetic digit set."""

import struct

import numpy as np
import pytest

from spnn.data import (
    FeatureDataset,
    build_default_dataset,
    fft_features,
    featurize,
    ingest_idx,
    synthetic_digits,
)
from spnn.numerics import Rng


def _write_idx(tmp_path, images, labels, image_magic=0x00000803,
               label_magic=0x00000801, label_count=None):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    count, rows, cols = images.shape
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", image_magic, count, rows, cols))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(
            struct.pack(
                ">II",
                label_magic,
                label_count if label_count is not None else len(labels),
            )
        )
        fh.write(labels.tobytes())
    return str(images_path), str(labels_path)


def test_idx_round_trip_single_image(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(1, 3, 4)
    ip, lp = _write_idx(tmp_path, img, [5])
    images, labels = ingest_idx(ip, lp)
    assert images.shape == (1, 3, 4)
    assert labels.tolist() == [5]
    np.testing.assert_allclose(images[0], img[0] / 255.0)


def test_idx_bad_magic(tmp_path):
    ip, lp = _write_idx(tmp_path, np.zeros((1, 2, 2)), [0], image_magic=0xDEAD)
    with pytest.raises(ValueError, match="magic"):
        ingest_idx(ip, lp)


def test_idx_truncated_payload(tmp_path):
    ip, lp = _write_idx(tmp_path, np.zeros((1, 2, 2)), [0])
    with open(ip, "r+b") as fh:
        fh.truncate(17)  # header plus one pixel
    with pytest.raises(ValueError, match="truncated"):
        ingest_idx(ip, lp)


def test_idx_count_mismatch(tmp_path):
    ip, lp = _write_idx(tmp_path, np.zeros((2, 2, 2)), [0, 1, 1])
    with pytest.raises(ValueError, match="mismatch"):
        ingest_idx(ip, lp)


@pytest.mark.parametrize(
    "dims", [(0xFFFFFFFF,) * 3, (100000, 1000, 1000)], ids=["overflow", "oversize"]
)
def test_idx_header_claiming_more_than_the_file_holds(tmp_path, dims):
    """Rejected before the read, which would overflow the read size or
    exhaust memory."""
    path = tmp_path / "images.idx"
    path.write_bytes(struct.pack(">IIII", 0x00000803, *dims) + bytes(10))
    with pytest.raises(ValueError, match="truncated IDX payload while reading image"):
        ingest_idx(str(path), str(path))


def test_idx_empty_file(tmp_path):
    path = tmp_path / "empty.idx"
    path.write_bytes(b"")
    with pytest.raises(ValueError, match="truncated"):
        ingest_idx(str(path), str(path))


def test_fft_features_unit_norm_and_shape():
    img = Rng(1).uniform(0.0, 1.0, (8, 8))
    vec = fft_features(img, 16)
    assert vec.shape == (16,)
    assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-12)


def test_fft_features_constant_image_is_dc_only():
    vec = fft_features(np.full((8, 8), 0.7), 4)
    assert abs(vec[0]) == pytest.approx(1.0, rel=1e-12)
    assert np.max(np.abs(vec[1:])) < 1e-12


def test_fft_features_zero_image_is_zero_vector():
    vec = fft_features(np.zeros((8, 8)), 4)
    assert np.all(vec == 0.0)


def test_fft_features_non_square_count_uses_most_square_block():
    vec = fft_features(Rng(2).uniform(0.0, 1.0, (8, 8)), 8)  # 2x4 block
    assert vec.shape == (8,)
    assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-12)


def test_featurize_builds_one_unit_feature_vector_per_image():
    images = Rng(3).uniform(0.0, 1.0, (4, 8, 8))
    ds = featurize(images, [0, 1, 0, 1], 8, 2)
    assert (ds.n_samples, ds.n_features) == (4, 8)
    np.testing.assert_allclose(np.linalg.norm(ds.features, axis=1), 1.0, rtol=1e-12)


def test_synthetic_digits_deterministic_and_bounded():
    a, la = synthetic_digits(5, Rng(7))
    b, lb = synthetic_digits(5, Rng(7))
    assert a.tobytes() == b.tobytes()
    assert la.tolist() == lb.tolist()
    assert a.shape == (40, 8, 8)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_default_dataset_split():
    ds = build_default_dataset(n_per_class=10)
    train, evalset = ds.split(0.7, Rng(1))
    assert train.n_samples + evalset.n_samples == ds.n_samples
    assert train.n_classes == ds.n_classes == 8
    # Deterministic split.
    train2, _ = ds.split(0.7, Rng(1))
    assert train.features.tobytes() == train2.features.tobytes()


@pytest.mark.parametrize("fraction", [0.99, 0.01])
def test_split_rejects_an_empty_side(fraction):
    ds = build_default_dataset(n_per_class=1)
    with pytest.raises(ValueError, match=f"train_fraction={fraction} of 8 samples"):
        ds.split(fraction, Rng(1))


def test_feature_dataset_validation():
    with pytest.raises(ValueError):
        FeatureDataset(np.zeros((2, 4)), np.array([0, 9]), n_classes=2)
    with pytest.raises(ValueError):
        FeatureDataset(np.zeros((2, 4)), np.array([0]), n_classes=2)
