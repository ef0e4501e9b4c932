"""Datasets and featurization: IDX ingestion, 2-D-FFT complex features,
and a small seeded synthetic digit set for fast end-to-end runs.

Feature vectors are complex: the lowest-frequency block of the image's 2-D
spectrum, flattened row-major and normalized to unit L2 so that every
sample launches 1 mW in total, whatever the image brightness.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from spnn.numerics import Rng, fft2d

__all__ = [
    "FeatureDataset",
    "ingest_idx",
    "fft_features",
    "featurize",
    "synthetic_digits",
    "build_default_dataset",
]

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class FeatureDataset:
    """Complex feature vectors plus integer class labels."""

    features: np.ndarray  # (samples, n) complex
    labels: np.ndarray  # (samples,) int
    n_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=complex)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2:
            raise ValueError("features must be a (samples, n) array")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"feature/label count mismatch: {self.features.shape[0]} "
                f"vs {self.labels.shape[0]}"
            )
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.n_classes
        ):
            raise ValueError("labels must lie in [0, n_classes)")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def split(self, train_fraction: float, rng: Rng):
        """Seeded shuffle split into (train, eval) datasets."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        order = rng.permutation(self.n_samples)
        cut = int(round(train_fraction * self.n_samples))
        if not 0 < cut < self.n_samples:
            raise ValueError(
                f"train_fraction={train_fraction} of {self.n_samples} samples "
                "leaves an empty train or eval split"
            )
        return tuple(
            FeatureDataset(self.features[idx], self.labels[idx], self.n_classes)
            for idx in (order[:cut], order[cut:])
        )


def _read_exact(fh, count: int, what: str) -> bytes:
    # Checked before reading: a header can claim more bytes than memory holds.
    if count > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"truncated IDX payload while reading {what}")
    return fh.read(count)


def _read_idx(path: str, magic: int, what: str) -> np.ndarray:
    """The uint8 payload of one big-endian IDX file whose magic must be
    ``magic``; its low byte is the dimension count."""
    ndim = magic & 0xFF
    with open(path, "rb") as fh:
        found, *dims = struct.unpack(
            f">{1 + ndim}I", _read_exact(fh, 4 * (1 + ndim), f"{what} header")
        )
        if found != magic:
            raise ValueError(
                f"bad {what} magic 0x{found:08x}, expected 0x{magic:08x}"
            )
        raw = _read_exact(fh, math.prod(dims), f"{what} data")
    return np.frombuffer(raw, dtype=np.uint8).reshape(dims)


def ingest_idx(images_path: str, labels_path: str):
    """Parse big-endian IDX image/label files into ([0,1] images, labels).

    Returns (images, labels) with images of shape (count, rows, cols).
    """
    images = _read_idx(images_path, IDX_IMAGES_MAGIC, "image").astype(float) / 255.0
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, "label").astype(int)
    if len(labels) != len(images):
        raise ValueError(
            f"image/label count mismatch: {len(images)} images vs {len(labels)} labels"
        )
    return images, labels


def _block_shape(n_features: int) -> tuple[int, int]:
    """Lowest-frequency block shape: square when n_features is a perfect
    square, otherwise the most-square factorization (rows <= cols)."""
    root = int(round(n_features**0.5))
    if root * root == n_features:
        return root, root
    best = (1, n_features)
    for r in range(1, root + 1):
        if n_features % r == 0:
            best = (r, n_features // r)
    return best


def fft_features(image: np.ndarray, n_features: int) -> np.ndarray:
    """Complex feature vector: lowest-frequency corner of the 2-D spectrum.

    The block is flattened row-major and L2-normalized. An all-zero image
    yields the zero vector (degenerate, left unnormalized).
    """
    if n_features < 1:
        raise ValueError("n_features must be >= 1")
    rows, cols = _block_shape(n_features)
    spectrum = fft2d(image)
    if rows > spectrum.shape[0] or cols > spectrum.shape[1]:
        raise ValueError(
            f"image too small for a {rows}x{cols} low-frequency block"
        )
    vec = spectrum[:rows, :cols].reshape(-1)
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        return vec
    return vec / norm


def featurize(images: np.ndarray, labels, n_features: int,
              n_classes: int) -> FeatureDataset:
    feats = np.stack([fft_features(img, n_features) for img in images])
    return FeatureDataset(feats, labels, n_classes)


# --------------------------------------------------------------------------
# Synthetic digit set (8 classes of 8x8 glyphs)
# --------------------------------------------------------------------------

_GLYPHS = [
    # 8x8 binary stencils for the digits 0-7, drawn by hand.
    [
        "00111100",
        "01100110",
        "01100110",
        "01100110",
        "01100110",
        "01100110",
        "01100110",
        "00111100",
    ],
    [
        "00011000",
        "00111000",
        "01111000",
        "00011000",
        "00011000",
        "00011000",
        "00011000",
        "01111110",
    ],
    [
        "00111100",
        "01100110",
        "00000110",
        "00001100",
        "00011000",
        "00110000",
        "01100000",
        "01111110",
    ],
    [
        "00111100",
        "01100110",
        "00000110",
        "00011100",
        "00000110",
        "00000110",
        "01100110",
        "00111100",
    ],
    [
        "00001100",
        "00011100",
        "00111100",
        "01101100",
        "11001100",
        "11111111",
        "00001100",
        "00001100",
    ],
    [
        "01111110",
        "01100000",
        "01100000",
        "01111100",
        "00000110",
        "00000110",
        "01100110",
        "00111100",
    ],
    [
        "00011100",
        "00110000",
        "01100000",
        "01111100",
        "01100110",
        "01100110",
        "01100110",
        "00111100",
    ],
    [
        "01111110",
        "00000110",
        "00001100",
        "00001100",
        "00011000",
        "00011000",
        "00110000",
        "00110000",
    ],
]


def _glyph_array(cls: int) -> np.ndarray:
    return np.array(
        [[1.0 if ch == "1" else 0.0 for ch in row] for row in _GLYPHS[cls]]
    )


def synthetic_digits(
    n_per_class: int, rng: Rng
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded 8-class 8x8 digit images with shift/intensity/pixel jitter."""
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    images = []
    labels = []
    for cls in range(len(_GLYPHS)):
        base = _glyph_array(cls)
        for _ in range(n_per_class):
            dy, dx = (int(v) for v in rng.integers(-1, 2, size=2))
            img = np.roll(np.roll(base, dy, axis=0), dx, axis=1)
            img = img * rng.uniform(0.7, 1.3)
            img = img + rng.gaussian(0.0, 0.08, size=img.shape)
            images.append(np.clip(img, 0.0, 1.0))
            labels.append(cls)
    return np.stack(images), np.array(labels)


def build_default_dataset(
    n_per_class: int = 150, n_features: int = 8, seed: int = 7
) -> FeatureDataset:
    """The desk-scale default: seeded synthetic digits, FFT features."""
    rng = Rng(seed).spawn(101)
    images, labels = synthetic_digits(n_per_class, rng)
    return featurize(images, labels, n_features, n_classes=len(_GLYPHS))
