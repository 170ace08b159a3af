"""Seeded input generation for the benchmark workloads.

Images are noisy, randomly shifted copies of one smooth template per
class. The templates are part of a workload's definition (drawn from a
fixed ``template_seed``), so every run sees an equally hard task; the
run's ``--seed`` draws only the examples, the labels and the traffic.
"""

from __future__ import annotations

import os

import numpy as np

#: (channels, height, width) of every image the benchmark generates.
IMAGE_SHAPE = (3, 8, 8)
#: box-blur passes that make a class template smooth.
SMOOTH_PASSES = 3
#: an image is its template rolled by up to this many pixels each way.
MAX_SHIFT = 2


def _smooth(noise: np.ndarray) -> np.ndarray:
    out = noise
    for _ in range(SMOOTH_PASSES):
        out = (
            out
            + np.roll(out, 1, axis=-1)
            + np.roll(out, -1, axis=-1)
            + np.roll(out, 1, axis=-2)
            + np.roll(out, -1, axis=-2)
        ) / 5.0
    return out


def templates(num_classes: int, template_seed: int) -> np.ndarray:
    """One smooth, unit-contrast template per class."""
    rng = np.random.default_rng([template_seed, num_classes])
    out = _smooth(rng.normal(size=(num_classes, *IMAGE_SHAPE)))
    return out / (out.std() + 1e-12)


def draw_images(
    rng: np.random.Generator,
    class_templates: np.ndarray,
    count: int,
    difficulty: float,
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` labelled images; labels are balanced, then shuffled."""
    num_classes = class_templates.shape[0]
    labels = np.resize(np.arange(num_classes), count)
    rng.shuffle(labels)
    images = class_templates[labels].copy()
    shifts = rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=(count, 2))
    for i in range(count):
        images[i] = np.roll(images[i], tuple(shifts[i]), axis=(1, 2))
    images += rng.normal(0.0, difficulty, size=images.shape)
    return images, labels


def write_npy_tree(directory: str, images: np.ndarray, labels: np.ndarray) -> None:
    """Write ``directory/class-<k>/<i>.npy``, the layout POST /datasets imports."""
    for k in np.unique(labels):
        os.makedirs(os.path.join(directory, f"class-{int(k)}"), exist_ok=True)
    for i, (image, label) in enumerate(zip(images, labels)):
        np.save(os.path.join(directory, f"class-{int(label)}", f"{i:05d}.npy"), image)


def zipf_indices(rng: np.random.Generator, count: int, pool: int, skew: float) -> np.ndarray:
    """``count`` draws from ``range(pool)`` with P(rank r) ~ 1 / (r + 1)**skew."""
    weights = 1.0 / np.arange(1, pool + 1) ** skew
    return rng.choice(pool, size=count, p=weights / weights.sum())


def zipf_multiset(rng: np.random.Generator, count: int, pool: int, skew: float) -> np.ndarray:
    """``count`` indices into ``range(pool)`` in a seeded order.

    How often each index occurs is fixed: the ``count``-sample share of
    a Zipf law, ``count / (r + 1)**skew`` normalised, rounded by largest
    remainder. So every seed sees the same number of distinct indices
    and the same repeat counts; only which rows hold them varies.
    """
    weights = 1.0 / np.arange(1, pool + 1) ** skew
    exact = count * weights / weights.sum()
    counts = np.floor(exact).astype(int)
    counts[np.argsort(counts - exact, kind="stable")[: count - counts.sum()]] += 1
    return rng.permutation(np.repeat(np.arange(pool), counts))
