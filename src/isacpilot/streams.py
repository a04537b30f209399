"""Deterministic random-stream derivation.

All Monte Carlo code derives its generators from a master seed through
named SeedSequence spawn keys.  A stream therefore depends only on the
(seed, logical role) pair and never on scheduling order or worker count,
which is what makes experiment outputs bit-reproducible.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import count


def _key_words(part) -> tuple[int, ...]:
    digest = hashlib.sha256(repr(part).encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


def substream(master_seed: int, *parts) -> np.random.Generator:
    """Generator for a named child stream of ``master_seed``.

    ``parts`` (ints or strings) identify the logical role, e.g.
    ``substream(seed, "roc", rep, "h0")``.
    """
    count(master_seed, "master_seed", 0)
    key: tuple[int, ...] = ()
    for part in parts:
        key = key + _key_words(part)
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def complex_normal(rng: np.random.Generator, shape=()) -> np.ndarray:
    """Standard circular complex Gaussian draws, unit variance per entry."""
    size = tuple(count(n, "shape", 0) for n in np.atleast_1d(shape))
    z = rng.standard_normal(size=size + (2,))
    # scaled as floats: NumPy divides a complex by a real c as re * fl(1/c),
    # im * fl(1/c), so this keeps the bits of the complex division
    z *= 1.0 / np.sqrt(2.0)
    # each (re, im) pair read in place as re + 1j*im: no complex temporaries
    w = z.view(complex)[..., 0]
    return w if w.ndim else w[()]
