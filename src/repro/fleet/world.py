"""A synthetic, *learnable* driving world for the continuous loop.

The continuum loop needs driving data whose frames actually predict the
expert steering command — otherwise retraining could never improve the
fleet and promotion gates would be noise.  :class:`SyntheticTrackWorld`
generates camera frames whose pixels are an affine function of two
latent track variables (lateral offset and upcoming curvature) plus
seeded sensor noise, and labels each frame with the expert command::

    angle    = clip(-(k_offset * offset + k_curv * curvature), -1, 1)
    throttle = base - slowdown * |angle|

A model trained on these shards genuinely learns to steer (falling
cross-track error); a *poisoned* round inverts the recorded steering
labels, producing the confidently-wrong candidate the rollback tests
need.  Everything is a pure function of the structure seed and the
caller-supplied stream, so identical seeds yield identical worlds.

:meth:`SyntheticTrackWorld.sample_many` draws one flush for many cars
at once: each car draws its latents and noise from its own stream, and
the pixel arithmetic runs in one broadcast over a chunk of whole cars.
:meth:`~SyntheticTrackWorld.sample` is its one-stream call.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.params import frame_hw_param
from repro.common.rng import ensure_rng

__all__ = ["SyntheticTrackWorld"]

#: Float64 values one broadcast of the pixel arithmetic holds: a chunk is
#: as many whole cars as fit, and at least one.  A whole-wave broadcast
#: of large frames falls out of cache and runs slower than chunks.
_CHUNK_VALUES = 1 << 16


class SyntheticTrackWorld:
    """Deterministic frame/label generator with a learnable structure."""

    def __init__(
        self,
        frame_hw: tuple[int, int] = (16, 24),
        seed: int | np.random.Generator | None = None,
        noise: float = 6.0,
        k_offset: float = 0.9,
        k_curv: float = 0.35,
    ) -> None:
        h, w = frame_hw_param(frame_hw, "frame_hw")
        if not (math.isfinite(noise) and noise >= 0):
            raise ConfigurationError(f"noise must be finite and >= 0, got {noise}")
        if not (math.isfinite(k_offset) and math.isfinite(k_curv)):
            raise ConfigurationError(
                f"k_offset and k_curv must be finite, got {k_offset}, {k_curv}"
            )
        rng = ensure_rng(seed)
        self.frame_hw = (h, w)
        self.noise = float(noise)
        self.k_offset = float(k_offset)
        self.k_curv = float(k_curv)
        # Fixed "scene" structure: a base image plus one gradient image
        # per latent variable.  Frames are base + offset * g_off +
        # curvature * g_curv (+ noise) — linearly decodable, so even a
        # small model can learn the steering function from few shards.
        self._base = rng.uniform(90.0, 160.0, (h, w, 3))
        self._g_offset = rng.normal(0.0, 38.0, (h, w, 3))
        self._g_curv = rng.normal(0.0, 24.0, (h, w, 3))

    @property
    def frame_shape(self) -> tuple[int, int, int]:
        """Model input shape ``(H, W, 3)``."""
        return (self.frame_hw[0], self.frame_hw[1], 3)

    def sample(
        self,
        rng: int | np.random.Generator | None,
        n: int,
        poisoned: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` labelled records from ``rng``.

        Returns ``(frames, labels)``: uint8 frames ``(n, H, W, 3)`` and
        float32 labels ``(n, 2)`` as ``[angle, throttle]`` rows.  A
        poisoned draw inverts the recorded steering labels (the frames
        stay honest) — training on it yields a model that confidently
        steers the wrong way.
        """
        frames, labels = self.sample_many([rng], n, poisoned=poisoned)
        return frames[0], labels[0]

    def sample_many(
        self,
        rngs: Iterable[int | np.random.Generator | None],
        n: int,
        poisoned: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` labelled records from each stream of ``rngs``.

        Returns uint8 frames ``(k, n, H, W, 3)`` and float32 labels
        ``(k, n, 2)`` for ``k`` streams; row ``i`` is bit for bit what
        :meth:`sample` draws from stream ``i``, and each stream ends in
        the same state.  Streams draw in order, each its two latents per
        record and then its pixel noise, so a stream listed twice draws
        as two :meth:`sample` calls would.
        """
        if n < 1:
            raise ConfigurationError(f"need n >= 1 records, got {n}")
        gens = [ensure_rng(rng) for rng in rngs]
        if not gens:
            raise ConfigurationError("need at least one stream")
        k = len(gens)
        shape = (n,) + self.frame_shape
        chunk = min(k, max(1, _CHUNK_VALUES // math.prod(shape)))
        latents = np.empty((k, 2, n))
        frames = np.empty((k,) + shape, dtype=np.uint8)
        pixels = np.empty((chunk,) + shape)
        term = np.empty_like(pixels)
        noise = np.empty_like(pixels) if self.noise > 0 else None
        for lo in range(0, k, chunk):
            hi = min(lo + chunk, k)
            for index in range(lo, hi):
                gen = gens[index]
                # uniform(-1, 1, (2, n)) draws as uniform(n) twice, and
                # normal(0, s) is 0.0 + s * standard_normal, bit for bit.
                latents[index] = gen.uniform(-1.0, 1.0, (2, n))
                if noise is not None:
                    gen.standard_normal(out=noise[index - lo])
            # frames = base + offset * g_off + curvature * g_curv + noise,
            # each sum in the same order as one car at a time.
            block, extra = pixels[: hi - lo], term[: hi - lo]
            np.multiply(
                latents[lo:hi, 0, :, None, None, None], self._g_offset, out=block
            )
            block += self._base
            np.multiply(
                latents[lo:hi, 1, :, None, None, None], self._g_curv, out=extra
            )
            block += extra
            if noise is not None:
                jitter = noise[: hi - lo]
                jitter *= self.noise
                block += jitter
            np.clip(block, 0.0, 255.0, out=block)
            frames[lo:hi] = block
        offsets, curvatures = latents[:, 0], latents[:, 1]
        angles = np.clip(
            -(self.k_offset * offsets + self.k_curv * curvatures), -1.0, 1.0
        )
        if poisoned:
            angles = -angles
        throttles = 0.55 - 0.25 * np.abs(angles)
        labels = np.stack([angles, throttles], axis=-1).astype(np.float32)
        return frames, labels

    def eval_pool(
        self, n: int, seed: int | np.random.Generator | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """A held-out labelled pool (never poisoned) for gates/serving."""
        return self.sample(ensure_rng(seed), n, poisoned=False)

    def steering_error(self, model, frames: np.ndarray, labels: np.ndarray) -> float:
        """Mean |predicted − expert| steering error of ``model``."""
        if len(frames) == 0:
            raise ConfigurationError("steering_error needs at least one frame")
        commands = model.predict_frames(frames)
        return float(np.mean(np.abs(commands[:, 0] - labels[:, 0])))
