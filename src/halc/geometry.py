"""Visual context windows (FOVs) and sampling strategies over the FOV space.

A FOV is a geometric descriptor (width, height, center), never a pixel crop.
Samplers produce ordered, seed-reproducible window sets used by the decoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "ImageSpec",
    "Fov",
    "FovSampleSet",
    "expand_fov",
    "clamp_to_image",
    "fov_distance",
    "sample_fovs_exponential",
    "sample_fovs_normal",
    "sample_fovs_random",
]


@dataclass(frozen=True)
class ImageSpec:
    """Extent of the (abstract) input image in pixels."""

    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise InvalidParameterError("image dimensions must be positive")

    @property
    def area(self) -> float:
        return self.width * self.height

    def full_fov(self) -> "Fov":
        return Fov(self.width, self.height, self.width / 2.0, self.height / 2.0)


@dataclass(frozen=True)
class Fov:
    """A rectangular visual context window: dimensions plus 2-D center."""

    width: float
    height: float
    center_x: float
    center_y: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise InvalidParameterError("fov dimensions must be positive")

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.width, self.height, self.center_x, self.center_y)

    def to_json(self) -> dict:
        # 6-decimal fixed precision is part of the harness output contract.
        return {
            "w": round(self.width, 6),
            "h": round(self.height, 6),
            "cx": round(self.center_x, 6),
            "cy": round(self.center_y, 6),
        }

    @staticmethod
    def from_json(doc: dict) -> "Fov":
        return Fov(doc["w"], doc["h"], doc["cx"], doc["cy"])


@dataclass(frozen=True)
class FovSampleSet:
    """Ordered FOV samples plus the exponents or Gaussian draws behind them."""

    samples: tuple[Fov, ...]
    exponents_or_draws: tuple

    def __len__(self) -> int:
        return len(self.samples)


def expand_fov(base: Fov, lam: float, r: float) -> Fov:
    """Scale a window by the exponential growth factor (1 + lam)**r.

    The center is kept; the result is not clamped to any image.
    """
    if lam <= -1:
        raise InvalidParameterError("growth factor must satisfy lambda > -1")
    scale = (1.0 + lam) ** r
    return Fov(base.width * scale, base.height * scale, base.center_x, base.center_y)


def clamp_to_image(fov: Fov, image: ImageSpec) -> Fov:
    """Fit a window inside the image: translate first, shrink only if oversized."""
    return _clamped(fov.width, fov.height, fov.center_x, fov.center_y, image)


def _clamped(width: float, height: float, cx: float, cy: float, image: ImageSpec) -> Fov:
    w = min(width, image.width)
    h = min(height, image.height)
    cx = min(max(cx, w / 2.0), image.width - w / 2.0)
    cy = min(max(cy, h / 2.0), image.height - h / 2.0)
    return Fov(w, h, cx, cy)


def fov_distance(a: Fov, b: Fov) -> float:
    """Euclidean distance over the (width, height, center_x, center_y) vector."""
    return math.dist(a.as_tuple(), b.as_tuple())


def sample_fovs_exponential(
    base: Fov,
    lam: float,
    n: int,
    image: ImageSpec,
    offset: int = -1,
) -> FovSampleSet:
    """Deterministic expansion set at consecutive integer exponents.

    Exponents run from `offset` upward, so the default offset of -1 yields
    one shrunken window, the base window itself, and n-2 expansions.
    Every sample is clamped to the image.
    """
    if n < 2:
        raise InvalidParameterError("need n >= 2 samples to form divergence pairs")
    if lam <= -1:
        raise InvalidParameterError("growth factor must satisfy lambda > -1")
    exponents = tuple(range(offset, offset + n))
    samples = []
    for r in exponents:
        # expand_fov then clamp_to_image, without building the unclamped
        # window: clamping keeps a non-positive size, which Fov rejects.
        scale = (1.0 + lam) ** r
        samples.append(
            _clamped(base.width * scale, base.height * scale, base.center_x, base.center_y, image)
        )
    return FovSampleSet(samples=tuple(samples), exponents_or_draws=exponents)


def sample_fovs_normal(
    base: Fov,
    sigma: float,
    n: int,
    rng: np.random.Generator,
    image: ImageSpec,
) -> FovSampleSet:
    """Component-wise Gaussian samples around the base window.

    Draws with non-positive width or height are resampled rather than
    truncated; accepted raw draws are recorded alongside the clamped FOVs.
    """
    if sigma <= 0:
        raise InvalidParameterError("sigma must be positive")
    if n < 2:
        raise InvalidParameterError("need n >= 2 samples to form divergence pairs")
    center = np.asarray(base.as_tuple(), dtype=float)
    samples = []
    draws = []
    for _ in range(n):
        while True:
            draw = rng.normal(loc=center, scale=sigma)
            if draw[0] > 0 and draw[1] > 0:
                break
        draws.append(tuple(draw))
        samples.append(clamp_to_image(Fov(*draw), image))
    return FovSampleSet(samples=tuple(samples), exponents_or_draws=tuple(draws))


def sample_fovs_random(
    image: ImageSpec,
    n: int,
    rng: np.random.Generator,
) -> FovSampleSet:
    """Uniform random windows fully inside the image.

    Widths and heights are uniform in [0.05, 1.0] times the image extent.
    """
    if n < 2:
        raise InvalidParameterError("need n >= 2 samples to form divergence pairs")
    # rng.uniform(low, high) is low + (high - low) * rng.random(), so one
    # block of n rows of 4 doubles gives the per-draw values bit for bit.
    u = rng.random((n, 4))
    w = (0.05 + (1.0 - 0.05) * u[:, 0]) * image.width
    h = (0.05 + (1.0 - 0.05) * u[:, 1]) * image.height
    cx = w / 2.0 + ((image.width - w / 2.0) - w / 2.0) * u[:, 2]
    cy = h / 2.0 + ((image.height - h / 2.0) - h / 2.0) * u[:, 3]
    draws = tuple(zip(w.tolist(), h.tolist(), cx.tolist(), cy.tolist()))
    return FovSampleSet(samples=tuple(Fov(*d) for d in draws), exponents_or_draws=draws)
