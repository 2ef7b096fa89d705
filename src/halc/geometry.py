"""Visual context windows (FOVs) and sampling strategies over the FOV space.

A FOV is a geometric descriptor (width, height, center), never a pixel crop.
Samplers produce ordered, seed-reproducible window sets used by the decoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "ImageSpec",
    "Fov",
    "expand_fov",
    "clamp_to_image",
    "sample_fovs_exponential",
    "sample_fovs_normal",
    "sample_fovs_random",
]


@dataclass(frozen=True)
class ImageSpec:
    """Extent of the (abstract) input image in pixels."""

    label: ClassVar[str] = "image"
    width: float = field(metadata={"key": "w"})
    height: float = field(metadata={"key": "h"})

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

    label: ClassVar[str] = "fov"
    width: float = field(metadata={"key": "w"})
    height: float = field(metadata={"key": "h"})
    center_x: float = field(metadata={"key": "cx"})
    center_y: float = field(metadata={"key": "cy"})

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise InvalidParameterError("fov dimensions must be positive")

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.width, self.height, self.center_x, self.center_y)

    def to_json(self) -> dict:
        # 6-decimal precision is part of the trace format; corpus files keep full precision.
        return {
            "w": round(self.width, 6),
            "h": round(self.height, 6),
            "cx": round(self.center_x, 6),
            "cy": round(self.center_y, 6),
        }


def expand_fov(base: Fov, lam: float, r: float) -> Fov:
    """Scale a window by the exponential growth factor (1 + lam)**r.

    The center is kept; the result is not clamped to any image.
    """
    scale = _growth(lam, r)
    return Fov(base.width * scale, base.height * scale, base.center_x, base.center_y)


def _growth(lam: float, r: float) -> float:
    """The growth factor (1 + lam)**r, for lam > -1; an overflow is a
    parameter error."""
    if lam <= -1:
        raise InvalidParameterError("growth factor must satisfy lambda > -1")
    try:
        return (1.0 + lam) ** r
    except OverflowError as exc:
        raise InvalidParameterError(f"growth (1 + {lam})**{r} overflows") from exc


def clamp_to_image(fov: Fov, image: ImageSpec) -> Fov:
    """Fit a window inside the image: translate first, shrink only if oversized."""
    return _clamped(fov.width, fov.height, fov.center_x, fov.center_y, image)


def _clamped(width: float, height: float, cx: float, cy: float, image: ImageSpec) -> Fov:
    w = min(width, image.width)
    h = min(height, image.height)
    cx = min(max(cx, w / 2.0), image.width - w / 2.0)
    cy = min(max(cy, h / 2.0), image.height - h / 2.0)
    return Fov(w, h, cx, cy)


def sample_fovs_exponential(
    base: Fov,
    lam: float,
    n: int,
    image: ImageSpec,
    offset: int = -1,
) -> tuple[Fov, ...]:
    """Deterministic expansion set at consecutive integer exponents.

    Exponents run from `offset` upward, so the default offset of -1 yields
    one shrunken window, the base window itself, and n-2 expansions.
    Every sample is clamped to the image.
    """
    if n < 2:
        raise InvalidParameterError("need n >= 2 samples to form divergence pairs")
    samples = []
    for r in range(offset, offset + n):
        # expand_fov then clamp_to_image, without building the unclamped
        # window: clamping keeps a non-positive size, which Fov rejects.
        scale = _growth(lam, r)
        samples.append(
            _clamped(base.width * scale, base.height * scale, base.center_x, base.center_y, image)
        )
    return tuple(samples)


def sample_fovs_normal(
    base: Fov,
    sigma: float,
    n: int,
    rng: np.random.Generator,
    image: ImageSpec,
) -> tuple[Fov, ...]:
    """Component-wise Gaussian samples around the base window.

    Draws with non-positive width or height are resampled rather than
    truncated; the accepted draws are clamped to the image.
    """
    if sigma <= 0:
        raise InvalidParameterError("sigma must be positive")
    if n < 2:
        raise InvalidParameterError("need n >= 2 samples to form divergence pairs")
    center = np.asarray(base.as_tuple(), dtype=float)
    samples = []
    for _ in range(n):
        while True:
            draw = rng.normal(loc=center, scale=sigma)
            if draw[0] > 0 and draw[1] > 0:
                break
        samples.append(clamp_to_image(Fov(*draw), image))
    return tuple(samples)


def sample_fovs_random(
    image: ImageSpec,
    n: int,
    rng: np.random.Generator,
) -> tuple[Fov, ...]:
    """Uniform random windows fully inside the image.

    Widths and heights are uniform in [0.05, 1.0] times the image extent.
    The n rows of 4 doubles come from one draw, and each window's
    arithmetic runs on Python floats: the same IEEE operations as ufuncs
    over length-n arrays, at a fraction of their call cost for a step's
    few windows.
    """
    if n < 2:
        raise InvalidParameterError("need n >= 2 samples to form divergence pairs")
    # rng.uniform(low, high) is low + (high - low) * rng.random(), so one
    # block of n rows of 4 doubles gives the per-draw values bit for bit.
    width, height = image.width, image.height
    samples = []
    for u_w, u_h, u_x, u_y in rng.random((n, 4)).tolist():
        w = (0.05 + (1.0 - 0.05) * u_w) * width
        h = (0.05 + (1.0 - 0.05) * u_h) * height
        cx = w / 2.0 + ((width - w / 2.0) - w / 2.0) * u_x
        cy = h / 2.0 + ((height - h / 2.0) - h / 2.0) * u_y
        samples.append(Fov(w, h, cx, cy))
    return tuple(samples)
