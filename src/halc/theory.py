"""Monte-Carlo verification of the FOV-sampling robustness bounds.

Everything here runs in the abstract 3-dimensional FOV vector space
(width, height, scalar center) used by the bound derivation. The minimum
decoding deviation over n sampled windows is estimated empirically and
compared against the closed-form neighborhood-hit constants for normal and
exponential-expansion sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

import numpy as np
from scipy import stats

from .distributions import jsd, softmax, total_variation
from .errors import InvalidParameterError
from .geometry import Fov
from .world import Scene, toy_model_logits

__all__ = [
    "TheoremConfig",
    "BoundReport",
    "McEstimate",
    "GaussianBumpModel",
    "SceneFovAdapter",
    "deviation_g",
    "estimate_delta",
    "c_g_estimate",
    "c_g_analytic",
    "ball_miss_probability_mc",
    "c_e_closed_form",
    "exponential_miss_probability_mc",
    "min_deviation_mc",
]

FOV_DIM = 3


@dataclass(frozen=True)
class TheoremConfig:
    """Inputs for one bound-verification run."""

    v_star: tuple[float, float, float]
    eta: tuple[float, float, float]
    epsilon: float
    delta: Optional[float] = None  # None: estimate from ball probes
    sigma: float = 1.0
    lam: float = 0.6
    r_min: float = -5.0
    r_max: float = 5.0
    n: int = 4
    trials: int = 10_000
    divergence: str = "tv"
    probes: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise InvalidParameterError("epsilon must be positive")
        if self.r_min >= self.r_max:
            raise InvalidParameterError("need r_min < r_max")
        if self.trials < 100:
            raise InvalidParameterError("need at least 100 macro trials")
        if self.sigma <= 0:
            raise InvalidParameterError("sigma must be positive")
        if self.lam <= 0:
            raise InvalidParameterError("lambda must be positive")
        if self.n < 1:
            raise InvalidParameterError("need at least one sample per trial")
        if self.divergence not in ("tv", "jsd"):
            raise InvalidParameterError("divergence must be 'tv' or 'jsd'")
        if self.probes < 10:
            raise InvalidParameterError("need at least 10 ball probes")

    @property
    def v_d(self) -> np.ndarray:
        return np.asarray(self.v_star, dtype=float) + np.asarray(self.eta, dtype=float)


@dataclass(frozen=True)
class McEstimate:
    value: float
    stderr: float
    trials: int


@dataclass(frozen=True)
class BoundReport:
    sampler: str
    divergence: str
    n: int
    trials: int
    delta: float
    analytic_c: float
    analytic_miss: float
    empirical_miss: float
    bound: float
    mean_min_deviation: float
    violation_fraction: float
    min_deviation_samples: np.ndarray

    @property
    def expectation_holds(self) -> bool:
        return self.mean_min_deviation <= self.bound + 1e-12

    def to_csv_row(self) -> dict:
        return {
            "sampler": self.sampler,
            "divergence": self.divergence,
            "n": self.n,
            "trials": self.trials,
            "delta": self.delta,
            "analytic_c": self.analytic_c,
            "analytic_miss": self.analytic_miss,
            "empirical_miss": self.empirical_miss,
            "bound": self.bound,
            "mean_min_deviation": self.mean_min_deviation,
            "violation_fraction": self.violation_fraction,
        }


# ---------------------------------------------------------------------------
# Conditional models over the abstract FOV space
# ---------------------------------------------------------------------------


class FovConditionalModel(Protocol):
    def dists(self, points: np.ndarray) -> np.ndarray:
        """Token distributions for an (N, 3) array of FOV vectors."""


@dataclass(frozen=True)
class GaussianBumpModel:
    """Two-token model: one token peaks at a center, the other is flat.

    The output deviation from the center distribution grows monotonically
    with distance and saturates below sigmoid(amp) - 0.5, which keeps the
    per-trial bound checks interpretable.
    """

    center: tuple[float, float, float]
    amp: float = 1.0
    width: float = 1.0

    def dists(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d2 = ((pts - np.asarray(self.center, dtype=float)) ** 2).sum(axis=1)
        bump = self.amp * np.exp(-d2 / (2.0 * self.width**2))
        expo = np.exp(bump)
        p0 = expo / (expo + 1.0)
        return np.stack([p0, 1.0 - p0], axis=1)


class SceneFovAdapter:
    """Expose a synthetic scene as a model over 3-vectors.

    The scalar center coordinate p maps to a 2-D displacement along a fixed
    unit direction from the anchor center; width/height pass through with a
    tiny positivity floor. Decoding uses bare visual conditioning.
    """

    def __init__(self, scene: Scene, anchor: Fov, direction: tuple[float, float] = (1.0, 0.0)):
        self.scene = scene
        self.anchor = anchor
        norm = math.hypot(*direction)
        self.direction = (direction[0] / norm, direction[1] / norm)

    def to_fov(self, point: Sequence[float]) -> Fov:
        w = max(float(point[0]), 1e-6)
        h = max(float(point[1]), 1e-6)
        return Fov(
            w,
            h,
            self.anchor.center_x + float(point[2]) * self.direction[0],
            self.anchor.center_y + float(point[2]) * self.direction[1],
        )

    def dists(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        rows = [softmax(toy_model_logits(self.scene, self.to_fov(p), None)) for p in pts]
        return np.stack(rows, axis=0)


def _divergence_batch(d_star: np.ndarray, d_points: np.ndarray, divergence: str):
    """TV or JSD between `d_star` and each row of `d_points`; a 1-D `d_star`
    broadcasts against the rows without being copied."""
    if divergence == "tv":
        return total_variation(d_star, d_points)
    if divergence == "jsd":
        return jsd(d_star, d_points)
    raise InvalidParameterError("divergence must be 'tv' or 'jsd'")


def deviation_g(v_star_fov: Fov, v_fov: Fov, scene: Scene, divergence: str = "tv") -> float:
    """Divergence between the scene model's distributions at two windows,
    under bare visual conditioning."""
    p = softmax(toy_model_logits(scene, v_star_fov, None))
    q = softmax(toy_model_logits(scene, v_fov, None))
    return _divergence_batch(p, q, divergence)


# ---------------------------------------------------------------------------
# Robustness radius
# ---------------------------------------------------------------------------


def _uniform_ball(
    center: np.ndarray,
    radius: float,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    directions = rng.normal(size=(count, FOV_DIM))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = radius * rng.uniform(size=(count, 1)) ** (1.0 / FOV_DIM)
    return center + directions * radii


def estimate_delta(
    subject: FovConditionalModel,
    v_star: Sequence[float],
    epsilon: float,
    probes: int,
    rng: np.random.Generator,
    divergence: str = "tv",
) -> float:
    """Empirical robustness level: max deviation over uniform probes of the
    epsilon-ball around the optimum."""
    if probes < 10:
        raise InvalidParameterError("need at least 10 ball probes")
    center = np.asarray(v_star, dtype=float)
    points = _uniform_ball(center, epsilon, probes, rng)
    d_star = subject.dists(center[None, :])[0]
    devs = _divergence_batch(d_star, subject.dists(points), divergence)
    return float(devs.max())


# ---------------------------------------------------------------------------
# Normal-sampling constants
# ---------------------------------------------------------------------------


def c_g_estimate(
    epsilon: float,
    eta: Sequence[float],
    sigma: float,
    mc_trials: int,
    rng: np.random.Generator,
) -> McEstimate:
    """Monte-Carlo mass of the epsilon-ball under N(eta, sigma^2 I_3)."""
    if mc_trials < 10_000:
        raise InvalidParameterError("need at least 1e4 Monte-Carlo trials")
    draws = rng.normal(loc=np.asarray(eta, dtype=float), scale=sigma, size=(mc_trials, FOV_DIM))
    hits = np.linalg.norm(draws, axis=1) <= epsilon
    value = float(hits.mean())
    stderr = math.sqrt(max(value * (1.0 - value), 1e-12) / mc_trials)
    return McEstimate(value=value, stderr=stderr, trials=mc_trials)


def c_g_analytic(epsilon: float, eta: Sequence[float], sigma: float) -> float:
    """Exact Gaussian ball mass via the noncentral chi-square distribution."""
    nc = float(np.linalg.norm(np.asarray(eta, dtype=float)) ** 2) / sigma**2
    x = (epsilon / sigma) ** 2
    if nc == 0.0:
        return float(stats.chi2.cdf(x, FOV_DIM))
    return float(stats.ncx2.cdf(x, FOV_DIM, nc))


def ball_miss_probability_mc(
    epsilon: float,
    eta: Sequence[float],
    sigma: float,
    n: int,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Empirical probability that none of n Gaussian FOV samples lands in the
    epsilon-ball around the optimum."""
    draws = rng.normal(
        loc=np.asarray(eta, dtype=float), scale=sigma, size=(trials, n, FOV_DIM)
    )
    hits = np.linalg.norm(draws, axis=2) <= epsilon
    return float((~hits.any(axis=1)).mean())


# ---------------------------------------------------------------------------
# Exponential-expansion constants
# ---------------------------------------------------------------------------


def c_e_closed_form(
    epsilon: float,
    v_star: Sequence[float],
    v_d: Sequence[float],
    lam: float,
    r_min: float,
    r_max: float,
) -> float:
    """Closed-form hit fraction of the uniform exponent interval.

    Requires the center-proximity and shared-aspect-ratio conditions of the
    exponential-sampling bound; returns 0 when the clamped exponent interval
    is empty.
    """
    ws, hs, ps = (float(x) for x in v_star)
    wd, hd, pd = (float(x) for x in v_d)
    if lam <= 0:
        raise InvalidParameterError("lambda must be positive")
    if r_min >= r_max:
        raise InvalidParameterError("need r_min < r_max")
    if epsilon**2 <= (pd - ps) ** 2:
        raise InvalidParameterError("center offset exceeds the neighborhood radius")
    if abs(wd * hs - hd * ws) > 1e-9 * max(abs(wd * hs), abs(hd * ws), 1.0):
        raise InvalidParameterError("detection and optimum must share an aspect ratio")

    c_a = (epsilon**2 - (pd - ps) ** 2) / (wd**2 + hd**2)
    c_b = (wd * ws + hd * hs) / (wd**2 + hd**2)
    root = math.sqrt(c_a)
    log_growth = math.log(1.0 + lam)
    upper = math.log(c_b + root) / log_growth
    if c_b > root:
        lower = math.log(c_b - root) / log_growth
    else:
        lower = r_min
    c_min = max(r_min, lower)
    c_max = min(r_max, upper)
    if c_max <= c_min:
        return 0.0
    return (c_max - c_min) / (r_max - r_min)


def exponential_miss_probability_mc(
    epsilon: float,
    v_star: Sequence[float],
    v_d: Sequence[float],
    lam: float,
    r_min: float,
    r_max: float,
    n: int,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Empirical miss probability with continuous uniform exponents."""
    ws, hs, ps = (float(x) for x in v_star)
    wd, hd, pd = (float(x) for x in v_d)
    r = rng.uniform(r_min, r_max, size=(trials, n))
    scale = (1.0 + lam) ** r
    dw = scale * wd - ws
    dh = scale * hd - hs
    dp = pd - ps
    dist = np.sqrt(dw**2 + dh**2 + dp**2)
    hits = dist <= epsilon
    return float((~hits.any(axis=1)).mean())


# ---------------------------------------------------------------------------
# Full bound verification
# ---------------------------------------------------------------------------


def min_deviation_mc(
    subject: FovConditionalModel,
    config: TheoremConfig,
    sampler: str,
) -> BoundReport:
    """Estimate the distribution of the minimum decoding deviation over n
    FOV samples and compare against delta + (1 - C)^n.

    Trials are seeded independently of the delta estimation so results do
    not depend on evaluation order.
    """
    if sampler not in ("normal", "exponential"):
        raise InvalidParameterError("sampler must be 'normal' or 'exponential'")
    seeds = np.random.SeedSequence(config.seed).spawn(2)
    delta_rng = np.random.default_rng(seeds[0])
    sample_rng = np.random.default_rng(seeds[1])

    v_star = np.asarray(config.v_star, dtype=float)
    v_d = config.v_d

    if sampler == "normal":
        points = sample_rng.normal(loc=v_d, scale=config.sigma, size=(config.trials, config.n, FOV_DIM))
        analytic_c = c_g_analytic(config.epsilon, config.eta, config.sigma)
    else:
        r = sample_rng.uniform(config.r_min, config.r_max, size=(config.trials, config.n))
        scale = (1.0 + config.lam) ** r
        points = np.empty((config.trials, config.n, FOV_DIM))
        points[:, :, 0] = scale * v_d[0]
        points[:, :, 1] = scale * v_d[1]
        points[:, :, 2] = v_d[2]
        analytic_c = c_e_closed_form(
            config.epsilon, config.v_star, tuple(v_d), config.lam, config.r_min, config.r_max
        )

    delta = config.delta
    if delta is None:
        delta = estimate_delta(
            subject, config.v_star, config.epsilon, config.probes, delta_rng, config.divergence
        )

    flat = points.reshape(-1, FOV_DIM)
    d_star = subject.dists(v_star[None, :])[0]
    devs = _divergence_batch(d_star, subject.dists(flat), config.divergence)
    devs = devs.reshape(config.trials, config.n)
    min_devs = devs.min(axis=1)

    dist_to_star = np.linalg.norm(points - v_star, axis=2)
    empirical_miss = float((~(dist_to_star <= config.epsilon).any(axis=1)).mean())

    analytic_miss = (1.0 - analytic_c) ** config.n
    bound = delta + analytic_miss
    violations = float((min_devs > bound + 1e-12).mean())

    return BoundReport(
        sampler=sampler,
        divergence=config.divergence,
        n=config.n,
        trials=config.trials,
        delta=float(delta),
        analytic_c=float(analytic_c),
        analytic_miss=float(analytic_miss),
        empirical_miss=empirical_miss,
        bound=float(bound),
        mean_min_deviation=float(min_devs.mean()),
        violation_fraction=violations,
        min_deviation_samples=min_devs,
    )
