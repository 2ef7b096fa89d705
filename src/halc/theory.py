"""Monte-Carlo verification of the FOV-sampling robustness bounds.

Everything here runs in the abstract 3-dimensional FOV vector space
(width, height, scalar center) used by the bound derivation. The minimum
decoding deviation over n sampled windows is estimated empirically and
compared against the closed-form neighborhood-hit constants for normal and
exponential-expansion sampling. The normal-sampling constant, the Gaussian
mass of the epsilon-ball, comes from scipy.special's chndtr/chdtr: the
chi-square CDFs that ncx2 and chi2 in scipy's stats subpackage call, without
the second it takes to import that subpackage.

A `TheoremConfig` is one grid point (sampler, epsilon, eta, sigma, n) and
the whole problem checked there: its subject is the bump model it builds,
centred at the optimum v_star with the config's amp, and its constant C is
computed when it is built, so a grid point whose C overflows, divides by 0
or is NaN is rejected before any trial is drawn. As in the bound's
argument, where a window within epsilon of the optimum bounds the
deviation by delta, the bump's minimum deviation is its deviation at each
trial's nearest window, the only window at which it is evaluated. A sweep
draws the trial set of each (sampler, n) once, in chunks of trials
(`draw_trials`), scores each chunk once per (eta, sigma)
(`min_deviation_mc`: each trial's minimum deviation and distance to the
optimum) and reports each epsilon on the whole set (`bound_report`).

numpy reduces a short axis row by row, so the Monte-Carlo arrays are never
reduced over their 3-wide FOV axis or their n-wide window axis. They are
combined column by column instead, in the order the axis reduction would
use, which gives the same bits in a few whole-array passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional, Sequence

import numpy as np
from scipy import special

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
    "estimate_delta",
    "c_g_estimate",
    "c_g_analytic",
    "ball_miss_probability_mc",
    "c_e_closed_form",
    "exponential_miss_probability_mc",
    "draw_trials",
    "min_deviation_mc",
    "bound_report",
]

FOV_DIM = 3
# Uniform epsilon-ball probes behind each bound report's delta estimate.
DELTA_PROBES = 200


@dataclass(frozen=True)
class TheoremConfig:
    """One point of the bound's grid, with the trial set that checks it,
    `bump`, the subject it is checked on, built from v_star and amp, and
    `analytic_c`, the constant C of its bound delta + (1 - C)**n. A C that
    cannot be computed, and an eta whose norm overflows, are rejected when
    the config is built."""

    v_star: tuple[float, float, float]
    eta: tuple[float, float, float]
    epsilon: float
    sampler: str = "normal"
    sigma: float = 1.0
    lam: float = 0.6
    r_min: float = -5.0
    r_max: float = 5.0
    n: int = 4
    trials: int = 10_000
    divergence: str = "tv"
    seed: int = 0
    amp: float = 1.0
    bump: GaussianBumpModel = field(init=False, repr=False, compare=False)
    analytic_c: float = field(init=False, compare=False)

    # chndtr's noncentrality squares eta's norm, which may overflow.
    @np.errstate(all="ignore")
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
        if self.sampler not in ("normal", "exponential"):
            raise InvalidParameterError("sampler must be 'normal' or 'exponential'")
        if self.divergence not in ("tv", "jsd"):
            raise InvalidParameterError("divergence must be 'tv' or 'jsd'")
        object.__setattr__(self, "bump", GaussianBumpModel(center=self.v_star, amp=self.amp))
        if not math.isfinite(math.hypot(*self.eta)):  # theorem.csv's eta_norm
            raise InvalidParameterError("the norm of eta overflows")
        try:
            if self.sampler == "normal":
                c = c_g_analytic(self.epsilon, self.eta, self.sigma)
            else:
                c = c_e_closed_form(
                    self.epsilon, self.v_star, tuple(self.v_d), self.lam, self.r_min, self.r_max
                )
        except OverflowError:  # a Python float ** 2
            raise InvalidParameterError("the hit constant C overflows") from None
        except ZeroDivisionError:  # a sigma whose square is 0
            raise InvalidParameterError("the hit constant C divides by 0") from None
        if math.isnan(c):  # chndtr's, from a noncentrality of about 1e19 on
            raise InvalidParameterError("the hit constant C is NaN")
        object.__setattr__(self, "analytic_c", c)

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
    config: TheoremConfig
    delta: float
    analytic_c: float
    analytic_miss: float
    empirical_miss: float
    bound: float
    mean_min_deviation: float
    violation_fraction: float

    def to_csv_row(self) -> dict:
        """The theorem.csv row: the grid point, then the report's fields."""
        cfg = self.config
        return {
            "epsilon": cfg.epsilon,
            "eta_norm": math.hypot(*cfg.eta),
            "sigma": cfg.sigma if cfg.sampler == "normal" else "",
            "sampler": cfg.sampler,
            "divergence": cfg.divergence,
            "n": cfg.n,
            "trials": cfg.trials,
            **{f.name: getattr(self, f.name) for f in fields(self) if f.name != "config"},
        }


# ---------------------------------------------------------------------------
# Conditional models over the abstract FOV space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianBumpModel:
    """Two-token model: one token peaks at a center, the other is flat.

    The output deviation from the center distribution grows monotonically
    with distance and saturates below sigmoid(amp) - 0.5, which keeps the
    per-trial bound checks interpretable, and makes the nearest window's
    deviation a trial's minimum (`min_deviation_mc`).
    """

    center: tuple[float, float, float]
    amp: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.amp):
            raise InvalidParameterError("bump amp must be finite")

    def dists(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.dists_at(_squared_distance(pts, np.asarray(self.center, dtype=float)))

    def dists_at(self, d2: np.ndarray) -> np.ndarray:
        """The rows of `dists` for windows at squared distances `d2` (1-D)
        from the center, computed in place: `d2` is overwritten."""
        # The bump amp * exp(-d2 / 2), then its exponential expo, then
        # p0 = expo / (expo + 1) beside 1 - p0.
        expo = d2
        np.negative(expo, out=expo)
        expo /= 2.0
        np.exp(expo, out=expo)
        expo *= self.amp
        np.exp(expo, out=expo)
        out = np.empty((len(expo), 2))
        p0, p1 = out[:, 0], out[:, 1]
        np.add(expo, 1.0, out=p1)
        np.divide(expo, p1, out=p0)
        np.subtract(1.0, p0, out=p1)
        return out


# No halc code scores a SceneFovAdapter. It stays because the benchmark's
# span recorder (perfbench/probes.py) wraps its dists.
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


def _squared_distance(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of each 3-vector in `points` (last axis)
    from `center`.

    The three columns are added left to right, the order numpy's sum over a
    3-wide axis uses, so the result is bit-identical to
    ((points - center) ** 2).sum(axis=-1).
    """
    d0 = points[..., 0] - center[0]
    d1 = points[..., 1] - center[1]
    d2 = points[..., 2] - center[2]
    d0 *= d0
    d1 *= d1
    d2 *= d2
    d0 += d1
    d0 += d2
    return d0


def _row_min(values: np.ndarray) -> np.ndarray:
    """The minimum of each row of a (trials, n) array, skipping NaN, taken
    column by column with np.fmin.

    The same bits as np.fmin.reduce(values, axis=1) for rows without -0.0
    and with one NaN bit pattern; distances are never -0.0.
    """
    out = values[:, 0].copy()
    for column in range(1, values.shape[1]):
        np.fmin(out, values[:, column], out=out)
    return out


def _divergence_batch(d_star: np.ndarray, d_points: np.ndarray, divergence: str):
    """TV or JSD between `d_star` and each row of `d_points`; a 1-D `d_star`
    broadcasts against the rows without being copied."""
    if divergence == "tv":
        return total_variation(d_star, d_points)
    if divergence == "jsd":
        return jsd(d_star, d_points)
    raise InvalidParameterError("divergence must be 'tv' or 'jsd'")


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
    subject: GaussianBumpModel,
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
    """Exact Gaussian ball mass: the noncentral chi-square CDF chndtr, or
    the central one chdtr when eta is 0.

    These are the ufuncs that ncx2.cdf and chi2.cdf call, and give their
    bits. Like those, the mass is 0 and 1 at the ends of the support,
    x = 0 and x = inf, where chndtr gives NaN for a huge nc.
    """
    nc = float(np.linalg.norm(np.asarray(eta, dtype=float)) ** 2) / sigma**2
    x = (epsilon / sigma) ** 2
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    if nc == 0.0:
        return float(special.chdtr(FOV_DIM, x))
    return float(special.chndtr(x, FOV_DIM, nc))


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
    is empty or no positive scale of the detection reaches the ball.
    """
    ws, hs, ps = (float(x) for x in v_star)
    wd, hd, pd = (float(x) for x in v_d)
    if not 1.0 + lam > 1.0:  # the exponents are divided by ln(1 + lam)
        raise InvalidParameterError("lambda must be positive, with 1 + lambda above 1")
    if r_min >= r_max:
        raise InvalidParameterError("need r_min < r_max")
    if epsilon**2 <= (pd - ps) ** 2:
        raise InvalidParameterError("center offset exceeds the neighborhood radius")
    if abs(wd * hs - hd * ws) > 1e-9 * max(abs(wd * hs), abs(hd * ws), 1.0):
        raise InvalidParameterError("detection and optimum must share an aspect ratio")

    size2 = wd**2 + hd**2
    if size2 == 0.0:
        raise InvalidParameterError("the detection window must have a nonzero size")
    if size2 == math.inf:  # a detection at infinity: every scale of it is too
        return 0.0
    c_a = (epsilon**2 - (pd - ps) ** 2) / size2
    c_b = (wd * ws + hd * hs) / size2
    root = math.sqrt(c_a)
    if c_b + root <= 0.0:
        return 0.0
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


# Trials drawn and scored at a time. The sweep's work arrays scale with
# this, not with the trial count: 8192 trials of n = 8 are 1.5 MB of normal
# draws. Measured on the default grid at 100k trials (2-core Xeon, medians
# of 7 sweeps), 8192 gave the fastest sweep, 0.19 s; 1024 cost 0.26 s in
# per-chunk calls, and 32768 0.23 s and 7.5 MB more peak RSS.
TRIAL_CHUNK = 8192


def draw_trials(config: TheoremConfig) -> Iterator[np.ndarray]:
    """The random draw of a config's trial set, as consecutive chunks of at
    most `TRIAL_CHUNK` trials: (rows, n, 3) standard normals for normal
    sampling, (rows, n) window scales (1 + lam)**r for exponential
    sampling.

    The chunks come from one generator, which fills them in C order, so
    their concatenation is the (trials, ...) block that one draw of the
    whole set gives, bit for bit. The draw depends on the sampler, seed,
    trials and n, and for exponential sampling on lam and the r range, but
    not on eta, sigma or epsilon: `min_deviation_mc` scores each chunk for
    every (eta, sigma) that shares those inputs. Trials are seeded
    independently of the delta estimation so results do not depend on
    evaluation order. The generator keeps no chunk once it has yielded it.
    """
    sample_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[1])
    for start in range(0, config.trials, TRIAL_CHUNK):
        yield _draw_chunk(config, sample_rng, min(TRIAL_CHUNK, config.trials - start))


# A huge lam overflows the scales to inf, so, as in `min_deviation_mc`,
# floating-point warnings are off. They are turned off here, for each
# chunk's draw, and not around the generator's yield, where they would stay
# off in the caller while the generator waits.
@np.errstate(all="ignore")
def _draw_chunk(config: TheoremConfig, rng: np.random.Generator, rows: int) -> np.ndarray:
    if config.sampler == "normal":
        return rng.standard_normal((rows, config.n, FOV_DIM))
    return (1.0 + config.lam) ** rng.uniform(config.r_min, config.r_max, size=(rows, config.n))


def _window_coordinate(
    block: np.ndarray, config: TheoremConfig, v_d: np.ndarray, k: int, out: np.ndarray
) -> np.ndarray:
    """Coordinate k of every window of a trial block, written into the
    (trials, n) array `out`: v_d + sigma * z for normal sampling (the
    values normal(loc=v_d, scale=sigma) returns for the same standard
    normals z), scale * v_d for exponential sampling, whose center
    coordinate stays v_d[2]."""
    if config.sampler == "normal":
        np.multiply(block[..., k], config.sigma, out=out)
        out += v_d[k]
    elif k < 2:
        np.multiply(block, v_d[k], out=out)
    else:
        out[...] = v_d[k]
    return out


def _squared_window_distance(
    block: np.ndarray, config: TheoremConfig, v_d: np.ndarray, center: np.ndarray
) -> np.ndarray:
    """The squared distance of every window of a trial block from `center`,
    as a (trials, n) array, without building the windows.

    The coordinate differences are squared and added left to right, column
    by column, so the result is bit-identical to _squared_distance of the
    windows.
    """
    dist = np.empty(block.shape[:2])
    column = np.empty_like(dist)
    for k in range(FOV_DIM):
        target = column if k else dist
        _window_coordinate(block, config, v_d, k, target)
        target -= center[k]
        target *= target
        if k:
            dist += column
    return dist


def _window_distance(
    block: np.ndarray, config: TheoremConfig, v_d: np.ndarray, center: np.ndarray
) -> np.ndarray:
    """The distance of every window of a trial block from `center`, taken
    with hypot, which stays finite where the squared distance overflows (a
    coordinate difference above about 1.3e154)."""
    dist = np.zeros(block.shape[:2])
    column = np.empty_like(dist)
    for k in range(FOV_DIM):
        _window_coordinate(block, config, v_d, k, column)
        column -= center[k]
        np.hypot(dist, column, out=dist)
    return dist


@np.errstate(all="ignore")
def min_deviation_mc(
    config: TheoremConfig, block: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """The scores of a config's trials on its bump: each trial's minimum
    deviation and minimum distance to the optimum over its n sampled
    windows, as two (rows,) arrays, which `bound_report` reads for the
    whole trial set.

    `block` is 1 to `config.trials` rows of the config's draw, in the
    shape of a `draw_trials` chunk: a chunk, or, when None, the whole trial
    set, drawn here. It is read, never written. Each trial is scored on its
    own, so the scores of consecutive chunks, concatenated, are those of
    the whole set. The scores do not depend on epsilon, so one scored trial
    set serves every epsilon of a grid point.

    Each window's squared distance to the optimum is measured once, without
    building the windows, for the hit test. The bump is evaluated at each
    trial's nearest window (NaN distances skipped) only, and its deviation
    there is the trial's minimum. In exact arithmetic that is the minimum
    over the windows; computed, it lies at most 2**-51 above the smallest
    computed window deviation. A trial whose smallest squared distance is
    inf (it may have overflowed) has its minimum distance measured again
    with hypot.

    Windows at inf or NaN are part of a trial set, so numpy's
    floating-point warnings are off.
    """
    if block is None:
        block = np.concatenate(list(draw_trials(config)))
    shape = np.shape(block)
    windows = (config.n, FOV_DIM) if config.sampler == "normal" else (config.n,)
    if shape[1:] != windows or not 1 <= shape[0] <= config.trials:
        raise InvalidParameterError(
            f"a {config.sampler} trial block of at most {config.trials} trials of {config.n} "
            f"samples cannot have shape {shape}"
        )
    v_star, v_d, bump = np.asarray(config.v_star, dtype=float), config.v_d, config.bump
    d_star = bump.dists(v_star[None, :])[0]

    dist = _squared_window_distance(block, config, v_d, v_star)
    # fmin skips NaN distances, as the per-window hit test (dist <= epsilon)
    # does, so min_dist <= epsilon holds exactly when some window hits. sqrt
    # is monotone, so it commutes with the minimum.
    nearest = _row_min(dist)
    min_dist = np.sqrt(nearest)
    far = np.flatnonzero(min_dist == np.inf)
    if far.size:
        min_dist[far] = _row_min(_window_distance(block[far], config, v_d, v_star))
    min_devs = _divergence_batch(d_star, bump.dists_at(nearest), config.divergence)
    return min_devs, min_dist


@np.errstate(all="ignore")
def bound_report(
    config: TheoremConfig, min_deviations: np.ndarray, min_distances: np.ndarray
) -> BoundReport:
    """The `BoundReport` of a scored trial set at config.epsilon, on the
    config's bump; no other code builds one.

    `min_deviations` and `min_distances` are what `min_deviation_mc`
    returns for a config that differs from this one at most in epsilon.
    Delta is re-estimated from the config's seed. The squared distances of
    its probes overflow for a huge epsilon, so, as in `min_deviation_mc`,
    floating-point warnings are off.
    """
    delta_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[0])
    delta = estimate_delta(
        config.bump, config.v_star, config.epsilon, DELTA_PROBES, delta_rng, config.divergence
    )

    empirical_miss = float((~(min_distances <= config.epsilon)).mean())
    analytic_miss = (1.0 - config.analytic_c) ** config.n
    bound = delta + analytic_miss
    violations = float((min_deviations > bound + 1e-12).mean())

    return BoundReport(
        config=config,
        delta=float(delta),
        analytic_c=config.analytic_c,
        analytic_miss=float(analytic_miss),
        empirical_miss=empirical_miss,
        bound=float(bound),
        mean_min_deviation=float(min_deviations.mean()),
        violation_fraction=violations,
    )
