"""The config document, declared once as frozen dataclasses read by
`halc.schema`: field names are the keys, annotations the JSON types,
defaults the defaults and `__post_init__` the ranges. The `decode` and
`corpus` sections are DecodeConfig and CorpusSpec. A default that depends on
the scenario is None here and is resolved by the scenario.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from itertools import product
from typing import Iterator, Literal, Optional, Sequence, Union

import numpy as np

from .decoding import DecodeConfig
from .errors import InvalidParameterError
from .metrics import POPE_MODES
from .schema import check_types, parse
from .world import CorpusSpec

SCORER_KINDS = ("oracle", "random", "noisy")
# The ablate sampling initializations: "detector" is exponential sampling
# from the detector's grounding, the rest are the sampling modes so named.
ABLATE_INITS = ("detector", "normal", "random", "center", "original")
DEFAULT_GRID_SCALES = (0.1, 0.2, 0.3, 0.4, 0.6, 0.9)
# The sweep draws and scores a theorem trial set in chunks of
# theory.TRIAL_CHUNK trials, so two things grow with a set. Its draw grows
# with its windows (trials x n), capped at 12.5 times the 100k x 8 sets of
# the theorem-mc benchmark. Its scores grow by 16 bytes a trial for each
# (eta, sigma) pair of the set: trials x the pairs of the largest set are
# capped at what the default grid's 4 pairs reach at the window cap. At
# the caps a theorem-verify process peaked at 134 MB RSS for the default
# grid at 1.25M trials of n up to 8, and at 676 MB for 10M trials of
# n = 1, under tv and jsd alike.
MAX_THEOREM_WINDOWS = 10_000_000
MAX_THEOREM_SCORES = 40_000_000
# The largest theorem amp, ln of the largest float (about 709.78): the bump
# model takes exp(amp) at its center, which overflows above it.
MAX_THEOREM_AMP = math.log(sys.float_info.max)
# The most oracle-study grid windows, grid_positions^2 x scales: the study
# holds one grid at a time, about 160 bytes a window (16 MB here); the
# default has 384.
MAX_GRID_WINDOWS = 100_000
# The theorem keys that make a row: one entry of each normal list, or the
# exponential row's epsilon and the keys of its windows.
THEOREM_WINDOW_KEYS = ("v_star", "eta_scale", "lam", "r_min", "r_max")
THEOREM_ROW_KEYS = {"normal": ("epsilons", "etas", "sigmas"),
                    "exponential": ("exp_epsilon", *THEOREM_WINDOW_KEYS)}


@dataclass(frozen=True)
class CostModel:
    """Closed-form runtime accounting for corrective decoding."""

    tokens: int = 64
    t_lvlm: float = 1.0
    t_detector: float = 0.0
    n: int = 4
    trigger_rate: float = 0.35

    def __post_init__(self) -> None:
        require = check_types(self, "cost model")
        for name in ("tokens", "t_detector", "n"):
            require(name, getattr(self, name) >= 0, "must be nonnegative")
        require("t_lvlm", self.t_lvlm > 0, "must be positive")
        require("trigger_rate", 0 <= self.trigger_rate <= 1, "must lie in [0, 1]")


@dataclass(frozen=True)
class ScorerSpec:
    """A matching scorer. A bare kind string in the document means the
    same; `amp`, the noisy scorer's amplitude, defaults to 0.1."""

    kind: Literal[SCORER_KINDS] = "oracle"
    amp: Optional[float] = None

    def __post_init__(self) -> None:
        require = check_types(self, "scorer")
        if self.amp is not None and self.kind != "noisy":
            raise InvalidParameterError(f"unknown {self.kind!r} scorer keys ['amp']")
        require("amp", self.amp is None or self.amp >= 0, "must be nonnegative")

    def __str__(self) -> str:
        """The mapping form, which is how ablate rows name the scorer."""
        return str({key: value for key, value in vars(self).items() if value is not None})


ScorerConfig = Union[Literal[SCORER_KINDS], ScorerSpec]


@dataclass(frozen=True)
class CompareSection:
    pope_mode: Literal[POPE_MODES] = "random"
    pope_count: int = 3
    beta: float = 0.2  # the F-beta weight; its square must stay finite

    def __post_init__(self) -> None:
        require = check_types(self, "compare")
        require("pope_count", self.pope_count >= 1, "must be at least 1")
        require("beta", 0 <= self.beta <= 1e150, "must lie in [0, 1e150]")


@dataclass(frozen=True)
class OracleStudySection:
    grid_positions: int = 8
    grid_scales: tuple[float, ...] = DEFAULT_GRID_SCALES

    def __post_init__(self) -> None:
        require = check_types(self, "oracle_study")
        require("grid_positions", self.grid_positions >= 1, "must be at least 1")
        scales = self.grid_scales
        require("grid_scales", min(scales, default=0) > 0, "must be nonempty and positive")
        ok = self.grid_positions**2 * len(scales) <= MAX_GRID_WINDOWS
        require("grid_positions", ok, f"squared x len(grid_scales) must be at most {MAX_GRID_WINDOWS}")


@dataclass(frozen=True)
class AblateSection:
    pope_mode: Literal[POPE_MODES] = "random"
    scorer_seeds: Optional[tuple[int, ...]] = None  # None: the run seed and the next four
    inits: tuple[Literal[ABLATE_INITS], ...] = ("random", "center", "original", "detector")
    lambdas: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0)
    beams: tuple[int, ...] = (1, 2, 3, 5, 8)
    scorers: tuple[ScorerConfig, ...] = ("random", "oracle", "noisy")

    def __post_init__(self) -> None:
        require = check_types(self, "ablate")
        for name in ("inits", "lambdas", "scorers"):
            require(name, bool(getattr(self, name)), "must not be empty")
        require("lambdas", min(self.lambdas) > -1, "must be greater than -1")
        require("beams", min(self.beams, default=0) >= 1, "must be nonempty and at least 1")
        seeds = self.scorer_seeds
        ok = seeds is None or min(seeds, default=-1) >= 0
        require("scorer_seeds", ok, "must be nonempty and nonnegative")


@dataclass(frozen=True)
class LengthCurveSection:
    grid: tuple[int, ...] = (16, 32, 64)

    def __post_init__(self) -> None:
        require = check_types(self, "length_curve")
        require("grid", min(self.grid, default=0) >= 1, "must be nonempty and at least 1")


@dataclass(frozen=True)
class EmitCurveSection:
    """None or an empty list: the scene's objects, and r from -2 to 3 in
    steps of 0.5. None anchor: the scene's trap, else its first object."""

    tokens: Optional[tuple[str, ...]] = None
    r_grid: Optional[tuple[float, ...]] = None
    anchor: Optional[str] = None

    def __post_init__(self) -> None:
        check_types(self, "emit_curve")


@dataclass(frozen=True)
class TheoremSection:
    """The bound-verification grid of `rows`. The ranges are those of
    theory.TheoremConfig, the amp at which the bump model stays finite,
    the exponential windows, which must not be NaN, and the caps on what a
    trial set holds, checked here so that every scenario rejects them.
    What a row's TheoremConfig checks is left to theorem-verify, which
    builds every row before any draw and names the row's keys: its
    constant C, whose exponential form needs 1 + lam above 1, and the norm
    of its eta, which for the exponential rows is the detection."""

    v_star: tuple[float, float, float] = (4.0, 4.0, 0.0)
    amp: float = 1.0
    n_values: tuple[int, ...] = (2, 4, 8)
    trials: int = 10_000
    divergence: Literal["tv", "jsd"] = "tv"
    samplers: tuple[Literal["normal", "exponential"], ...] = ("normal", "exponential")
    etas: tuple[tuple[float, float, float], ...] = ((0.0, 0.0, 0.0), (0.8, 0.6, 0.0))
    sigmas: tuple[float, ...] = (0.5, 1.0)
    epsilons: tuple[float, ...] = (0.5, 1.0)
    eta_scale: float = 0.5
    exp_epsilon: float = 1.0
    lam: float = 0.6
    r_min: float = -5.0
    r_max: float = 5.0

    def __post_init__(self) -> None:
        require = check_types(self, "theorem")
        require("trials", self.trials >= 100, "must be at least 100")
        require("n_values", min(self.n_values, default=1) >= 1, "must be at least 1")
        largest_n = max(self.n_values, default=1)
        if self.trials * largest_n > MAX_THEOREM_WINDOWS:
            raise InvalidParameterError(
                f"theorem trials x max(n_values) must be at most {MAX_THEOREM_WINDOWS}, "
                f"got {self.trials} x {largest_n}"
            )
        # Each (eta, sigma) pair of a trial set holds its scores.
        pairs = len(set(product(self.etas, self.sigmas))) if "normal" in self.samplers else 1
        if self.trials * pairs > MAX_THEOREM_SCORES:
            raise InvalidParameterError(
                f"theorem trials x the (eta, sigma) pairs of a trial set must be at most "
                f"{MAX_THEOREM_SCORES}, got {self.trials} x {pairs}"
            )
        for name in ("epsilons", "sigmas"):
            require(name, min(getattr(self, name), default=1) > 0, "must be positive")
        for name in ("exp_epsilon", "lam"):
            require(name, getattr(self, name) > 0, "must be positive")
        require("amp", self.amp <= MAX_THEOREM_AMP, f"must be at most {MAX_THEOREM_AMP!r}")
        require("r_min", self.r_min < self.r_max, "must be less than r_max")
        if "exponential" in self.samplers:
            # The exponents are drawn from [r_min, r_max), whose width must
            # be a float.
            ok = self.r_max - self.r_min < math.inf
            require("r_min", ok, "must keep r_max - r_min finite")
            # A window's sides are a scale (1 + lam)**r, r in [r_min, r_max),
            # times the detected window's, v_star's plus the detection's. A
            # scale of 0 times an infinite side, or an infinite scale times a
            # side of 0, is NaN, and a trial of NaN windows has no minimum.
            with np.errstate(all="ignore"):
                scales = (1.0 + self.lam) ** np.array([self.r_min, self.r_max])
                sides = np.add(self.v_star[:2], self._detection()[:2])
                if np.isnan(np.multiply.outer(scales, sides)).any():
                    raise InvalidParameterError(
                        f"{self.named(THEOREM_WINDOW_KEYS)}: a window scale (1 + lam)**r of 0 "
                        "or inf times a detected side of inf or 0 is NaN"
                    )
        if next(self.rows(), None) is None:
            raise InvalidParameterError("theorem grid has no rows")

    def rows(self) -> Iterator[tuple]:
        """The grid's (sampler, epsilon, eta, sigma, n) rows in output order.
        Normal sampling takes every (epsilon, eta, sigma). Exponential
        sampling takes one, at exp_epsilon and sigma 1 (unused), whose eta
        is eta_scale times v_star's size, keeping its aspect ratio. Each is
        taken at every n."""
        detection = self._detection()
        for sampler in self.samplers:
            if sampler == "normal":
                combos = product(*(getattr(self, key) for key in THEOREM_ROW_KEYS["normal"]))
            else:
                combos = [(float(self.exp_epsilon), detection, 1.0)]
            for eps, eta, sigma in combos:
                for n in self.n_values:
                    yield sampler, eps, eta, sigma, n

    def named(self, keys: Sequence[str], values: Optional[Sequence] = None) -> str:
        """'theorem k1 v1, ... and kn vn': the keys with `values`, else the section's."""
        values = values or [getattr(self, key) for key in keys]
        *head, last = [f"{key} {value!r}" for key, value in zip(keys, values)]
        return f"theorem {', '.join(head)} and {last}"

    def _detection(self) -> tuple[float, float, float]:
        """The exponential rows' eta: eta_scale times v_star's size."""
        ratio = float(self.eta_scale)
        return (ratio * self.v_star[0], ratio * self.v_star[1], 0.1)


@dataclass(frozen=True)
class Config:
    """The whole document. A None seed must come from --seed, a None corpus
    is the scenario's default corpus (the demo scene for decode and
    emit-curve), and a None detector_eta the demo or corpus default."""

    seed: Optional[int] = None
    scene_index: int = 0
    detector_eta: Optional[tuple[float, float, float, float]] = None
    detector_confidence: float = 0.3
    scorer: ScorerConfig = "oracle"
    decode: DecodeConfig = DecodeConfig()
    corpus: Optional[CorpusSpec] = None
    cost_model: CostModel = CostModel()
    compare: CompareSection = CompareSection()
    oracle_study: OracleStudySection = OracleStudySection()
    ablate: AblateSection = AblateSection()
    length_curve: LengthCurveSection = LengthCurveSection()
    emit_curve: EmitCurveSection = EmitCurveSection()
    theorem: TheoremSection = TheoremSection()

    def __post_init__(self) -> None:
        require = check_types(self, "")
        require("seed", self.seed is None or self.seed >= 0, "must be nonnegative")
        require("detector_confidence", 0 <= self.detector_confidence <= 1, "must lie in [0, 1]")


def load_config(path: Optional[str], seed: Optional[int] = None) -> tuple[dict, Config]:
    """The document at `path` (none: an empty one) as given, and as a Config
    checked whole before any scenario runs. A manifest from a previous run
    gives its config and its seed. `seed` (from --seed) replaces the seed;
    the decode seed defaults to the run seed."""
    doc = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError as exc:
            raise InvalidParameterError(f"config file not found: {path}") from exc
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise InvalidParameterError(f"config file is not valid JSON: {exc}") from exc
        if isinstance(doc, dict) and "config" in doc and "scenario" in doc:
            seed = doc.get("seed") if seed is None else seed
            doc = doc["config"]
    config = parse(Config, doc, "top-level")
    if seed is not None:
        config = replace(config, seed=seed)
    if config.seed is None:
        raise InvalidParameterError("a seed is required (config 'seed' or --seed)")
    if "seed" not in doc.get("decode", {}):
        config = replace(config, decode=replace(config.decode, seed=config.seed))
    return doc, config
