import math
import os
import struct
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import halc
from halc import theory
from halc.distributions import softmax
from halc.errors import InvalidParameterError
from halc.geometry import Fov
from halc.theory import (
    GaussianBumpModel,
    SceneFovAdapter,
    TheoremConfig,
    ball_miss_probability_mc,
    c_e_closed_form,
    c_g_analytic,
    c_g_estimate,
    estimate_delta,
    exponential_miss_probability_mc,
    bound_report,
    draw_trials,
    min_deviation_mc,
)
from halc.world import toy_model_logits

V_STAR = (4.0, 4.0, 0.0)
MODEL = GaussianBumpModel(center=V_STAR, amp=1.0)


def oracle_c_e(epsilon, v_star, v_d, lam, r_min, r_max):
    """Independent arithmetic evaluation of the closed-form constants."""
    ws, hs, ps = v_star
    wd, hd, pd = v_d
    c_a = (epsilon**2 - (pd - ps) ** 2) / (wd**2 + hd**2)
    c_b = (wd * ws + hd * hs) / (wd**2 + hd**2)
    root = math.sqrt(c_a)
    hi = math.log(c_b + root) / math.log(1 + lam)
    lo = math.log(c_b - root) / math.log(1 + lam) if c_b > root else r_min
    lo, hi = max(r_min, lo), min(r_max, hi)
    if hi <= lo:
        return 0.0
    return (hi - lo) / (r_max - r_min)


# ---------------------------------------------------------------------------
# Deviation and delta
# ---------------------------------------------------------------------------


def test_delta_vanishes_with_epsilon():
    rng = np.random.default_rng(0)
    assert estimate_delta(MODEL, V_STAR, 1e-6, 50, rng) < 1e-9


def test_delta_monotone_on_nested_balls_with_shared_seed():
    deltas = [
        estimate_delta(MODEL, V_STAR, eps, 200, np.random.default_rng(5))
        for eps in (0.25, 0.5, 1.0, 2.0)
    ]
    assert deltas == sorted(deltas)


def test_delta_reproducible():
    a = estimate_delta(MODEL, V_STAR, 0.5, 100, np.random.default_rng(9))
    b = estimate_delta(MODEL, V_STAR, 0.5, 100, np.random.default_rng(9))
    assert a == b


# ---------------------------------------------------------------------------
# Normal-sampling constants
# ---------------------------------------------------------------------------


def test_c_g_chi_square_oracle():
    # At eta=0 and epsilon=sigma the ball mass is the chi-square(3) CDF at 1.
    est = c_g_estimate(1.0, (0.0, 0.0, 0.0), 1.0, 100_000, np.random.default_rng(2))
    oracle = stats.chi2.cdf(1.0, 3)
    assert oracle == pytest.approx(0.1987, abs=1e-4)
    assert abs(est.value - oracle) <= 3 * est.stderr
    assert c_g_analytic(1.0, (0.0, 0.0, 0.0), 1.0) == pytest.approx(oracle, abs=1e-12)


def test_c_g_total_mass_limit():
    est = c_g_estimate(1e6, (0.0, 0.0, 0.0), 1.0, 10_000, np.random.default_rng(3))
    assert est.value == 1.0
    assert c_g_analytic(1e6, (0.0, 0.0, 0.0), 1.0) == pytest.approx(1.0)


def test_c_g_far_offset_tail():
    est = c_g_estimate(1.0, (10.0, 0.0, 0.0), 1.0, 50_000, np.random.default_rng(4))
    assert est.value < 1e-4
    assert c_g_analytic(1.0, (10.0, 0.0, 0.0), 1.0) < 1e-4


def _scipy_stats_ball_mass(epsilon, eta, sigma):
    """The ball mass as scipy.stats computes it: the chi-square(3) CDF at
    (epsilon / sigma)^2, noncentral with nc = |eta|^2 / sigma^2 unless eta
    is 0."""
    nc = float(np.linalg.norm(np.asarray(eta, dtype=float)) ** 2) / sigma**2
    x = (epsilon / sigma) ** 2
    return float(stats.chi2.cdf(x, 3) if nc == 0.0 else stats.ncx2.cdf(x, 3, nc))


_powers_of_ten = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
_coordinates = st.one_of(st.just(0.0), st.floats(-1e300, 1e300), _powers_of_ten)


@settings(max_examples=300, deadline=None)
@given(
    epsilon=_powers_of_ten,
    eta=st.one_of(st.just((0.0, 0.0, 0.0)), st.tuples(_coordinates, _coordinates, _coordinates)),
    # Down to about 1e-161, the smallest sigma whose square is above 0.
    sigma=st.floats(-161.0, 300.0).map(lambda e: 10.0**e),
)
@example(epsilon=1.0, eta=(0.0, 0.0, 0.0), sigma=1.0)
@example(epsilon=1e-150, eta=(0.8, 0.6, 0.0), sigma=1.0)  # x = 1e-300
@example(epsilon=1e-150, eta=(0.0, 0.0, 0.0), sigma=1.0)
@example(epsilon=1e-200, eta=(0.0, 0.0, 3e9), sigma=1.0)  # x = 0, nc = 9e18
@example(epsilon=1e-200, eta=(0.0, 0.0, 0.0), sigma=1.0)
@example(epsilon=1e150, eta=(0.8, 0.6, 0.0), sigma=1.0)  # x = 1e300
@example(epsilon=1e300, eta=(0.8, 0.6, 0.0), sigma=1e-10)  # x = inf
@example(epsilon=1e300, eta=(0.0, 0.0, 0.0), sigma=1e-10)
@example(epsilon=1.0, eta=(1e200, 0.0, 0.0), sigma=1.0)  # nc = inf
@example(epsilon=1e300, eta=(1e200, 0.0, 0.0), sigma=1e-10)  # x = nc = inf
def test_c_g_analytic_has_the_bits_of_scipy_stats(epsilon, eta, sigma):
    # theorem.csv's analytic_c column was computed with scipy.stats.
    with np.errstate(over="ignore"):
        try:
            expected = _scipy_stats_ball_mass(epsilon, eta, sigma)
        except OverflowError:
            with pytest.raises(OverflowError):
                c_g_analytic(epsilon, eta, sigma)
            return
        got = c_g_analytic(epsilon, eta, sigma)
    if math.isnan(expected):
        assert math.isnan(got)
    else:
        assert struct.pack("<d", got) == struct.pack("<d", expected)


def test_importing_the_cli_and_theory_leaves_scipy_stats_unloaded():
    # A fresh interpreter: this one has loaded scipy.stats for the tests.
    source = str(Path(halc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, halc.cli, halc.theory;"
        "print('scipy.special' in sys.modules, 'scipy.stats' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "True False\n"


def test_ball_miss_matches_analytic_over_grid():
    rng = np.random.default_rng(11)
    trials = 10_000
    misses = 0
    checks = 0
    for eps in (0.5, 1.0, 1.5):
        for eta in ((0.0, 0.0, 0.0), (0.8, 0.6, 0.0), (1.6, 1.2, 0.0)):
            for sigma in (0.5, 1.0, 2.0):
                c = c_g_analytic(eps, eta, sigma)
                for n in (2, 4, 8):
                    p = (1 - c) ** n
                    emp = ball_miss_probability_mc(eps, eta, sigma, n, trials, rng)
                    se = math.sqrt(max(p * (1 - p), 1e-12) / trials)
                    checks += 1
                    if abs(emp - p) > 3 * se:
                        misses += 1
    assert misses / checks <= 0.05


# ---------------------------------------------------------------------------
# Exponential-expansion constants
# ---------------------------------------------------------------------------


def test_c_e_worked_example_against_oracle():
    args = (0.5, (2.0, 2.0, 0.0), (1.0, 1.0, 0.0), 0.6, -5.0, 5.0)
    value = c_e_closed_form(*args)
    oracle = oracle_c_e(*args)
    assert value == pytest.approx(oracle, abs=1e-12)
    assert value == pytest.approx(0.0760, abs=1e-4)
    c_a = (0.5**2 - 0.0) / 2.0
    c_b = (1.0 * 2.0 + 1.0 * 2.0) / 2.0
    assert (c_a, c_b) == (0.125, 2.0)
    assert (1 - value) ** 4 == pytest.approx(0.7290, abs=5e-4)


def test_c_e_interval_straddles_zero():
    # v_d equal to v_star: r = 0 is an exact solution, so the hit interval
    # is nonempty and C_e is positive.
    value = c_e_closed_form(0.5, (2.0, 2.0, 0.0), (2.0, 2.0, 0.0), 0.6, -5.0, 5.0)
    assert value > 0.0


def test_c_e_interval_clamped_away():
    # The hit interval sits above r_max, so the clamped interval is empty.
    value = c_e_closed_form(0.5, (2.0, 2.0, 0.0), (1.0, 1.0, 0.0), 0.6, -5.0, 0.5)
    assert value == 0.0


def test_c_e_precondition_violation():
    with pytest.raises(InvalidParameterError):
        c_e_closed_form(0.1, (2.0, 2.0, 0.0), (1.0, 1.0, 0.5), 0.6, -5.0, 5.0)
    with pytest.raises(InvalidParameterError):
        c_e_closed_form(0.5, (2.0, 1.0, 0.0), (1.0, 1.0, 0.0), 0.6, -5.0, 5.0)


def test_c_e_rejects_a_lambda_lost_beside_1():
    # ln(1 + 1e-17) is 0, by which the exponent interval would be divided.
    with pytest.raises(InvalidParameterError, match="1 \\+ lambda"):
        c_e_closed_form(0.5, (2.0, 2.0, 0.0), (1.0, 1.0, 0.0), 1e-17, -5.0, 5.0)


def test_c_e_scale_invariance():
    base = c_e_closed_form(0.5, (2.0, 2.0, 0.1), (1.0, 1.0, 0.05), 0.6, -5.0, 5.0)
    for scale in (0.25, 3.0, 117.0):
        scaled = c_e_closed_form(
            0.5 * scale,
            (2.0 * scale, 2.0 * scale, 0.1 * scale),
            (1.0 * scale, 1.0 * scale, 0.05 * scale),
            0.6,
            -5.0,
            5.0,
        )
        assert scaled == pytest.approx(base, abs=1e-9)


def test_exponential_miss_matches_closed_form():
    rng = np.random.default_rng(21)
    trials = 20_000
    c = c_e_closed_form(0.5, (2.0, 2.0, 0.0), (1.0, 1.0, 0.0), 0.6, -5.0, 5.0)
    for n in (2, 4):
        p = (1 - c) ** n
        emp = exponential_miss_probability_mc(
            0.5, (2.0, 2.0, 0.0), (1.0, 1.0, 0.0), 0.6, -5.0, 5.0, n, trials, rng
        )
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(emp - p) <= 3 * se


# ---------------------------------------------------------------------------
# Full bound verification
# ---------------------------------------------------------------------------


def test_large_n_drives_miss_probability_down():
    cfg = TheoremConfig(
        v_star=V_STAR, eta=(0.8, 0.6, 0.0), epsilon=1.0, sigma=1.0, n=64,
        trials=1000, seed=3,
    )
    report = bound_report(cfg, *min_deviation_mc(cfg))
    assert report.empirical_miss < 0.01


def test_zero_offset_generous_ball_keeps_min_below_delta():
    cfg = TheoremConfig(
        v_star=V_STAR, eta=(0.0, 0.0, 0.0), epsilon=3.0, sigma=1.0, n=4,
        trials=2000, seed=5,
    )
    min_devs, min_dist = min_deviation_mc(cfg)
    report = bound_report(cfg, min_devs, min_dist)
    below = (min_devs <= report.delta + 1e-12).mean()
    assert below >= 0.99


def test_normal_bound_report_consistency():
    cfg = TheoremConfig(
        v_star=V_STAR, eta=(0.8, 0.6, 0.0), epsilon=1.0, sigma=1.0, n=4,
        trials=10_000, seed=2,
    )
    report = bound_report(cfg, *min_deviation_mc(cfg))
    se = math.sqrt(report.analytic_miss * (1 - report.analytic_miss) / cfg.trials)
    assert abs(report.empirical_miss - report.analytic_miss) <= 3 * se
    assert report.mean_min_deviation <= report.bound + 1e-12
    assert report.violation_fraction <= 0.01


def test_exponential_bound_report_consistency():
    cfg = TheoremConfig(
        v_star=V_STAR, eta=(2.0, 2.0, 0.1), epsilon=1.0, sampler="exponential", n=4,
        trials=10_000, seed=2,
    )
    report = bound_report(cfg, *min_deviation_mc(cfg))
    se = math.sqrt(report.analytic_miss * (1 - report.analytic_miss) / cfg.trials)
    assert abs(report.empirical_miss - report.analytic_miss) <= 3 * se
    assert report.mean_min_deviation <= report.bound + 1e-12
    assert report.violation_fraction <= 0.01


def test_min_deviation_monotone_in_n_with_shared_prefixes():
    rng = np.random.default_rng(13)
    v_d = np.asarray(V_STAR) + np.asarray((0.8, 0.6, 0.0))
    draws = rng.normal(loc=v_d, scale=1.0, size=(2000, 8, 3))
    d_star = MODEL.dists(np.asarray(V_STAR)[None, :])[0]
    devs = 0.5 * np.abs(MODEL.dists(draws.reshape(-1, 3)) - d_star).sum(axis=1)
    devs = devs.reshape(2000, 8)
    means = [devs[:, :n].min(axis=1).mean() for n in (1, 2, 4, 8)]
    assert all(a >= b for a, b in zip(means, means[1:]))


def test_scene_adapter_matches_direct_deviation(demo):
    clock = demo.find_object("clock")
    anchor = clock.profile.v_star
    adapter = SceneFovAdapter(demo, anchor)
    point = (250.0, 250.0, 10.0)
    fov = adapter.to_fov(point)
    assert fov == Fov(250.0, 250.0, anchor.center_x + 10.0, anchor.center_y)
    star_point = (anchor.width, anchor.height, 0.0)
    at_star, at_point = (softmax(toy_model_logits(demo, f, None)) for f in (anchor, fov))
    direct = 0.5 * np.abs(at_star - at_point).sum()
    d = adapter.dists(np.array([star_point, point]))
    assert 0.5 * np.abs(d[0] - d[1]).sum() == pytest.approx(direct, abs=1e-12)


def test_c_e_closed_form_degenerate_detections():
    # Scaled through the origin, the detection never reaches the ball at a
    # positive scale; a zero-size detection has no scale to speak of.
    assert c_e_closed_form(1.0, V_STAR, (-4.0, -4.0, 0.1), 0.6, -5.0, 5.0) == 0.0
    with pytest.raises(InvalidParameterError):
        c_e_closed_form(1.0, V_STAR, (0.0, 0.0, 0.1), 0.6, -5.0, 5.0)


def test_c_e_closed_form_of_a_detection_at_infinity_is_zero():
    # v_star + eta overflows to an infinite width: no scale of it reaches the
    # ball, where the unguarded formula read NaN offsets and gave C = 1.
    assert c_e_closed_form(1.0, (1e308, 0.0, 0.0), (math.inf, 0.0, 0.1), 0.6, -5.0, 5.0) == 0.0
    assert c_e_closed_form(1.0, (1e308, 0.0, 0.0), (-math.inf, 0.0, 0.1), 0.6, -5.0, 5.0) == 0.0


@pytest.mark.parametrize("sampler", ["uniform", "Normal"])
def test_theorem_config_rejects_an_unknown_sampler(sampler):
    with pytest.raises(InvalidParameterError, match="sampler must be 'normal' or 'exponential'"):
        TheoremConfig(v_star=V_STAR, eta=(0.8, 0.6, 0.0), epsilon=1.0, sampler=sampler)


@pytest.mark.parametrize(
    "drawn_for, drawn_by, sampler",
    [
        ({"n": 3}, "normal", "normal"),
        ({"trials": 101}, "normal", "normal"),
        ({"n": 3}, "exponential", "exponential"),
        ({}, "exponential", "normal"),
        ({}, "normal", "exponential"),
    ],
)
def test_min_deviation_mc_rejects_a_block_of_another_shape(drawn_for, drawn_by, sampler):
    """A block drawn for another n, another trial count or the other
    sampler is rejected before it is read."""
    fields = dict(v_star=V_STAR, eta=(2.0, 2.0, 0.1), epsilon=1.0, n=2, trials=100)
    block = draw_trials(TheoremConfig(**{**fields, **drawn_for, "sampler": drawn_by}))
    with pytest.raises(InvalidParameterError, match="trial block"):
        min_deviation_mc(TheoremConfig(**fields, sampler=sampler), block)


@pytest.mark.parametrize(
    "drawn_for, drawn_by, sampler, rows",
    [
        ({"n": 3}, "normal", "normal", 100),
        ({"trials": 101}, "normal", "normal", 101),
        ({"n": 3}, "exponential", "exponential", 100),
        ({}, "exponential", "normal", 100),
        ({}, "normal", "exponential", 100),
        ({}, "normal", "normal", 0),
    ],
)
def test_min_deviation_mc_rejects_a_chunk_of_another_shape(drawn_for, drawn_by, sampler, rows):
    """A chunk of another n or of the other sampler, or of more rows than
    the config's trials or none, is rejected before it is read."""
    fields = dict(v_star=V_STAR, eta=(2.0, 2.0, 0.1), epsilon=1.0, n=2, trials=100)
    chunk = next(draw_trials(TheoremConfig(**{**fields, **drawn_for, "sampler": drawn_by})))
    with pytest.raises(InvalidParameterError, match="trial block"):
        min_deviation_mc(TheoremConfig(**fields, sampler=sampler), chunk[:rows])


@pytest.mark.parametrize("sampler", ["normal", "exponential"])
def test_trial_chunks_are_one_draw_and_score_as_the_whole_set(sampler):
    """The chunks are one draw of the whole set, cut in TRIAL_CHUNK rows,
    and their scores are the whole set's. At lam 1e300 the scales overflow,
    yet the caller's warnings stay on between chunks: they are off for each
    chunk's draw only."""
    cfg = TheoremConfig(
        v_star=V_STAR, eta=(2.0, 2.0, 0.1), epsilon=1.0, sampler=sampler, lam=1e300, n=3,
        trials=300,
    )
    setting = np.geterr()
    chunks = []
    with mock.patch.object(theory, "TRIAL_CHUNK", 128):
        for chunk in draw_trials(cfg):
            assert np.geterr() == setting
            chunks.append(chunk)
    assert [len(chunk) for chunk in chunks] == [128, 128, 44]
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[1])
    with np.errstate(over="ignore"):
        whole = (
            rng.standard_normal((300, 3, 3)) if sampler == "normal"
            else (1.0 + cfg.lam) ** rng.uniform(cfg.r_min, cfg.r_max, size=(300, 3))
        )
    assert np.concatenate(chunks).tobytes() == whole.tobytes()
    scores = [min_deviation_mc(cfg, chunk) for chunk in chunks + [chunks[-1][:1]]]
    for part, want in zip(zip(*scores[:-1]), min_deviation_mc(cfg, whole)):
        assert np.concatenate(part).tobytes() == want.tobytes()
    assert [len(score) for score in scores[-1]] == [1, 1]


@pytest.mark.parametrize("amp", [math.inf, -math.inf, math.nan])
def test_bump_rejects_an_infinite_amp(amp):
    # It would make far windows NaN beside a finite nearest one. A theorem
    # config builds its bump, so it rejects the amp when it is built.
    with pytest.raises(InvalidParameterError, match="bump amp"):
        GaussianBumpModel(center=V_STAR, amp=amp)
    with pytest.raises(InvalidParameterError, match="bump amp"):
        TheoremConfig(v_star=V_STAR, eta=(0, 0, 0), epsilon=1.0, amp=amp)


def test_theorem_config_builds_its_bump_at_the_optimum():
    cfg = TheoremConfig(v_star=V_STAR, eta=(0.8, 0.6, 0.0), epsilon=1.0, amp=2.5)
    assert cfg.bump == GaussianBumpModel(center=V_STAR, amp=2.5)
    assert TheoremConfig(v_star=V_STAR, eta=(0, 0, 0), epsilon=1.0).bump == MODEL


def test_theorem_config_computes_its_constant_once_when_built():
    normal = TheoremConfig(v_star=V_STAR, eta=(0.8, 0.6, 0.0), epsilon=1.0, sigma=0.5, trials=1000)
    exponential = replace(normal, sampler="exponential", eta=(2.0, 2.0, 0.1))
    assert normal.analytic_c == c_g_analytic(1.0, (0.8, 0.6, 0.0), 0.5)
    assert exponential.analytic_c == c_e_closed_form(1.0, V_STAR, (6.0, 6.0, 0.1), 0.6, -5.0, 5.0)
    # The report reads the config's constant: one evaluation per grid point.
    with mock.patch.object(theory, "c_g_analytic", wraps=c_g_analytic) as c_g, \
            mock.patch.object(theory, "c_e_closed_form", wraps=c_e_closed_form) as c_e:
        for cfg in (replace(normal), replace(exponential)):
            report = bound_report(cfg, *min_deviation_mc(cfg))
            assert report.analytic_c == cfg.analytic_c
    assert (c_g.call_count, c_e.call_count) == (1, 1)


@pytest.mark.parametrize(
    "changes,problem",
    [
        ({"sigma": 1e200}, "the hit constant C overflows"),
        ({"sigma": 1e-200}, "the hit constant C divides by 0"),
        ({"eta": (1e10, 0.0, 0.0)}, "the hit constant C is NaN"),
        ({"sampler": "exponential", "eta": (2.0, 2.0, 0.1), "epsilon": 1e300},
         "the hit constant C overflows"),
        ({"sampler": "exponential", "eta": (2.0, 2.0, 0.1), "epsilon": 0.05},
         "center offset exceeds the neighborhood radius"),
    ],
    ids=["sigma-squared-overflows", "sigma-squared-is-0", "huge-noncentrality",
         "exp-epsilon-squared-overflows", "epsilon-within-the-center-offset"],
)
def test_theorem_config_rejects_a_constant_it_cannot_compute(changes, problem):
    with pytest.raises(InvalidParameterError, match=problem):
        TheoremConfig(**{"v_star": V_STAR, "eta": (0.0, 0.0, 0.0), "epsilon": 1.0, **changes})


def test_min_distance_survives_squared_distances_that_overflow():
    # Windows about 1e200 from the optimum, inside a ball of radius 1e300:
    # their squared distances overflow, their distances do not.
    cfg = TheoremConfig(
        v_star=V_STAR, eta=(1e200, 0.0, 0.0), epsilon=1e300, sigma=1e-10, n=2, trials=100
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        min_devs, min_dist = min_deviation_mc(cfg)
        report = bound_report(cfg, min_devs, min_dist)
    windows = cfg.v_d + cfg.sigma * np.concatenate(list(draw_trials(cfg))) - np.asarray(V_STAR)
    distances = np.hypot(np.hypot(windows[..., 0], windows[..., 1]), windows[..., 2])
    assert min_dist.tobytes() == distances.min(axis=1).tobytes()
    assert report.empirical_miss == report.analytic_miss == 0.0


def test_theorem_config_validation():
    with pytest.raises(InvalidParameterError):
        TheoremConfig(v_star=V_STAR, eta=(0, 0, 0), epsilon=0.0)
    with pytest.raises(InvalidParameterError):
        TheoremConfig(v_star=V_STAR, eta=(0, 0, 0), epsilon=1.0, trials=10)
    with pytest.raises(InvalidParameterError):
        TheoremConfig(v_star=V_STAR, eta=(0, 0, 0), epsilon=1.0, r_min=2.0, r_max=1.0)
