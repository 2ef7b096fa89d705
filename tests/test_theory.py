import math

import numpy as np
import pytest
from scipy import stats

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
    deviation_g,
    estimate_delta,
    exponential_miss_probability_mc,
    draw_trials,
    min_deviation_mc,
)

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


def test_deviation_identity_symmetry_range(demo):
    a = Fov(200.0, 200.0, 640.0, 300.0)
    b = Fov(500.0, 400.0, 500.0, 500.0)
    assert deviation_g(a, a, demo) == 0.0
    assert deviation_g(a, b, demo) == pytest.approx(deviation_g(b, a, demo))
    for div in ("tv", "jsd"):
        assert 0.0 <= deviation_g(a, b, demo, div) <= 1.0


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
    report = min_deviation_mc(MODEL, cfg, "normal")
    assert report.empirical_miss < 0.01


def test_zero_offset_generous_ball_keeps_min_below_delta():
    cfg = TheoremConfig(
        v_star=V_STAR, eta=(0.0, 0.0, 0.0), epsilon=3.0, sigma=1.0, n=4,
        trials=2000, seed=5,
    )
    report = min_deviation_mc(MODEL, cfg, "normal")
    below = (report.min_deviation_samples <= report.delta + 1e-12).mean()
    assert below >= 0.99


def test_normal_bound_report_consistency():
    cfg = TheoremConfig(
        v_star=V_STAR, eta=(0.8, 0.6, 0.0), epsilon=1.0, sigma=1.0, n=4,
        trials=10_000, seed=2,
    )
    report = min_deviation_mc(MODEL, cfg, "normal")
    se = math.sqrt(report.analytic_miss * (1 - report.analytic_miss) / cfg.trials)
    assert abs(report.empirical_miss - report.analytic_miss) <= 3 * se
    assert report.expectation_holds
    assert report.violation_fraction <= 0.01


def test_exponential_bound_report_consistency():
    cfg = TheoremConfig(
        v_star=V_STAR, eta=(2.0, 2.0, 0.1), epsilon=1.0, n=4,
        trials=10_000, seed=2,
    )
    report = min_deviation_mc(MODEL, cfg, "exponential")
    se = math.sqrt(report.analytic_miss * (1 - report.analytic_miss) / cfg.trials)
    assert abs(report.empirical_miss - report.analytic_miss) <= 3 * se
    assert report.expectation_holds
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


def test_scene_subject_bound_verification(demo):
    # The theorem machinery also runs against the synthetic scene model via
    # the 3-vector adapter anchored at the victim's optimal window.
    clock = demo.find_object("clock")
    anchor = clock.profile.v_star
    adapter = SceneFovAdapter(demo, anchor)
    v_star = (anchor.width, anchor.height, 0.0)
    cfg = TheoremConfig(
        v_star=v_star, eta=(30.0, 30.0, 10.0), epsilon=40.0, sigma=30.0, n=4,
        trials=1000, seed=6,
    )
    report = min_deviation_mc(adapter, cfg, "normal")
    se = math.sqrt(max(report.analytic_miss * (1 - report.analytic_miss), 1e-9) / cfg.trials)
    assert abs(report.empirical_miss - report.analytic_miss) <= 4 * se
    assert report.expectation_holds


def test_scene_adapter_matches_direct_deviation(demo):
    clock = demo.find_object("clock")
    anchor = clock.profile.v_star
    adapter = SceneFovAdapter(demo, anchor)
    point = (250.0, 250.0, 10.0)
    fov = adapter.to_fov(point)
    assert fov == Fov(250.0, 250.0, anchor.center_x + 10.0, anchor.center_y)
    star_point = (anchor.width, anchor.height, 0.0)
    direct = deviation_g(anchor, fov, demo, "tv")
    d = adapter.dists(np.array([star_point, point]))
    assert 0.5 * np.abs(d[0] - d[1]).sum() == pytest.approx(direct, abs=1e-12)


def test_c_e_closed_form_degenerate_detections():
    # Scaled through the origin, the detection never reaches the ball at a
    # positive scale; a zero-size detection has no scale to speak of.
    assert c_e_closed_form(1.0, V_STAR, (-4.0, -4.0, 0.1), 0.6, -5.0, 5.0) == 0.0
    with pytest.raises(InvalidParameterError):
        c_e_closed_form(1.0, V_STAR, (0.0, 0.0, 0.1), 0.6, -5.0, 5.0)


@pytest.mark.parametrize("block", [None, "normal"])
def test_min_deviation_mc_rejects_an_unknown_sampler(block):
    cfg = TheoremConfig(v_star=V_STAR, eta=(0.8, 0.6, 0.0), epsilon=1.0, n=2, trials=100)
    if block is not None:
        block = draw_trials(cfg, block)
    with pytest.raises(InvalidParameterError, match="sampler must be"):
        min_deviation_mc(MODEL, cfg, "uniform", block)


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
    block = draw_trials(TheoremConfig(**{**fields, **drawn_for}), drawn_by)
    with pytest.raises(InvalidParameterError, match="trial block"):
        min_deviation_mc(MODEL, TheoremConfig(**fields), sampler, block)


def test_theorem_config_validation():
    with pytest.raises(InvalidParameterError):
        TheoremConfig(v_star=V_STAR, eta=(0, 0, 0), epsilon=0.0)
    with pytest.raises(InvalidParameterError):
        TheoremConfig(v_star=V_STAR, eta=(0, 0, 0), epsilon=1.0, trials=10)
    with pytest.raises(InvalidParameterError):
        TheoremConfig(v_star=V_STAR, eta=(0, 0, 0), epsilon=1.0, r_min=2.0, r_max=1.0)
