"""The theorem sweep that draws each Monte-Carlo trial set once, in
chunks, and scores each chunk once per (eta, sigma), and the column-wise
reductions, each checked against the code it replaced.

The references below are the replaced code, kept here verbatim apart from
names; the sampler, which they read from the config, as the code does; a
row's epsilon, eta_norm and sigma columns, which the per-row reference
writes with the rest of its row; the delta estimate, which always runs
on `DELTA_PROBES` probes now that the config holds neither a given delta
nor a probe count; and the bump's width, 1 now that the model has none.
They are: the per-row `min_deviation_mc` with its broadcasting normal draw
(`rng.normal(loc=...)`), its `min(axis=1)` over the n windows and its
`np.fmin.reduce(axis=1)` over their distances (a bump centred at the
optimum now takes each trial's nearest window in place of that minimum,
which `nearest_window_deviations` defines); the loop of
`run_theorem_verify` that called it once per grid row; the bump model that
summed its 3-wide axis with `sum` and built its rows with `np.stack`; the
total variation that summed its last axis with `sum`; and the
`min_deviation_mc` that drew its own trial set and built every window to
measure its distance twice, once in the model and once for the hit test.
They share `estimate_delta`, `c_g_analytic`, `c_e_closed_form`,
`_squared_distance` and the JSD with the code they check;
tests/test_theory.py and the tests below check those on their own.
"""

import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from halc import theory
from halc.distributions import jsd, total_variation
from halc.harness import run_theorem_verify
from halc.theory import (
    DELTA_PROBES,
    FOV_DIM,
    GaussianBumpModel,
    TheoremConfig,
    _divergence_batch,
    _row_min,
    _squared_distance,
    bound_report,
    c_e_closed_form,
    c_g_analytic,
    draw_trials,
    estimate_delta,
    min_deviation_mc,
)

# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


class ReferenceBump:
    """GaussianBumpModel with its squared distance summed over the 3-wide axis."""

    def __init__(self, center, amp=1.0):
        self.center = center
        self.amp = amp

    def dists(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d2 = ((pts - np.asarray(self.center, dtype=float)) ** 2).sum(axis=1)
        bump = self.amp * np.exp(-d2 / 2.0)
        expo = np.exp(bump)
        p0 = expo / (expo + 1.0)
        return np.stack([p0, 1.0 - p0], axis=1)


def reference_total_variation(p, q):
    """Half the L1 distance, summed over the last axis."""
    return 0.5 * np.abs(p - q).sum(axis=-1)


def _reference_divergence(d_star, d_points, divergence):
    return reference_total_variation(d_star, d_points) if divergence == "tv" else jsd(d_star, d_points)


def reference_min_deviation_mc(subject, config):
    """The CSV row and per-trial minimum deviations and distances of one
    grid row, drawn and scored for that row alone."""
    sampler = config.sampler
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

    delta = estimate_delta(
        subject, config.v_star, config.epsilon, DELTA_PROBES, delta_rng, config.divergence
    )

    flat = points.reshape(-1, FOV_DIM)
    d_star = subject.dists(v_star[None, :])[0]
    devs = _reference_divergence(d_star, subject.dists(flat), config.divergence)
    devs = devs.reshape(config.trials, config.n)
    d2 = _squared_distance(points, v_star)
    # Each trial's first window at its smallest distance, or window 0 where
    # every distance is NaN.
    nearest = np.argmax(d2 == np.fmin.reduce(d2, axis=1)[:, None], axis=1)
    min_devs = devs[np.arange(config.trials), nearest]

    min_dist = np.fmin.reduce(np.sqrt(d2), axis=1)

    dist_to_star = np.linalg.norm(points - v_star, axis=2)
    empirical_miss = float((~(dist_to_star <= config.epsilon).any(axis=1)).mean())

    analytic_miss = (1.0 - analytic_c) ** config.n
    bound = delta + analytic_miss
    violations = float((min_devs > bound + 1e-12).mean())

    fields = {
        "epsilon": config.epsilon,
        "eta_norm": float(np.linalg.norm(config.eta)),
        "sigma": config.sigma if sampler == "normal" else "",
        "sampler": sampler,
        "divergence": config.divergence,
        "n": config.n,
        "trials": config.trials,
        "delta": float(delta),
        "analytic_c": float(analytic_c),
        "analytic_miss": float(analytic_miss),
        "empirical_miss": empirical_miss,
        "bound": float(bound),
        "mean_min_deviation": float(min_devs.mean()),
        "violation_fraction": violations,
    }
    return fields, min_devs, min_dist


def reference_run_theorem_verify(options, seed):
    options = dict(options or {})
    v_star = tuple(options.get("v_star", (4.0, 4.0, 0.0)))
    model = ReferenceBump(center=v_star, amp=float(options.get("amp", 1.0)))
    n_values = options.get("n_values", [2, 4, 8])
    trials = int(options.get("trials", 10_000))
    divergence = options.get("divergence", "tv")
    rows = []
    for sampler in options.get("samplers", ["normal", "exponential"]):
        if sampler == "normal":
            etas = [tuple(e) for e in options.get("etas", [(0.0, 0.0, 0.0), (0.8, 0.6, 0.0)])]
            sigmas = options.get("sigmas", [0.5, 1.0])
            epsilons = options.get("epsilons", [0.5, 1.0])
            combos = [
                (eps, eta, sigma) for eps in epsilons for eta in etas for sigma in sigmas
            ]
        else:
            ratio = float(options.get("eta_scale", 0.5))
            combos = [(float(options.get("exp_epsilon", 1.0)), (ratio * v_star[0], ratio * v_star[1], 0.1), None)]
        for eps, eta, sigma in combos:
            for n in n_values:
                cfg = TheoremConfig(
                    v_star=v_star,
                    eta=eta,
                    epsilon=eps,
                    sampler=sampler,
                    sigma=sigma if sigma is not None else 1.0,
                    lam=float(options.get("lam", 0.6)),
                    r_min=float(options.get("r_min", -5.0)),
                    r_max=float(options.get("r_max", 5.0)),
                    n=n,
                    trials=trials,
                    divergence=divergence,
                    seed=seed + n,
                )
                rows.append(reference_min_deviation_mc(model, cfg)[0])
    return rows


def previous_windows(config):
    """The (trials, n, 3) windows of a config's trial set, drawn as the
    min_deviation_mc that drew its own trial set drew them."""
    sample_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[1])
    v_d = config.v_d

    if config.sampler == "normal":
        # normal(loc=v_d, scale=sigma) draws the same standard normals and
        # returns loc + scale * z, but through its slower broadcasting path.
        points = sample_rng.standard_normal((config.trials, config.n, FOV_DIM))
        points *= config.sigma
        points += v_d
    else:
        r = sample_rng.uniform(config.r_min, config.r_max, size=(config.trials, config.n))
        scale = (1.0 + config.lam) ** r
        points = np.empty((config.trials, config.n, FOV_DIM))
        points[:, :, 0] = scale * v_d[0]
        points[:, :, 1] = scale * v_d[1]
        points[:, :, 2] = v_d[2]
    return points


def previous_min_deviation_mc(subject, config):
    """The min_deviation_mc that drew its own trial set and scored every
    window through subject.dists: each trial's minimum deviation and
    distance."""
    points = previous_windows(config)
    v_star = np.asarray(config.v_star, dtype=float)
    flat = points.reshape(-1, FOV_DIM)
    d_star = subject.dists(v_star[None, :])[0]
    devs = _divergence_batch(d_star, subject.dists(flat), config.divergence)
    min_devs = devs.reshape(config.trials, config.n).min(axis=1)

    # fmin skips NaN distances, as the per-window hit test (dist <= epsilon)
    # does, so min_dist <= epsilon holds exactly when some window hits.
    dist = _squared_distance(points, v_star)
    min_dist = _row_min(np.sqrt(dist, out=dist))
    return min_devs, min_dist


def nearest_window_deviations(model, config):
    """The minimum deviation of a bump model centred at the optimum, by
    definition: the deviation at each trial's nearest window (NaN distances
    skipped), of the windows as `previous_windows` draws them."""
    v_star = np.asarray(config.v_star, dtype=float)
    d2 = _squared_distance(previous_windows(config), v_star)
    d_star = model.dists(v_star[None, :])[0]
    return _divergence_batch(d_star, model.dists_at(np.fmin.reduce(d2, axis=1)), config.divergence)


def assert_near_per_window_minimum(nearest, per_window):
    """Where both are finite, a nearest window's deviation is at least the
    minimum over the windows, and at most 2**-51 above it: in exact
    arithmetic the two are equal, and only rounding separates them."""
    both = np.isfinite(nearest) & np.isfinite(per_window)
    gap = nearest[both] - per_window[both]
    assert (gap >= 0).all() and (gap <= 2.0**-51).all(), gap


def _bits(row: dict) -> list:
    """Keys in order, with values as repr, which is exact for floats."""
    return [(key, repr(value)) for key, value in row.items()]


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# The sweep: one draw per trial set, one score per chunk and (eta, sigma)
# ---------------------------------------------------------------------------

V_STARS = [(4.0, 4.0, 0.0), (2, 1, 0.5)]
ETAS = [(0, 0, 0), (0.0, 0.0, 0.0), (0.8, 0.6, 0.0), (1.0, -0.5, 0.25)]
EPSILONS = [0.25, 0.5, 1, 1.0, 2.0]
SIGMAS = [0.5, 1, 1.0, 2.0]

grids = st.fixed_dictionaries(
    {
        "v_star": st.sampled_from(V_STARS),
        "amp": st.sampled_from([1.0, 2.5]),
        "samplers": st.lists(st.sampled_from(["normal", "exponential"]), min_size=1, max_size=3),
        "divergence": st.sampled_from(["tv", "jsd"]),
        "n_values": st.lists(st.integers(1, 8), min_size=1, max_size=2),
        "trials": st.integers(100, 500),
        "epsilons": st.lists(st.sampled_from(EPSILONS), min_size=1, max_size=3),
        "etas": st.lists(st.sampled_from(ETAS), min_size=1, max_size=2),
        "sigmas": st.lists(st.sampled_from(SIGMAS), min_size=1, max_size=2),
        "exp_epsilon": st.sampled_from([0.5, 1.0, 2.0]),
        "eta_scale": st.sampled_from([0.25, 0.5]),
        "lam": st.sampled_from([0.6, 1.0]),
    }
)


def _sweep_with_draws(options, seed):
    """run_theorem_verify's rows, the (sampler, n, chunk index, rows) of
    each trial chunk it drew and the (sampler, eta, sigma, n, chunk index)
    of each chunk it scored."""
    drawn, latest, scored = [], {}, []

    def counting_draw(config):
        for index, chunk in enumerate(draw_trials(config)):
            drawn.append((config.sampler, config.n, index, len(chunk)))
            latest[config.sampler, config.n] = index, chunk
            yield chunk

    def counting_score(config, block):
        index, chunk = latest[config.sampler, config.n]
        assert block is chunk
        scored.append((config.sampler, config.eta, config.sigma, config.n, index))
        return min_deviation_mc(config, block)

    with mock.patch.object(theory, "draw_trials", counting_draw), \
            mock.patch.object(theory, "min_deviation_mc", counting_score):
        rows = run_theorem_verify(options, seed)
    return rows, drawn, scored


def _assert_each_chunk_drawn_and_scored_once(options, drawn, scored):
    """Each (sampler, n) trial set was drawn once, in chunks of
    TRIAL_CHUNK trials and a last chunk of the rest, and each chunk was
    scored once per (eta, sigma) of its set."""
    distinct = set()
    for sampler in options["samplers"]:
        if sampler == "normal":
            etas, sigmas = options["etas"], options["sigmas"]
        else:
            ratio = options["eta_scale"]
            v_star = options["v_star"]
            etas, sigmas = [(ratio * v_star[0], ratio * v_star[1], 0.1)], [1.0]
        distinct |= {(sampler, tuple(e), s, n) for e in etas for s in sigmas for n in options["n_values"]}
    trials, size = options["trials"], theory.TRIAL_CHUNK
    chunks = [(i, min(size, trials - start)) for i, start in enumerate(range(0, trials, size))]
    sets = {(s, n) for s, _, _, n in distinct}
    assert len(drawn) == len(set(drawn))
    assert set(drawn) == {(s, n, i, rows) for s, n in sets for i, rows in chunks}
    assert len(scored) == len(set(scored))
    assert set(scored) == {(s, e, sigma, n, i) for s, e, sigma, n in distinct for i, _ in chunks}


@settings(max_examples=40, deadline=None)
@given(options=grids, seed=st.integers(0, 2**16))
def test_sweep_rows_bit_equal_to_per_row_reference(options, seed):
    rows, drawn, scored = _sweep_with_draws(options, seed)
    reference = reference_run_theorem_verify(options, seed)
    assert [_bits(r) for r in rows] == [_bits(r) for r in reference]
    _assert_each_chunk_drawn_and_scored_once(options, drawn, scored)


@settings(max_examples=40, deadline=None)
@given(options=grids, lam=st.sampled_from([0.6, 1e300]), seed=st.integers(0, 2**16))
def test_chunked_sweep_rows_bit_equal_to_per_row_reference(options, lam, seed):
    """Chunks of 37 trials split each trial set of 100 to 500 trials into 3
    to 14 chunks, most ending in a ragged one, and the rows are still the
    per-row reference's bit for bit. At lam 1e300 the exponential scales
    overflow to inf (or underflow to 0), so the windows at infinity take the
    hypot path; no floating-point warning leaks from any chunk."""
    options = {**options, "lam": lam}
    with mock.patch.object(theory, "TRIAL_CHUNK", 37), warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, drawn, scored = _sweep_with_draws(options, seed)
        _assert_each_chunk_drawn_and_scored_once(options, drawn, scored)
    with np.errstate(all="ignore"):
        reference = reference_run_theorem_verify(options, seed)
    assert [_bits(r) for r in rows] == [_bits(r) for r in reference]


def test_default_sweep_draws_each_trial_set_once():
    options = {"trials": 500}
    with mock.patch.object(theory, "TRIAL_CHUNK", 128):
        rows, drawn, scored = _sweep_with_draws(options, 3)
    assert len(rows) == 27
    # 6 (sampler, n) trial sets and 15 (sampler, eta, sigma, n) scorings,
    # each of 4 chunks: 128, 128, 128 and 116 trials.
    assert len(drawn) == len(set(drawn)) == 6 * 4
    assert sorted(rows for *_, rows in drawn) == [116] * 6 + [128] * 18
    assert len(scored) == len(set(scored)) == 15 * 4
    assert [_bits(r) for r in rows] == [_bits(r) for r in reference_run_theorem_verify(options, 3)]


def test_sweep_retains_no_trial_arrays():
    options = {"trials": 2000}
    run_theorem_verify(options, 0)  # fills the parsers' caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = run_theorem_verify(options, 0)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(rows) == 27
    # One trial set of n = 8 windows holds 2000 * 8 float64 values.
    assert retained < 2000 * 8 * 8


def _traced_sweep_peak(trials):
    """The traced peak of a default theorem sweep of `trials` trials, above
    the memory traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_theorem_verify({"trials": trials}, 0)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_sweep_peak_grows_by_its_score_arrays_only():
    # Only the (trials,) scores of one trial set, two float64 arrays for
    # each of its (eta, sigma) pairs, scale with the trial count: at most 4
    # pairs make 64 bytes a trial, 6.1 MiB per 100k trials. A set drawn or
    # scored whole adds its (trials, n, 3) block and (trials, n) work arrays
    # (about 31 MiB per 100k trials at n = 8).
    run_theorem_verify({"trials": 100}, 0)  # fills the parsers' caches
    growth = _traced_sweep_peak(200_000) - _traced_sweep_peak(100_000)
    assert growth <= 8 * 2**20, growth


def _arrays_behind(array):
    """An array and each array it is a view of."""
    while isinstance(array, np.ndarray):
        yield array
        array = array.base


def test_sweep_holds_no_earlier_trial_arrays_while_drawing_or_scoring():
    # Arrays left alive while the next chunk is drawn or scored raise the
    # sweep's peak memory, which the retained total above misses: no earlier
    # chunk or chunk scores when a chunk is drawn, no earlier chunk scores
    # when a chunk is scored, and no earlier trial set's scores, the arrays
    # each report reads, when the next set's first chunk is drawn.
    chunks, minima, reported = [], [], []

    def alive(refs):
        return [ref for ref in refs if ref() is not None]

    def spying_draw(config):
        assert not alive(reported)
        stream = draw_trials(config)
        while True:
            assert not alive(chunks) and not alive(minima)
            chunk = next(stream, None)
            if chunk is None:
                return
            chunks.append(weakref.ref(chunk))
            yield chunk
            del chunk

    def spying_score(config, block):
        assert not alive(minima)
        scored = min_deviation_mc(config, block)
        minima.extend(weakref.ref(array) for array in scored)
        return scored

    def spying_report(config, min_deviations, min_distances):
        for array in (min_deviations, min_distances):
            reported.extend(weakref.ref(owner) for owner in _arrays_behind(array))
        return bound_report(config, min_deviations, min_distances)

    with mock.patch.object(theory, "draw_trials", spying_draw), \
            mock.patch.object(theory, "min_deviation_mc", spying_score), \
            mock.patch.object(theory, "bound_report", spying_report), \
            mock.patch.object(theory, "TRIAL_CHUNK", 64):
        rows = run_theorem_verify({"trials": 200}, 0)
    # 6 trial sets and 15 scorings, each of 4 chunks (64, 64, 64 and 8).
    assert (len(rows), len(chunks), len(minima)) == (27, 6 * 4, 15 * 4 * 2)
    assert len(reported) >= 27 * 2


@settings(max_examples=40, deadline=None)
@given(
    sampler=st.sampled_from(["normal", "exponential"]),
    divergence=st.sampled_from(["tv", "jsd"]),
    eta=st.sampled_from(ETAS[2:]),
    sigma=st.sampled_from(SIGMAS),
    n=st.integers(1, 8),
    trials=st.integers(100, 500),
    epsilons=st.lists(st.sampled_from(EPSILONS), min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_rescored_reports_bit_equal_to_per_row_reference(
    sampler, divergence, eta, sigma, n, trials, epsilons, seed
):
    v_star = (4.0, 4.0, 0.0)
    if sampler == "exponential":
        eta = (2.0, 2.0, 0.1)

    def config(eps):
        return TheoremConfig(
            v_star=v_star, eta=eta, epsilon=eps, sampler=sampler, sigma=sigma, n=n, trials=trials,
            divergence=divergence, seed=seed,
        )

    first = min_deviation_mc(config(epsilons[0]))
    for eps in epsilons:
        report = bound_report(config(eps), *first)
        fields, min_devs, min_dist = reference_min_deviation_mc(ReferenceBump(v_star), config(eps))
        assert _bits(report.to_csv_row()) == _bits(fields)
        assert _same_array(first[0], min_devs)
        assert _same_array(first[1], min_dist)


# ---------------------------------------------------------------------------
# Column-wise sums over the 3-wide axis
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 300),
    n=st.integers(1, 8),
    center=st.tuples(*[st.floats(-1e3, 1e3)] * 3),
    log_scale=st.integers(-8, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_column_sums_bit_equal_to_axis_reductions(rows, n, center, log_scale, seed):
    rng = np.random.default_rng(seed)
    c = np.asarray(center, dtype=float)
    flat = c + rng.normal(size=(rows, FOV_DIM)) * 10.0**log_scale
    assert _same_array(_squared_distance(flat, c), ((flat - c) ** 2).sum(axis=1))
    stack = c + rng.normal(size=(rows, n, FOV_DIM)) * 10.0**log_scale
    assert _same_array(np.sqrt(_squared_distance(stack, c)), np.linalg.norm(stack - c, axis=2))

    model = GaussianBumpModel(center=center, amp=1.5)
    reference = ReferenceBump(center, amp=1.5)
    assert _same_array(model.dists(flat), reference.dists(flat))
    assert _same_array(model.dists(flat[0]), reference.dists(flat[0]))


# ---------------------------------------------------------------------------
# Column-wise reductions over the 2-token axis and the n windows
# ---------------------------------------------------------------------------

ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e308]
)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(0, 30),
    width=st.integers(1, 4),
    p_vector=st.booleans(),
    q_vector=st.booleans(),
)
def test_total_variation_bit_equal_to_axis_sum(data, rows, width, p_vector, q_vector):
    def draw(vector):
        shape = (width,) if vector else (rows, width)
        return data.draw(arrays(np.float64, shape, elements=ANY_FLOAT))

    p, q = draw(p_vector), draw(q_vector)
    with np.errstate(all="ignore"):
        got = total_variation(p, q)
        want = reference_total_variation(p, q)
    if p_vector and q_vector:
        assert type(got) is float
        assert np.float64(got).tobytes() == want.tobytes()
    else:
        assert _same_array(got, want)


# Distances are never -0.0, and the reductions may pick either of two NaNs
# with different bits, so minima are compared on rows without -0.0 and with
# one NaN.
WINDOW_FLOAT = st.floats(allow_nan=False).map(lambda x: x + 0.0) | st.just(np.nan)


@settings(max_examples=200, deadline=None)
@given(
    values=arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 8)), elements=WINDOW_FLOAT)
)
def test_row_minima_bit_equal_to_axis_reductions(values):
    before = values.copy()
    assert _same_array(_row_min(values), np.fmin.reduce(values, axis=1))
    assert _same_array(values, before)


# ---------------------------------------------------------------------------
# One distance per window, from a shared block
# ---------------------------------------------------------------------------

BLOCK_CASES = dict(
    sampler=st.sampled_from(["normal", "exponential"]),
    divergence=st.sampled_from(["tv", "jsd"]),
    n=st.integers(1, 8),
    eta=st.sampled_from(ETAS),
    sigma=st.sampled_from(SIGMAS),
    trials=st.integers(100, 400),
    seed=st.integers(0, 2**16),
)


def _block_config(sampler, divergence, n, eta, sigma, trials, seed, nan_distances=False):
    v_star, r_min = (4.0, 4.0, 0.0), -5.0
    if sampler == "exponential":
        eta = (2.0, 2.0, 0.1)
    if nan_distances:
        # Exponential scales that underflow to 0 times an infinite
        # detection give NaN distances.
        v_star, eta, r_min = (1e308, 0.0, 0.0), (1e308, 0.0, 0.0), -50_000.0
    return TheoremConfig(
        v_star=v_star, eta=eta, epsilon=1.0, sampler=sampler, sigma=sigma, lam=1.0, r_min=r_min,
        r_max=5.0, n=n, trials=trials, divergence=divergence, seed=seed, amp=1.5,
    )


def _shared_and_own_block_scores(config):
    """min_deviation_mc's scored trial sets from a drawn block, which it
    must not write, and from the block it draws itself."""
    block = np.concatenate(list(draw_trials(config)))
    drawn = block.copy()
    with np.errstate(all="ignore"):
        scores = (min_deviation_mc(config, block), min_deviation_mc(config))
    assert _same_array(block, drawn)
    return scores


def _assert_nearest_window_scores(scored, config):
    """`scored` scores the trial set at each trial's nearest window, and
    its distances are the previous code's save where that code's squared
    distance overflowed to inf."""
    min_devs, min_dist = scored
    with np.errstate(all="ignore"):
        definition = nearest_window_deviations(config.bump, config)
        previous_devs, previous_dist = previous_min_deviation_mc(config.bump, config)
        report = bound_report(config, min_devs, min_dist)
        want = bound_report(config, definition, min_dist)
    assert _same_array(min_devs, definition)
    measured = previous_dist != np.inf
    assert _same_array(min_dist[measured], previous_dist[measured])
    assert _bits(report.to_csv_row()) == _bits(want.to_csv_row())
    assert_near_per_window_minimum(definition, previous_devs)


@settings(max_examples=60, deadline=None)
@given(nan_distances=st.booleans(), **BLOCK_CASES)
def test_centred_block_scores_are_the_nearest_window_deviations(
    sampler, divergence, n, eta, sigma, nan_distances, trials, seed
):
    """A bump centred at the optimum, scoring a shared block, takes each
    trial's nearest window, which is NaN only where every distance is."""
    config = _block_config(sampler, divergence, n, eta, sigma, trials, seed, nan_distances)
    for min_devs, min_dist in _shared_and_own_block_scores(config):
        _assert_nearest_window_scores((min_devs, min_dist), config)
        assert _same_array(np.isnan(min_devs), np.isnan(min_dist))
    if nan_distances and sampler == "exponential":
        assert np.isnan(min_dist).any()


# ---------------------------------------------------------------------------
# A centred bump scores each trial at its nearest window
# ---------------------------------------------------------------------------

AMPS = st.floats(-50.0, 50.0) | st.sampled_from([0.0, -0.0, 36.8125, 40.0, 709.0, 710.0, 1e300, -1e300])
N_VALUES = st.integers(1, 8) | st.just(64)
SQUARED_DISTANCE = st.floats(min_value=0.0) | st.sampled_from([5e-324, 1e-2, 10.0, np.inf, np.nan])


@st.composite
def squared_distances(draw):
    shape = draw(st.tuples(st.integers(1, 30), N_VALUES))
    if draw(st.booleans()):
        return draw(arrays(np.float64, shape, elements=SQUARED_DISTANCE))
    # Windows a few ulps apart, where rounding can reorder their deviations.
    base = draw(st.floats(0.0, 200.0) | st.sampled_from([1e-12, 1e-9, 1e-6]))
    step = draw(st.sampled_from([1.0, 2.0**10, 2.0**20, 2.0**30, 2.0**40])) * np.spacing(base)
    return base + step * draw(arrays(np.int64, shape, elements=st.integers(0, 16)))


@settings(max_examples=300, deadline=None)
@given(d2=squared_distances(), amp=AMPS, divergence=st.sampled_from(["tv", "jsd"]))
# The nearest window's TV is not the per-window minimum here: its
# x = exp(bump) lies in [2**53, 2**54) (the bump in [36.74, 37.43)), where
# x / (x + 1) alternates between two values.
@example(d2=np.array([[2e-3] + [1e-3] * 63]), amp=36.8125, divergence="tv")
# Nor here, where x / (x + 1) dips by an ulp between windows ulps apart
# in bump: the farther window's TV is the smaller by 2**-53.
@example(d2=np.array([[1.18e-12, 1.179e-12]]), amp=0.5, divergence="tv")
def test_min_deviations_are_the_nearest_window_deviations(d2, amp, divergence):
    """Given its windows' squared distances, min_deviation_mc scores a
    centred bump at each trial's nearest window bit for bit, through inf
    and NaN distances and windows whose deviations rounding reorders."""
    rows = np.tile(d2, (-(-100 // len(d2)), 1))  # a trial set has 100 trials or more
    trials, n = rows.shape
    config = TheoremConfig(
        v_star=(0.0, 0.0, 0.0), eta=(0.0, 0.0, 0.0), epsilon=1.0, n=n, trials=trials,
        divergence=divergence, amp=amp,
    )
    model = config.bump
    with mock.patch.object(theory, "_squared_window_distance", lambda *args: rows.copy()):
        got, _ = min_deviation_mc(config, np.zeros((trials, n, FOV_DIM)))
    with np.errstate(all="ignore"):
        d_star = model.dists(np.zeros((1, FOV_DIM)))[0]
        nearest_d2 = np.fmin.reduce(rows, axis=1)
        nearest = _divergence_batch(d_star, model.dists_at(nearest_d2), divergence)
        # dists_at writes over its argument, so the per-window call comes last.
        per_window = _divergence_batch(d_star, model.dists_at(rows.reshape(-1)), divergence)
    assert _same_array(got, nearest)
    assert_near_per_window_minimum(nearest, per_window.reshape(rows.shape).min(axis=1))


@settings(max_examples=60, deadline=None)
@given(
    sampler=st.sampled_from(["normal", "exponential"]),
    divergence=st.sampled_from(["tv", "jsd"]),
    regime=st.sampled_from(["plain", "clustered", "overflowing", "nan-distances"]),
    n=N_VALUES,
    amp=AMPS,
    trials=st.integers(100, 300),
    seed=st.integers(0, 2**16),
)
def test_min_deviations_are_the_nearest_window_reference(
    sampler, divergence, regime, n, amp, trials, seed
):
    """min_deviation_mc's nearest-window minima equal the definition
    computed from the previous code's windows, and lie within 2**-51 of its
    per-window minima, on windows a few ulps apart in bump and on windows
    whose squared distances overflow to inf (some or all of a trial's) or
    are NaN."""
    v_star, eta, sigma, lam, r_max, r_min = (4.0, 4.0, 0.0), (0.8, 0.6, 0.0), 1.0, 0.6, 5.0, -5.0
    if sampler == "exponential":
        eta = (2.0, 2.0, 0.1)
    if regime == "clustered":
        # Windows within about 1e-6 of the optimum, or of one another.
        eta, sigma, lam = (0.0, 0.0, 0.0), 1e-6, 1e-9
    elif regime == "overflowing":
        # Coordinates near 1e154 square past the largest float.
        sigma, lam, r_max = 1e154, 1e10, 16.0
    elif regime == "nan-distances":
        # Scales that underflow to 0 times an infinite detection.
        v_star, eta, lam, r_min = (1e308, 0.0, 0.0), (1e308, 0.0, 0.0), 1.0, -50_000.0
    config = TheoremConfig(
        v_star=v_star, eta=eta, epsilon=1.0, sampler=sampler, sigma=sigma, lam=lam, r_min=r_min,
        r_max=r_max, n=n, trials=trials, divergence=divergence, seed=seed, amp=amp,
    )
    _assert_nearest_window_scores(min_deviation_mc(config), config)


def test_jsd_takes_the_nearest_window_above_the_per_window_minimum():
    """At this measured config the nearest window's JSD (d2 = 74.6)
    exceeds the farther one's (d2 = 248.4) by a rounding error, so trial 27
    scores 2**-54 above the minimum over its windows."""
    v_star = (4.0, 4.0, 0.0)
    config = TheoremConfig(
        v_star=v_star, eta=(2.0, 2.0, 0.1), epsilon=1.0, sampler="exponential", n=2, trials=100,
        divergence="jsd", seed=2, amp=2.5,
    )
    got, _ = min_deviation_mc(config)
    assert _same_array(got, nearest_window_deviations(config.bump, config))
    gap = got - previous_min_deviation_mc(config.bump, config)[0]
    assert np.flatnonzero(gap).tolist() == [27]
    assert gap[27] == 2.0**-54


def test_amp_40_normal_tv_row_is_the_nearest_window_definition():
    """Near the optimum an amp-40 bump takes x = exp(bump) through
    [2**53, 2**54), where x / (x + 1) rounds to 1.0 or 1 - 2**-52 by the
    parity of x / 2, so the computed TV does not grow with the distance. This default-grid row
    (seed 1, eta 0, sigma 0.5, n 2) reads the nearest windows' deviations,
    whose mean differs from that of the per-window minima in its last
    digits."""
    options = {"amp": 40.0, "samplers": ["normal"], "etas": [[0, 0, 0]], "sigmas": [0.5],
               "epsilons": [0.5], "n_values": [2]}
    (row,) = run_theorem_verify(options, 1)
    v_star = (4.0, 4.0, 0.0)
    config = TheoremConfig(
        v_star=v_star, eta=(0, 0, 0), epsilon=0.5, sigma=0.5, n=2, seed=3, amp=40.0
    )
    definition = nearest_window_deviations(config.bump, config)
    assert row["mean_min_deviation"] == float(definition.mean())
    assert_near_per_window_minimum(definition, previous_min_deviation_mc(config.bump, config)[0])


@settings(max_examples=20, deadline=None)
@given(divergence=st.sampled_from(["tv", "jsd"]), n=st.integers(2, 8), trials=st.integers(100, 300))
def test_bump_evaluates_one_window_per_trial(divergence, n, trials):
    v_star = (4.0, 4.0, 0.0)
    config = TheoremConfig(
        v_star=v_star, eta=(0.8, 0.6, 0.0), epsilon=1.0, n=n, trials=trials, divergence=divergence
    )
    sizes = []
    dists_at = GaussianBumpModel.dists_at

    def spy(model, d2):
        sizes.append(d2.size)
        return dists_at(model, d2)

    with mock.patch.object(GaussianBumpModel, "dists_at", spy):
        bound_report(config, *min_deviation_mc(config))
    # The center, the windows, then the delta estimate's center and probes.
    assert sizes == [1, trials, 1, DELTA_PROBES]
