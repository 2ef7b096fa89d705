import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from halc.distributions import (
    _plausible,
    argmax_logit,
    contrast_distribution,
    jsd,
    softmax,
    top_m_pairs,
    total_variation,
)
from halc.errors import InvalidInputError


def brute_force_jsd(p, q):
    """Term-by-term evaluation of the base-2 JSD definition."""
    m = [(pi + qi) / 2 for pi, qi in zip(p, q)]

    def kl(a, b):
        total = 0.0
        for ai, bi in zip(a, b):
            if ai > 0:
                total += ai * math.log2(ai / bi)
        return total

    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


def random_dist(rng, size):
    raw = rng.uniform(0.0, 1.0, size)
    return raw / raw.sum()


def test_softmax_symmetry():
    np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5])


def test_softmax_shift_invariance():
    a = softmax([1.0, 2.0])
    b = softmax([101.0, 102.0])
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_masked_entry():
    np.testing.assert_allclose(softmax([-np.inf, 0.0]), [0.0, 1.0])


def test_softmax_all_masked_is_error():
    with pytest.raises(InvalidInputError):
        softmax([-np.inf, -np.inf])


def test_jsd_identity():
    p = [0.25, 0.75]
    assert jsd(p, p) == 0.0


def test_jsd_disjoint_supports_hit_base2_maximum():
    assert jsd([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)


def test_jsd_matches_brute_force_oracle():
    p, q = [0.5, 0.5], [0.9, 0.1]
    assert jsd(p, q) == pytest.approx(brute_force_jsd(p, q), abs=1e-12)


def test_jsd_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        jsd([1.0], [0.5, 0.5])


def test_total_variation_examples():
    assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert total_variation([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    assert total_variation([0.7, 0.3], [0.4, 0.6]) == pytest.approx(0.3)


# A plausibility threshold that keeps every unmasked token of the vectors below.
KEEP_ALL = 1e-3


def test_contrast_alpha_zero_is_identity():
    f_e = np.array([1.0, 3.0, -2.0])
    out = contrast_distribution(f_e, [0.0, 9.0, 4.0], 0.0, KEEP_ALL)
    np.testing.assert_allclose(out, softmax(f_e), rtol=1e-15)


def test_contrast_direct_arithmetic():
    # (1 + 1) * [2, 0] - 1 * [0, 2] = [4, -2]
    out = contrast_distribution([2.0, 0.0], [0.0, 2.0], 1.0, KEEP_ALL)
    np.testing.assert_allclose(out, softmax([4.0, -2.0]), rtol=1e-15)


def test_contrast_self_identity():
    f = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(contrast_distribution(f, f, 0.7, KEEP_ALL), softmax(f), rtol=1e-15)


def test_contrast_preserves_expert_mask():
    out = contrast_distribution([-np.inf, 1.0], [-np.inf, 0.0], 0.5, KEEP_ALL)
    assert out[0] == 0.0


def test_logits_reject_nan_and_positive_infinity():
    with pytest.raises(InvalidInputError):
        softmax([np.nan, 0.0])
    with pytest.raises(InvalidInputError):
        softmax([np.inf, 0.0])
    with pytest.raises(InvalidInputError):
        contrast_distribution([np.nan, 0.0], [0.0, 0.0], 0.1, 0.1)
    with pytest.raises(InvalidInputError):
        contrast_distribution([1.0, 0.0], [np.nan, 0.0], 0.1, 0.1)


def plausible_ids(p, beta):
    """The token ids the plausibility mask keeps."""
    return set(np.flatnonzero(_plausible(p, beta)).tolist())


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), beta=st.floats(1e-6, 0.999))
def test_mask_always_contains_argmax(seed, beta):
    rng = np.random.default_rng(seed)
    p = random_dist(rng, 10)
    assert int(np.argmax(p)) in plausible_ids(p, beta)


def test_mask_uniform_keeps_everything():
    assert plausible_ids([0.25, 0.25, 0.25, 0.25], 0.5) == {0, 1, 2, 3}


def test_mask_threshold_example():
    assert plausible_ids([0.96, 0.03, 0.01], 0.1) == {0}


def test_mask_keeps_tokens_exactly_at_the_threshold():
    assert plausible_ids([0.5, 0.25, 0.125], 0.5) == {0, 1}


def test_mask_beta_to_zero_keeps_positive_mass():
    assert {0, 1} <= plausible_ids([0.9, 0.1, 0.0], 1e-12)


def test_contrast_distribution_alpha_zero_restricts_and_renormalizes():
    f_e = np.array([2.0, 1.0, -5.0])
    p_e = softmax(f_e)
    out = contrast_distribution(f_e, np.array([0.0, 0.0, 0.0]), 0.0, 0.1)
    keep = p_e >= 0.1 * p_e.max()
    expected = np.where(keep, p_e, 0.0)
    expected /= expected.sum()
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_contrast_distribution_singleton_mask_is_one_hot():
    f_e = np.array([10.0, 0.0, 0.0])
    out = contrast_distribution(f_e, np.array([1.0, 1.0, 1.0]), 0.3, 0.5)
    np.testing.assert_allclose(out, [1.0, 0.0, 0.0])


def test_contrast_distribution_matches_step_by_step_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f_e = rng.normal(size=16)
        f_a = rng.normal(size=16)
        alpha, beta = 0.4, 0.2
        # Independent recomputation of the full pipeline.
        p_e = np.exp(f_e - f_e.max())
        p_e /= p_e.sum()
        allowed = p_e >= beta * p_e.max()
        raw = (1 + alpha) * f_e - alpha * f_a
        raw[~allowed] = -np.inf
        shifted = np.exp(raw - raw[allowed].max())
        expected = shifted / shifted.sum()
        np.testing.assert_allclose(
            contrast_distribution(f_e, f_a, alpha, beta), expected, atol=1e-12
        )


def test_top_m_pairs_single_pair():
    dists = [np.array([0.9, 0.1]), np.array([0.1, 0.9])]
    assert top_m_pairs(dists, 10) == [(0, 1)]


def test_top_m_pairs_full_set_sorted():
    rng = np.random.default_rng(11)
    dists = [random_dist(rng, 8) for _ in range(4)]
    pairs = top_m_pairs(dists, 6)
    assert len(pairs) == 6
    scores = [jsd(dists[i], dists[j]) for i, j in pairs]
    assert scores == sorted(scores, reverse=True)
    assert set(pairs) == {(i, j) for i in range(4) for j in range(i + 1, 4)}


def test_top_m_pairs_tie_break_lexicographic():
    d = np.array([0.5, 0.5])
    assert top_m_pairs([d, d, d], 3) == [(0, 1), (0, 2), (1, 2)]


def test_argmax_logit_rules():
    assert argmax_logit([0.0, 0.0, 1.0]) == 2
    assert argmax_logit([0.25, 0.25, 0.25, 0.25]) == 0
    assert argmax_logit([0.2, 0.5, 0.3]) == 1


# ---------------------------------------------------------------------------
# Randomized properties
# ---------------------------------------------------------------------------

dist_pairs = st.integers(0, 2**32 - 1)


def test_jsd_symmetry_and_range_on_1000_pairs():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        p = random_dist(rng, 32)
        q = random_dist(rng, 32)
        forward, backward = jsd(p, q), jsd(q, p)
        assert abs(forward - backward) < 1e-12
        assert -1e-12 <= forward <= 1.0 + 1e-12
        tv = total_variation(p, q)
        assert -1e-12 <= tv <= 1.0 + 1e-12


def test_jsd_zero_iff_equal():
    rng = np.random.default_rng(1)
    p = random_dist(rng, 16)
    assert jsd(p, p.copy()) == 0.0
    q = random_dist(rng, 16)
    if np.abs(p - q).max() >= 1e-12:
        assert jsd(p, q) > 0.0


@settings(max_examples=100)
@given(seed=dist_pairs)
def test_contrast_argmax_alpha_zero_matches_expert(seed):
    rng = np.random.default_rng(seed)
    f_e = rng.normal(size=12)
    f_a = rng.normal(size=12)
    out = contrast_distribution(f_e, f_a, 0.0, 0.1)
    assert int(np.argmax(out)) == int(np.argmax(f_e))


@settings(max_examples=100)
@given(seed=dist_pairs)
def test_masked_tokens_have_zero_probability(seed):
    rng = np.random.default_rng(seed)
    f_e = rng.normal(size=12)
    f_a = rng.normal(size=12)
    out = contrast_distribution(f_e, f_a, 0.3, 0.25)
    p_e = softmax(f_e)
    masked = p_e < 0.25 * p_e.max()
    assert np.all(out[masked] == 0.0)
    assert abs(out.sum() - 1.0) < 1e-9


@settings(max_examples=100)
@given(seed=dist_pairs, shift=st.floats(-50.0, 50.0))
def test_contrast_distribution_shift_invariance(seed, shift):
    rng = np.random.default_rng(seed)
    f_e = rng.normal(size=12)
    f_a = rng.normal(size=12)
    # Mask membership is discontinuous exactly at the threshold; keep the
    # example away from that measure-zero boundary.
    p_e = softmax(f_e)
    assume(np.abs(p_e - 0.2 * p_e.max()).min() > 1e-6)
    base = contrast_distribution(f_e, f_a, 0.4, 0.2)
    shifted = contrast_distribution(f_e + shift, f_a + shift, 0.4, 0.2)
    np.testing.assert_allclose(base, shifted, atol=1e-9)
