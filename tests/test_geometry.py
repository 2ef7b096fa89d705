import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halc.errors import InvalidParameterError
from halc.geometry import (
    Fov,
    ImageSpec,
    clamp_to_image,
    expand_fov,
    sample_fovs_exponential,
    sample_fovs_normal,
    sample_fovs_random,
)
from halc.schema import read, write

IMAGE = ImageSpec(1000.0, 1000.0)


def test_expand_direct_evaluation():
    base = Fov(10.0, 20.0, 500.0, 500.0)
    grown = expand_fov(base, 0.6, 1)
    assert grown.width == pytest.approx(16.0)
    assert grown.height == pytest.approx(32.0)
    assert (grown.center_x, grown.center_y) == (500.0, 500.0)


def test_expand_identity_exponent():
    base = Fov(10.0, 20.0, 500.0, 500.0)
    assert expand_fov(base, 0.6, 0) == base


def test_expand_zero_growth():
    base = Fov(10.0, 20.0, 500.0, 500.0)
    assert expand_fov(base, 0.0, 5) == base


def test_expand_rejects_bad_lambda():
    with pytest.raises(InvalidParameterError):
        expand_fov(Fov(10, 10, 5, 5), -1.0, 1)


finite_fovs = st.builds(
    Fov,
    width=st.floats(1.0, 500.0),
    height=st.floats(1.0, 500.0),
    center_x=st.floats(0.0, 1000.0),
    center_y=st.floats(0.0, 1000.0),
)


@given(fov=finite_fovs, lam=st.floats(-0.5, 2.0), r=st.integers(-4, 4))
def test_expand_inverts(fov, lam, r):
    back = expand_fov(expand_fov(fov, lam, r), lam, -r)
    assert back.width == pytest.approx(fov.width, rel=1e-9)
    assert back.height == pytest.approx(fov.height, rel=1e-9)


@given(fov=finite_fovs, lam=st.floats(-0.5, 2.0), r=st.integers(-4, 4))
def test_expand_area_scaling(fov, lam, r):
    grown = expand_fov(fov, lam, r)
    assert grown.area == pytest.approx((1.0 + lam) ** (2 * r) * fov.area, rel=1e-9)


def test_exponential_sampling_widths_match_direct_arithmetic():
    # Oracle: (1+0.6)^r * 10 evaluated by hand for r in {-1, 0, 1, 2}.
    base = Fov(10.0, 20.0, 500.0, 500.0)
    out = sample_fovs_exponential(base, 0.6, 4, IMAGE)
    assert [f.width for f in out] == pytest.approx([6.25, 10.0, 16.0, 25.6])


def test_exponential_sampling_two_samples():
    base = Fov(10.0, 20.0, 500.0, 500.0)
    out = sample_fovs_exponential(base, 0.6, 2, IMAGE)
    assert [f.width for f in out] == pytest.approx([10.0 / 1.6, 10.0])


def test_exponential_sampling_clamps_expansions():
    base = Fov(1000.0, 1000.0, 500.0, 500.0)
    out = sample_fovs_exponential(base, 0.6, 4, IMAGE)
    for fov in out[1:]:
        assert fov.width <= IMAGE.width
        assert fov.height <= IMAGE.height


def test_exponential_sampling_needs_two():
    with pytest.raises(InvalidParameterError):
        sample_fovs_exponential(Fov(10, 10, 5, 5), 0.6, 1, IMAGE)


def test_normal_sampling_degenerate_variance():
    base = Fov(400.0, 400.0, 500.0, 500.0)
    rng = np.random.default_rng(0)
    out = sample_fovs_normal(base, 1e-9, 8, rng, IMAGE)
    for fov in out:
        assert math.dist(fov.as_tuple(), base.as_tuple()) < 3e-9


def test_normal_sampling_deterministic_under_seed():
    base = Fov(300.0, 200.0, 500.0, 500.0)
    a = sample_fovs_normal(base, 25.0, 6, np.random.default_rng(42), IMAGE)
    b = sample_fovs_normal(base, 25.0, 6, np.random.default_rng(42), IMAGE)
    assert a == b


def test_normal_sampling_law_of_large_numbers():
    # Independent oracle: the empirical mean of 1000 width draws.
    base = Fov(500.0, 500.0, 500.0, 500.0)
    out = sample_fovs_normal(base, 1.0, 1000, np.random.default_rng(7), IMAGE)
    mean_width = sum(f.width for f in out) / len(out)
    assert abs(mean_width - base.width) < 0.1


def test_random_sampling_contract():
    a = sample_fovs_random(IMAGE, 16, np.random.default_rng(5))
    b = sample_fovs_random(IMAGE, 16, np.random.default_rng(5))
    assert a == b
    assert len(a) == 16
    for fov in a:
        assert 0.05 * IMAGE.width <= fov.width <= IMAGE.width
        assert fov.center_x - fov.width / 2 >= -1e-9
        assert fov.center_x + fov.width / 2 <= IMAGE.width + 1e-9
        assert fov.center_y - fov.height / 2 >= -1e-9
        assert fov.center_y + fov.height / 2 <= IMAGE.height + 1e-9


def test_clamp_interior_identity():
    fov = Fov(100.0, 100.0, 500.0, 500.0)
    assert clamp_to_image(fov, IMAGE) == fov


def test_clamp_oversized_fov():
    clamped = clamp_to_image(Fov(2000.0, 100.0, 500.0, 500.0), IMAGE)
    assert clamped.width == IMAGE.width
    assert clamped.center_x == IMAGE.width / 2


def test_clamp_translates_before_shrinking():
    clamped = clamp_to_image(Fov(200.0, 200.0, 990.0, 500.0), IMAGE)
    assert clamped.width == 200.0
    assert clamped.center_x == 900.0
    assert clamped.center_y == 500.0


@given(fov=finite_fovs)
def test_clamp_idempotent(fov):
    once = clamp_to_image(fov, IMAGE)
    assert clamp_to_image(once, IMAGE) == once


def test_sample_sets_bitwise_reproducible():
    base = Fov(120.0, 80.0, 400.0, 300.0)
    exp_a = sample_fovs_exponential(base, 0.6, 4, IMAGE)
    exp_b = sample_fovs_exponential(base, 0.6, 4, IMAGE)
    assert exp_a == exp_b
    rnd_a = sample_fovs_random(IMAGE, 4, np.random.default_rng(9))
    rnd_b = sample_fovs_random(IMAGE, 4, np.random.default_rng(9))
    assert rnd_a == rnd_b


def test_fov_json_round_trip():
    fov = Fov(123.456789123, 80.0, 400.25, 300.5)
    doc = fov.to_json()
    assert doc == {"w": 123.456789, "h": 80.0, "cx": 400.25, "cy": 300.5}
    back = read(Fov, doc)
    assert math.isclose(back.width, fov.width, abs_tol=1e-6)
    # A corpus file keeps the window exactly.
    assert read(Fov, write(fov)) == fov
