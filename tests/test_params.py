"""Search-space decoding: any finite raw vector must become a valid config."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olsrlab.olsr import OlsrConfig
from olsrlab.params import decode_params, default_param_space


def test_default_space_shape_and_bounds():
    space = default_param_space()
    assert len(space) == 8
    assert space.names == (
        "hello_interval", "refresh_interval", "tc_interval", "willingness",
        "neighb_hold_time", "top_hold_time", "mid_hold_time", "dup_hold_time",
    )
    assert space.lower == (1.0, 1.0, 1.0, 0.0, 3.0, 3.0, 3.0, 3.0)
    assert space.upper == (30.0, 30.0, 30.0, 7.0, 100.0, 100.0, 100.0, 100.0)
    assert [d.integer for d in space.dimensions].count(True) == 1
    assert space.dimensions[3].integer


def test_clamp_pins_to_bounds():
    space = default_param_space()
    clamped = space.clamp((-5.0, 2.0, 99.0, 7.5, 3.0, 100.0, 50.0, 0.0))
    assert clamped == (1.0, 2.0, 30.0, 7.0, 3.0, 100.0, 50.0, 3.0)


def test_standard_vector_decodes_to_standard_config():
    assert decode_params((2.0, 2.0, 5.0, 3.0, 6.0, 15.0, 15.0, 30.0)) == OlsrConfig()
    cfg = OlsrConfig()
    assert decode_params(cfg.as_vector()) == cfg


@pytest.mark.parametrize("raw,expected", [
    (3.49, 3),
    (3.5, 4),     # half rounds up
    (6.99, 7),
    (7.9, 7),     # clamped into the grade range
    (-2.0, 0),
])
def test_willingness_rounding(raw, expected):
    vec = (2.0, 2.0, 5.0, raw, 6.0, 15.0, 15.0, 30.0)
    assert decode_params(vec).willingness == expected


def test_decode_clamps_continuous_dimensions():
    cfg = decode_params((0.5, 40.0, 5.0, 3.0, 1.0, 15.0, 200.0, 30.0))
    assert cfg.hello_interval == 1.0
    assert cfg.refresh_interval == 30.0
    assert cfg.neighb_hold_time == 3.0
    assert cfg.mid_hold_time == 100.0


def test_decode_rejects_bad_input():
    with pytest.raises(ValueError):
        decode_params((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        decode_params((2.0, 2.0, float("nan"), 3.0, 6.0, 15.0, 15.0, 30.0))
    with pytest.raises(ValueError):
        decode_params((2.0, 2.0, math.inf, 3.0, 6.0, 15.0, 15.0, 30.0))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=8, max_size=8))
def test_every_finite_vector_decodes_valid(raw):
    # decode must never hand the simulator an out-of-range config
    space = default_param_space()
    cfg = decode_params(raw)
    assert cfg.validate() is cfg
    assert isinstance(cfg.willingness, int)
    for i, v in enumerate(cfg.as_vector()):
        assert space.lower[i] <= v <= space.upper[i]


def test_sample_respects_bounds_for_both_rng_kinds():
    space = default_param_space()
    for rng in (random.Random(3), np.random.default_rng(3)):
        for _ in range(100):
            point = space.sample(rng)
            assert len(point) == 8
            for v, lo, hi in zip(point, space.lower, space.upper):
                assert lo <= v <= hi
