"""Tuning-box decoding: any finite raw vector must become a valid config."""

import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olsrlab.olsr import OlsrConfig
from olsrlab.params import LOWER, NAMES, UPPER, decode_params


def test_tuning_box_names_and_bounds():
    assert NAMES == (
        "hello_interval", "refresh_interval", "tc_interval", "willingness",
        "neighb_hold_time", "top_hold_time", "mid_hold_time", "dup_hold_time",
    )
    assert NAMES == tuple(f.name for f in fields(OlsrConfig))
    assert LOWER.tolist() == [1.0, 1.0, 1.0, 0.0, 3.0, 3.0, 3.0, 3.0]
    assert UPPER.tolist() == [30.0, 30.0, 30.0, 7.0, 100.0, 100.0, 100.0, 100.0]
    for bound in (LOWER, UPPER):
        with pytest.raises(ValueError, match="read-only"):
            bound[0] = 0.5


def test_clamp_pins_to_bounds():
    cfg = decode_params((-5.0, 2.0, 99.0, 7.5, 3.0, 100.0, 50.0, 0.0))
    assert cfg.as_vector() == (1.0, 2.0, 30.0, 7.0, 3.0, 100.0, 50.0, 3.0)
    # every field is a plain Python number, so a record's repr is unchanged
    assert [type(v) for v in vars(cfg).values()] == [float] * 3 + [int] + [float] * 4


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
    cfg = decode_params(raw)
    assert cfg.validate() is cfg
    assert isinstance(cfg.willingness, int)
    for v, lo, hi in zip(cfg.as_vector(), LOWER, UPPER, strict=True):
        assert lo <= v <= hi

