"""Tuning-box decoding: any finite raw vector must become a valid config."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olsrlab.olsr import OlsrConfig
from olsrlab.params import LOWER, NAMES, UPPER, decode_params
from oracles import reference_decode_params


def test_tuning_box_names_and_bounds():
    assert NAMES == (
        "hello_interval", "refresh_interval", "tc_interval", "willingness",
        "neighb_hold_time", "top_hold_time", "mid_hold_time", "dup_hold_time",
    )
    assert NAMES == tuple(f.name for f in fields(OlsrConfig))
    assert list(LOWER) == [1.0, 1.0, 1.0, 0.0, 3.0, 3.0, 3.0, 3.0]
    assert list(UPPER) == [30.0, 30.0, 30.0, 7.0, 100.0, 100.0, 100.0, 100.0]
    for bound in (LOWER, UPPER):
        assert all(type(v) is float for v in bound)
        with pytest.raises(TypeError):
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


# a finite component: anywhere in or far outside the box, the extremes of
# the float range, a signed zero, or an int
_component = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-200.0, max_value=200.0),
    st.sampled_from([1e308, -1e308, -0.0, 0.0, 0.5, 3.5, 6.5, 7.0]),
    st.integers(min_value=-10**6, max_value=10**6),
)


@given(st.lists(_component, min_size=8, max_size=8), st.booleans())
def test_plain_clamp_matches_the_numpy_decode(raw, as_array):
    # the optimizers pass rows of a float64 array; records and tests pass lists
    if as_array:
        raw = np.array(raw, dtype=float)
    got, want = decode_params(raw), reference_decode_params(raw)
    assert got == want
    for name in NAMES:
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b)
        assert math.copysign(1.0, a) == math.copysign(1.0, b)
