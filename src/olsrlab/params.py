"""The tuning box over the eight tunable protocol parameters.

Optimizers work on raw real vectors in ``NAMES`` order and search the box
``[LOWER, UPPER]``, two tuples of floats; :func:`decode_params` clamps each
component into it and rounds the willingness dimension to the nearest
integer, so any finite vector decodes to a valid
:class:`~olsrlab.olsr.OlsrConfig`.  Decoding is plain Python: a simulation,
a comparison or a report never imports numpy, which only a search loads.

The box is narrower than what :meth:`OlsrConfig.validate` accepts, so
configs outside it (such as the sub-second ``gomez-1``) still simulate.
"""

from __future__ import annotations

import math
from dataclasses import fields

from .olsr import WILL_ALWAYS, WILL_NEVER, OlsrConfig

INTERVAL_RANGE = (1.0, 30.0)
HOLD_RANGE = (3.0, 100.0)

# one entry per OlsrConfig field, in declaration (``as_vector``) order
NAMES = tuple(f.name for f in fields(OlsrConfig))


def _bounds(name: str) -> tuple[float, float]:
    if name == "willingness":
        return float(WILL_NEVER), float(WILL_ALWAYS)
    return INTERVAL_RANGE if name.endswith("_interval") else HOLD_RANGE


LOWER, UPPER = zip(*map(_bounds, NAMES))


def decode_params(raw) -> OlsrConfig:
    """Clamp-and-round a raw vector into a validated OlsrConfig."""
    values = list(raw)
    if len(values) != len(NAMES):
        raise ValueError(f"expected {len(NAMES)} parameters, got {len(values)}")
    for name, v in zip(NAMES, values):
        if not math.isfinite(float(v)):
            raise ValueError(f"{name} is not finite: {v!r}")
    # Python floats keep a record's repr unchanged
    clamped = {name: min(max(float(v), lo), hi)
               for name, v, lo, hi in zip(NAMES, values, LOWER, UPPER)}
    # round half up; a value in [0, 7] stays in [0, 7]
    clamped["willingness"] = math.floor(clamped["willingness"] + 0.5)
    return OlsrConfig(**clamped).validate()
