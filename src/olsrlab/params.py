"""Search space over the eight tunable protocol parameters.

Optimizers work on raw real vectors; :func:`decode_params` clamps each
component into its tuning range and rounds the willingness dimension to
the nearest integer, so any finite vector decodes to a valid
:class:`~olsrlab.olsr.OlsrConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .olsr import WILL_ALWAYS, WILL_NEVER, OlsrConfig

INTERVAL_RANGE = (1.0, 30.0)
HOLD_RANGE = (3.0, 100.0)


@dataclass(frozen=True)
class Dimension:
    name: str
    lower: float
    upper: float
    integer: bool = False


@dataclass(frozen=True)
class ParamSpace:
    dimensions: tuple[Dimension, ...]

    def __len__(self) -> int:
        return len(self.dimensions)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dimensions)

    @property
    def lower(self) -> tuple[float, ...]:
        return tuple(d.lower for d in self.dimensions)

    @property
    def upper(self) -> tuple[float, ...]:
        return tuple(d.upper for d in self.dimensions)

    def clamp(self, raw) -> tuple[float, ...]:
        return tuple(
            min(max(float(v), d.lower), d.upper)
            for v, d in zip(raw, self.dimensions, strict=True)
        )

    def sample(self, rng) -> tuple[float, ...]:
        """One uniform point; works with random.Random and numpy generators."""
        return tuple(rng.uniform(d.lower, d.upper) for d in self.dimensions)


def default_param_space() -> ParamSpace:
    """The tuning box the optimizers search, in ``OlsrConfig.as_vector`` order.

    It is narrower than what :meth:`OlsrConfig.validate` accepts, so configs
    outside it (such as the sub-second ``gomez-1``) still simulate.
    """
    return ParamSpace(
        (
            Dimension("hello_interval", *INTERVAL_RANGE),
            Dimension("refresh_interval", *INTERVAL_RANGE),
            Dimension("tc_interval", *INTERVAL_RANGE),
            Dimension("willingness", float(WILL_NEVER), float(WILL_ALWAYS), integer=True),
            Dimension("neighb_hold_time", *HOLD_RANGE),
            Dimension("top_hold_time", *HOLD_RANGE),
            Dimension("mid_hold_time", *HOLD_RANGE),
            Dimension("dup_hold_time", *HOLD_RANGE),
        )
    )


def decode_params(raw, space: ParamSpace | None = None) -> OlsrConfig:
    """Clamp-and-round a raw vector into a validated OlsrConfig."""
    if space is None:
        space = default_param_space()
    values = list(raw)
    if len(values) != len(space):
        raise ValueError(f"expected {len(space)} parameters, got {len(values)}")
    for name, v in zip(space.names, values, strict=True):
        if not math.isfinite(float(v)):
            raise ValueError(f"{name} is not finite: {v!r}")
    fields = {}
    for dim, v in zip(space.dimensions, space.clamp(values), strict=True):
        if dim.integer:
            # round half up, then clamp again in case of .5 at the edge
            v = int(min(max(math.floor(v + 0.5), dim.lower), dim.upper))
        fields[dim.name] = v
    return OlsrConfig(**fields).validate()

