"""Reference protocol configurations shipped with the package.

``rfc3626`` is the protocol's standard timing.  The ``gomez-*`` entries
are expert hand-tunings from the ad hoc networking literature that scale
the standard intervals by 1/4, 1/2, and 2.  The scaled-down pair sits at
or below the edges of the tuning box the optimizers search (gomez-1 is
outright outside it); like every config, they are simulated verbatim.
"""

from __future__ import annotations

from .olsr import OlsrConfig


def named_configs() -> dict[str, OlsrConfig]:
    """Label -> config; ``Simulator`` validates each when it runs it."""
    return {
        "rfc3626": OlsrConfig(),
        "gomez-1": OlsrConfig(
            hello_interval=0.50, refresh_interval=0.50, tc_interval=1.25,
            willingness=3, neighb_hold_time=1.50, top_hold_time=3.75,
            mid_hold_time=3.75, dup_hold_time=30.0),
        "gomez-2": OlsrConfig(
            hello_interval=1.0, refresh_interval=1.0, tc_interval=2.5,
            willingness=3, neighb_hold_time=3.0, top_hold_time=7.5,
            mid_hold_time=7.5, dup_hold_time=30.0),
        "gomez-3": OlsrConfig(
            hello_interval=4.0, refresh_interval=4.0, tc_interval=10.0,
            willingness=3, neighb_hold_time=12.0, top_hold_time=20.0,
            mid_hold_time=20.0, dup_hold_time=30.0),
    }
