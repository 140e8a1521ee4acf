"""Check the ten Baseline rows of ROADMAP.md: digest and events per scenario.

Each row is one run of the ``rfc3626`` config at seed 1.  The digest is
``sha256(repr(QosMetrics))[:16]`` and the events are the events the run
scheduled (``Simulator._insertions``).  A change that keeps behaviour must
leave every row as it is.  Run from the root of a checkout::

    PYTHONPATH=src python3 tests/baseline_digests.py

It prints one line per row and exits 1 if any row differs.  The file name
does not start with ``test_``, so pytest does not collect it; the whole
table takes about 20 s, most of it u3-high.
"""

from __future__ import annotations

import hashlib
import sys
import time

from olsrlab.configs import named_configs
from olsrlab.netsim import Simulator
from olsrlab.scenario import catalog

# scenario -> (events scheduled, digest), as in ROADMAP.md's Baseline table
BASELINE = {
    "static-mesh-smoke": (4037, "494aa0427964c7e1"),
    "congested-small": (6647, "78f8dadc173de9d9"),
    "u1-low": (15246, "d45df7da79359e0d"),
    "u1-med": (50624, "656601abf5e0a27f"),
    "u1-high": (101849, "de4d8f3b6900e68b"),
    "base-malaga-like": (187027, "70df89aba39cda27"),
    "u2-low": (55406, "bb519facd964248f"),
    "u2-med": (202732, "5bed82a1e40b3443"),
    "u3-low": (134543, "773b7be845b4b2f4"),
    "u3-high": (1462254, "474058a978ed06a9"),
}


def main() -> int:
    scenarios = catalog()
    config = named_configs()["rfc3626"]
    failed = 0
    for name, want in BASELINE.items():
        sim = Simulator(scenarios[name], config, 1)
        start = time.perf_counter()
        metrics = sim.run()
        wall = time.perf_counter() - start
        got = (sim._insertions, hashlib.sha256(repr(metrics).encode()).hexdigest()[:16])
        ok = got == want
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: events={got[0]} digest={got[1]}"
              + ("" if ok else f" (want events={want[0]} digest={want[1]})")
              + f" in {wall:.2f} s")
    print(f"{len(BASELINE) - failed} of {len(BASELINE)} rows match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
