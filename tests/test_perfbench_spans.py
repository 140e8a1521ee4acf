"""The benchmark's span hooks still find and wrap every layer they time.

``perfbench/spans.py`` swaps olsrlab's callables for timing wrappers by
name and reads some of their inputs.  This test runs one simulation and a
short search under the hooks, so that renaming a wrapped callable or
changing an input a hook reads fails here, not only in the benchmark.
"""

import sys
from pathlib import Path

from olsrlab import cli, fitness, netsim, olsr, optimizers, scenario
from olsrlab.fitness import OlsrObjective
from olsrlab.optimizers import OptimizerConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402

MODULES = {"cli": cli, "fitness": fitness, "netsim": netsim, "olsr": olsr,
           "optimizers": optimizers, "scenario": scenario}
# everything the hooks may patch: the modules and the classes they wrap
OWNERS = (*MODULES.values(), olsr.NodeState, netsim.Simulator, scenario.MobilityTrace,
          fitness.OlsrObjective)


def test_span_hooks_wrap_every_layer_and_undo_puts_the_originals_back():
    originals = {(owner, name): value
                 for owner in OWNERS for name, value in vars(owner).items()}
    tracer = spans.Tracer()
    undo = spans.instrument(tracer, MODULES)
    try:
        wrapped = [(owner, name) for (owner, name), value in originals.items()
                   if vars(owner)[name] is not value]
        for owner, name in wrapped:
            assert vars(owner)[name].__wrapped__ is originals[owner, name], name
        spec = scenario.catalog()["static-mesh-smoke"]
        netsim.run_simulation(spec, olsr.OlsrConfig(), 1)
        cli.search(OptimizerConfig("RAND", budget=2), OlsrObjective(spec, seeds=(1,)))
    finally:
        undo()
    assert wrapped
    assert all(vars(owner)[name] is value for (owner, name), value in originals.items())
    metrics = spans.layer_metrics(tracer, 1)
    assert metrics["netsim.events"] > 0
    assert metrics["olsr.process_message.hello.calls"] > 0
    assert metrics["olsr.select_mprs.calls"] > 0
    assert metrics["fitness.evaluate.calls"] == 2
