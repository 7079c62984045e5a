import importlib
import importlib.util
import pathlib

import qq22
from qq22.engine import CorrelatorEngine
from qq22.scalars import GaussianRational

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_exported_name_resolves():
    missing = [name for name in qq22.__all__ if not hasattr(qq22, name)]
    assert missing == []
    assert len(set(qq22.__all__)) == len(qq22.__all__)


def test_benchmark_tracer_targets_resolve():
    # the benchmark's tracer patches these by name; one that is renamed away
    # would make `perfbench/run.py --trace 1` fail at install time
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        "%s.%s" % (short, name)
        for short, names in tracer.FUNCTIONS.items()
        for name in names
        if not callable(getattr(importlib.import_module("qq22." + short), name, None))
    ]
    missing += [m for m in tracer.ENGINE_METHODS if m not in vars(CorrelatorEngine)]
    missing += [m for m in tracer.GAUSSIAN_OPS if m not in vars(GaussianRational)]
    assert missing == []
