"""The benchmark's work counters (`perfbench/spans.py`) read library
arguments by name; a renamed parameter must fail here rather than as a
KeyError in a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_counters() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COUNTERS


COUNTERS = load_counters()


@pytest.mark.parametrize("name", sorted(COUNTERS))
def test_counter_reads_library_parameters(name):
    module, *attrs = name.split(".")
    fn = importlib.import_module(f"roughdensity.{module}")
    for attr in attrs:
        fn = getattr(fn, attr)
    args = {p: np.zeros((2, 2, 2)) for p in inspect.signature(fn).parameters}
    COUNTERS[name](args)
