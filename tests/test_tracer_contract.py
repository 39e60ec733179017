"""The benchmark's tracer still finds every name its layer metrics read.

``perfbench/run.py``'s ``layer_metrics`` reads call counts and inclusive
times by qualified name from a traced pass.  A library change that removes
or renames one of those functions breaks ``run.py --trace 1``; this test
fails first.
"""

import importlib.util
from pathlib import Path

import chordenum.cli  # noqa: F401  (every layer module, as the benchmark's child imports them)

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_wraps_every_name_the_layer_metrics_read():
    tracer = load_tracer()
    traced = tracer.Tracer()
    read = set(tracer.TIMED) | set(traced._observers)
    read |= {"symmetry.validate_even_sector_terms", "series.TruncatedSeries.exp"}
    traced.install()
    try:
        wrapped = set(traced.calls)
    finally:
        traced.uninstall()
    assert sorted(read - wrapped) == []
    assert tracer.wrapped_names() == []
