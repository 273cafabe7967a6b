"""The benchmark's tracer still finds every name it wraps.

bench/spans.py times layers by replacing module globals such as
``stats._log_many`` or ``cli.pga_fit``.  A rename in the library leaves
the wrapped name absent, and every per-layer metric that needs it then
drops out of the benchmark's result without an error.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_wrapped_name_and_restores_it():
    spans = _load_spans()
    targets = [(importlib.import_module(f"shapetensors.{m}"), attr)
               for m, attr, *_ in spans.WRAPPED]
    originals = [getattr(module, attr, None) for module, attr in targets]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == set()
        wrapped = [getattr(module, attr, None) for module, attr in targets]
        assert all(w is not o for w, o in zip(wrapped, originals) if o is not None)
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr, None) is o
               for (module, attr), o in zip(targets, originals))
