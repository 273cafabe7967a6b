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


def test_the_wrapped_names_that_resolve_to_nothing_are_the_known_ones():
    """The tracer passes over a pair whose module no longer has the name.
    These pairs once named a module-level import that later went away;
    their metric is still fed through another module.  A further rename
    joins this set and fails here."""
    spans = _load_spans()
    missing = {(m, attr) for m, attr, *_ in spans.WRAPPED
               if getattr(importlib.import_module(f"shapetensors.{m}"), attr, None) is None}
    assert missing == {("blade", "la_standardize"), ("cst", "la_standardize")}


def test_tracer_sees_the_fits_and_samples_of_stacked_points(tmp_path, capsys):
    """``_kind`` names a fit's span from the first member of its argument,
    which a stacked point must give as a point of its class."""
    from shapetensors import cli

    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        raw, model, pmodel = tmp_path / "raw", tmp_path / "g.txt", tmp_path / "p.txt"
        for argv in (
            ["cst-gen", "--count", "12", "--nc", "61", "--seed", "3", "--out", raw],
            ["fit", "--input", raw / "manifest.txt", "--rank", "3", "--out", model],
            ["fit", "--input", raw / "manifest.txt", "--manifold", "product",
             "--rank", "3", "--out", pmodel],
            ["sample", "--model", model, "--sweep", "corner-to-corner",
             "--count", "5", "--out", tmp_path / "gs"],
            ["sample", "--model", pmodel, "--sweep", "corner-to-corner",
             "--count", "5", "--out", tmp_path / "ps"],
        ):
            assert cli.main([str(a) for a in argv]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {rec[0] for rec in tracer.spans}
    assert {"stats.pga_fit", "stats.pga_fit.product", "stats.generate"} <= names
