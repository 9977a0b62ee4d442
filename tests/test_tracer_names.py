"""The benchmark tracer patches library functions by name and refuses to
install when one is missing; this guard fails in the ordinary test run
instead, as soon as a refactor renames or removes such a name.  The tracer
file is only loaded, never installed."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer_names", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_in_the_library():
    tracer = _load_tracer()
    missing = []
    for modname, fnames in tracer.SPANNED.items():
        module = importlib.import_module("fiberfull." + modname)
        missing += ["%s.%s" % (modname, f) for f in fnames if not callable(getattr(module, f, None))]
    for modname, clsname, attr, _ in tracer.LEAVES:
        module = importlib.import_module("fiberfull." + modname)
        if clsname is None:
            found = callable(getattr(module, attr, None))
        else:
            found = attr in getattr(module, clsname, type).__dict__
        if not found:
            missing.append("%s.%s.%s" % (modname, clsname, attr))
    for modname, fname, _ in tracer.HOOKS:
        module = importlib.import_module("fiberfull." + modname)
        if not callable(getattr(module, fname, None)):
            missing.append("%s.%s" % (modname, fname))
    assert not missing, missing
