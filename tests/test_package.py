"""Properties of the package as a whole."""

import importlib
import os
import pkgutil
import subprocess
import sys

import bruhatspec


def _cached(obj):
    """True if obj, or the function a classmethod/staticmethod wraps, is a
    functools cache."""
    return any(hasattr(f, "cache_info")
               for f in (obj, getattr(obj, "__func__", None)))


def test_no_module_or_class_holds_a_functools_cache():
    """A cache held by a module or class outlives every call: an operation's
    time and memory would depend on what ran before it in the process."""
    modules = [bruhatspec] + [
        importlib.import_module("bruhatspec." + info.name)
        for info in pkgutil.iter_modules(bruhatspec.__path__)]
    assert len(modules) > 7
    found = []
    for mod in modules:
        for name, obj in vars(mod).items():
            if _cached(obj):
                found.append("%s.%s" % (mod.__name__, name))
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                found.extend("%s.%s.%s" % (mod.__name__, name, attr)
                             for attr, val in vars(obj).items()
                             if _cached(val))
    assert found == []


def _loaded_by(statement):
    """The modules that running statement adds to sys.modules in a fresh
    interpreter."""
    code = ("import sys\nbefore = set(sys.modules)\n%s\n"
            "print(' '.join(sorted(set(sys.modules) - before)))" % statement)
    src = os.path.dirname(os.path.dirname(bruhatspec.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    return set(out.split())


def test_import_footprint_stays_small():
    """Every CLI call starts a fresh interpreter, so what importing the
    package loads is paid on each: dataclasses (which loads inspect) and
    json are not needed to import it, nor json or the acceptance suite to
    parse a command line."""
    loaded = _loaded_by("import bruhatspec")
    assert "bruhatspec.spectra" in loaded
    assert not loaded & {"dataclasses", "inspect", "json"}
    loaded = _loaded_by("import bruhatspec.cli")
    assert "bruhatspec.cli" in loaded
    assert not loaded & {"bruhatspec.acceptance", "json"}
