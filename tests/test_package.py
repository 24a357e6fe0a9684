"""Properties of the package as a whole."""

import importlib
import pkgutil

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
