"""The benchmark tracer's targets still name functions of the package.

``nsebench/tracing.py`` wraps each ``(owner, attribute)`` of its ``TARGETS``
list by looking it up in the owner's ``__dict__``; a name that moved or
was renamed only shows up as a ``KeyError`` when a traced benchmark run
starts.  This reads the list without installing anything.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "nsebench_tracing", ROOT / "nsebench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_function():
    tracing = load_tracing()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracing.TARGETS
        if not callable(vars(owner).get(attr))
    ]
    assert missing == []
