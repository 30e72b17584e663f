"""Source hygiene, by stdlib ``ast`` scans.

No module in the package or the tests imports a name it never uses.  A
name counts as used when it appears as an identifier anywhere in the module
(an attribute chain counts for its root), in a quoted annotation, or in
``__all__``.  ``from __future__`` imports are compiler directives and are
skipped.

Every public tape op of ``autodiff`` (a function that calls ``_emit``) has
its own finite-difference entry in criterion 1: it is called as
``ad.<name>(`` inside ``_op_checks``.

Every top-level function and class of the package, private ones included
(dunders aside), and every public method of its classes, is referenced from
the package or the benchmark outside its own definition, or is a console
script of ``pyproject.toml``.  Code that only tests reach belongs in the
tests, and a private helper goes with its last caller.  A top-level name
counts only where it means that definition: as a bare name in its own
module or in a module that imports it from there, or as an attribute of a
name bound to its module (``ad.take_rows``, ``training.train``).  So numpy's
``x.reshape(...)`` is no use of an ``autodiff.reshape``.  A method counts
wherever its name appears as a name or an attribute.

Threads: the package makes them at one site only, the worker pool of
``training`` (``_Pool.lend``), and importing it starts none; the passes of
``training`` use one worker per usable CPU besides the caller's (none for a
pass too small to lend), run every job exactly once under the caller's
numpy error handling, and return or raise only once no job is running.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from nsesimp import training

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "nsesimp").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "nsebench").glob("*.py"))

# Kept without a caller: the optimizer state a resumed run restores
# (ROADMAP item 3) is read back with it.
UNREFERENCED_ALLOWED = {"restore_adam"}


def imported_names(tree):
    """(bound name, line) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as -> "Tensor"; other strings that
            # happen to parse only make the scan more lenient
            try:
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return used


def unused_imports(source: str):
    tree = ast.parse(source)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nx: 'c' = np.zeros(1)\n"
    assert unused_imports(source) == [("os", 1), ("d", 3)]


def tape_ops(source: str):
    """Public top-level functions that record a tape node through ``_emit``."""
    return {
        node.name
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and any(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "_emit"
            for n in ast.walk(node)
        )
    }


def ad_calls(source: str, function: str):
    """Names ``x`` of every ``ad.x(...)`` call inside the top-level ``function``."""
    [body] = [n for n in ast.parse(source).body if getattr(n, "name", None) == function]
    return {
        n.func.attr
        for n in ast.walk(body)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and isinstance(n.func.value, ast.Name)
        and n.func.value.id == "ad"
    }


def test_every_tape_op_has_a_finite_difference_check():
    ops = tape_ops((ROOT / "src" / "nsesimp" / "autodiff.py").read_text(encoding="utf-8"))
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    checked = ad_calls(acceptance, "_op_checks")
    assert {"lstm_cell", "affine_rows", "tanh"} <= ops  # the scan is not vacuous
    assert sorted(ops - checked) == []


def test_op_scan_finds_an_unchecked_op():
    autodiff = (
        "def _emit(d, i, bw): pass\n"
        "def mul(a, b):\n    return _emit(a, (a, b), None)\n"
        "def fused(a):\n    def bw(g):\n        return (g,)\n    return _emit(a, (a,), bw)\n"
        "def backward(loss, tape): pass\n"
    )
    checks = "def _op_checks():\n    f = lambda: ad.sum_all(ad.mul(x, y))\n"
    assert tape_ops(autodiff) == {"mul", "fused"}
    assert tape_ops(autodiff) - ad_calls(checks, "_op_checks") == {"fused"}


def definitions(tree):
    """(name, node) of each top-level function or class but dunders, and each public method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("__"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item


def references(node):
    """How often each identifier appears in ``node`` as a name or an attribute."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
    return found


def package_bindings(tree, package="nsesimp"):
    """Local names bound to package modules, and to names imported from them.

    Returns ({local: module}, {local: (module, name)}) for imports such as
    ``from . import autodiff as ad`` and ``from .autodiff import Tensor``.
    """
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == package
        ):
            path = node.module or ""
            if not node.level:
                path = path.removeprefix(package).lstrip(".")
            for alias in node.names:
                local = alias.asname or alias.name
                if path:
                    names[local] = (path, alias.name)
                else:
                    modules[local] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if alias.asname and len(parts) == 2 and parts[0] == package:
                    modules[alias.asname] = parts[1]
    return modules, names


def top_level_references(module, tree):
    """How often ``tree`` (the source of ``module``) refers to each (module, name)."""
    modules, names = package_bindings(tree)
    found = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            found[names.get(n.id, (module, n.id))] += 1
        elif (
            isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name)
            and n.value.id in modules
        ):
            found[(modules[n.value.id], n.attr)] += 1
    return found


def script_functions(pyproject: str):
    """Function names that the ``[project.scripts]`` table points at."""
    table = pyproject.split("[project.scripts]", 1)[-1].split("\n[", 1)[0]
    return set(re.findall(r':(\w+)"\s*$', table, re.M))


def unreferenced(definers, callers, scripts=()):
    """Names of the ``definers`` used nowhere in ``callers`` but in themselves.

    ``definers`` and ``callers`` map module names to sources.
    """
    by_name, top_level = Counter(), Counter()
    for module, source in callers.items():
        tree = ast.parse(source)
        by_name += references(tree)
        top_level += top_level_references(module, tree)
    found = []
    for module, source in definers.items():
        tree = ast.parse(source)
        for name, node in definitions(tree):
            if name in scripts:
                continue
            if node in tree.body:
                key, total, own = (module, name), top_level, top_level_references(module, node)
            else:
                key, total, own = name, by_name, references(node)
            if total[key] == own[key]:
                found.append(name)
    return sorted(found)


def _sources(paths):
    """Sources keyed by module: the package's by bare name, the benchmark's under ``nsebench.``."""
    return {
        ("" if p.parent.name == "nsesimp" else "nsebench.") + p.stem: p.read_text(encoding="utf-8")
        for p in paths
    }


def test_every_public_name_is_referenced_by_the_package_or_the_benchmark():
    scripts = script_functions((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert scripts == {"entry"}  # the scan of the scripts table is not vacuous
    assert unreferenced(_sources(PACKAGE), _sources(CALLERS), scripts) == sorted(
        UNREFERENCED_ALLOWED
    )


def test_reference_scan_finds_an_unreferenced_name():
    package = (
        "class Box:\n"
        "    def used(self):\n        return 1\n"
        "    def unused(self):\n        return self.unused()\n"
        "    def _private(self):\n        pass\n"
        "def helper():\n    return Box().used()\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
        "def _hidden():\n    pass\n"
        "def _helped():\n    return helper()\n"
        "def __getattr__(name):\n    return name\n"
        "def uses_helped():\n    return _helped()\n"
        "class Orphan:\n    pass\n"
        "def via_module():\n    pass\n"
        "def reshape(x):\n    return x\n"
        "def shared():\n    pass\n"
    )
    bench = (
        "import numpy as np\n"
        "from nsesimp import mod as m\n"
        "from nsesimp.mod import helper\n"
        "helper()\n"
        "m.via_module()\n"
        "m.uses_helped()\n"
        # a method of another object and a function of another module, of the same names
        "np.zeros(2).reshape(1, 2)\n"
        "def shared():\n    pass\n"
        "shared()\n"
    )
    callers = {"mod": package, "bench": bench}
    want = ["Orphan", "_hidden", "recursive", "reshape", "shared", "unused"]
    assert unreferenced({"mod": package}, callers) == want
    assert unreferenced({"mod": package}, callers, {"recursive"}) == [
        n for n in want if n != "recursive"
    ]


# ---------------------------------------------------------------------------
# threads


THREAD_MAKERS = {"Thread", "Timer", "ThreadPoolExecutor", "start_new_thread"}


def _callee(node):
    """The last name of a called or derived-from expression: ``Thread`` of ``threading.Thread``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def thread_sites(source: str):
    """Scope of every place that makes a thread, in source order.

    A site is a call of a thread class or function, or a class derived from
    one; its scope is the dotted names of the enclosing classes and
    functions, or ``<module>``.
    """
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
                if isinstance(child, ast.ClassDef) and any(
                    _callee(b) in THREAD_MAKERS for b in child.bases
                ):
                    sites.append(".".join(inner))
            elif isinstance(child, ast.Call) and _callee(child.func) in THREAD_MAKERS:
                sites.append(".".join(scope) or "<module>")
            visit(child, inner)

    visit(ast.parse(source), ())
    return sites


def test_the_package_makes_threads_only_in_the_worker_pool():
    sites = [(p.name, s) for p in PACKAGE for s in thread_sites(p.read_text(encoding="utf-8"))]
    assert sites == [("training.py", "_Pool.lend")]


def test_thread_scan_finds_every_way_to_make_one():
    source = (
        "import threading, _thread\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "class Worker(threading.Thread):\n    pass\n"
        "def go():\n    threading.Timer(1, go).start()\n"
        "class Pool:\n    def start(self):\n        return Thread(target=go)\n"
        "pool = ThreadPoolExecutor(2)\n"
        "_thread.start_new_thread(go, ())\n"
        "threading.Event().wait(0)\n"
    )
    assert thread_sites(source) == ["Worker", "go", "Pool.start", "<module>", "<module>"]


def thread_count_after(code: str) -> int:
    """``threading.active_count()`` after running ``code`` in a fresh interpreter."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    script = f"import threading\n{code}\nprint(threading.active_count())"
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


# a pass of this many values is lent to the workers
LENT = training._LEND_FROM


def test_importing_the_cli_starts_no_thread():
    assert thread_count_after("import nsesimp.cli") == 1


def test_adam_steps_use_at_most_one_worker_per_cpu():
    code = (
        "import numpy as np\n"
        "from nsesimp import autodiff, training\n"
        "p = autodiff.Tensor(np.zeros(training._LEND_FROM), requires_grad=True)\n"
        "state = training.AdamState.create([p])\n"
        "for _ in range(40):\n"
        "    p.grad = np.ones(p.data.shape)\n"
        "    training.adam_step([p], state, 0.001)\n"
    )
    # the caller and one worker per further CPU: the pool did start
    assert thread_count_after(code) == len(os.sched_getaffinity(0))


def test_a_failing_job_is_raised_once_no_other_job_runs():
    started, finished = threading.Event(), threading.Event()

    def slow():
        started.set()
        time.sleep(0.2)
        finished.set()

    def fail():
        started.wait(5)
        raise ValueError("job failed")

    with pytest.raises(ValueError, match="job failed"):
        training._run([slow, fail] + [lambda: None] * 4, LENT)
    assert finished.is_set()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one usable CPU: no worker")
def test_an_interrupt_is_raised_once_no_worker_job_runs():
    worker_started = threading.Event()
    starts, ends = [], []

    def job():
        if threading.current_thread() is threading.main_thread():
            worker_started.wait(5)
            raise KeyboardInterrupt
        starts.append(1)
        worker_started.set()
        time.sleep(0.1)
        ends.append(1)

    with pytest.raises(KeyboardInterrupt):
        training._run([job] * 6, LENT)
    assert worker_started.is_set()
    assert len(ends) == len(starts)


def test_a_pass_below_the_lending_size_runs_on_the_caller_alone():
    threads = []

    def job():
        time.sleep(0.01)  # would let a lent worker claim some jobs
        threads.append(threading.current_thread())

    training._run([job] * 8, LENT - 1)
    assert threads == [threading.current_thread()] * 8


def test_jobs_run_under_the_callers_numpy_error_handling():
    seen = []

    def job():
        time.sleep(0.01)  # lets the workers claim some jobs
        seen.append(np.geterr()["over"])

    with np.errstate(over="raise"):
        training._run([job] * 8, LENT)
    assert seen == ["raise"] * 8


def test_concurrent_passes_run_every_job_exactly_once():
    n_jobs, callers = 500, 2 * len(os.sched_getaffinity(0)) + 2
    ran = [[] for _ in range(callers)]

    def caller(c):
        training._run([lambda i=i: ran[c].append(i) for i in range(n_jobs)], LENT)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(c,)) for c in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(sorted(r) == list(range(n_jobs)) for r in ran)
