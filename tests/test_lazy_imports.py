"""The lazy import graph: package ``__init__``s resolve names on use.

Every check that depends on what a process has imported runs in a
fresh interpreter, since this test process has long since imported
everything.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _packages():
    root = os.path.dirname(repro.__file__)
    names = []
    for directory, _, files in os.walk(root):
        if "__init__.py" in files:
            rel = os.path.relpath(directory, os.path.dirname(root))
            names.append(rel.replace(os.sep, "."))
    return sorted(names)


PACKAGES = _packages()


def _run_child(code, *args):
    """Run ``code`` in a fresh interpreter; return its JSON stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args], env=env,
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_every_package_is_covered():
    assert len(PACKAGES) >= 16
    assert {"repro", "repro.memsys", "repro.memsys.backends",
            "repro.service"} <= set(PACKAGES)


def test_client_imports_without_numpy():
    loaded = _run_child("""
        import json, sys
        import repro.service.client
        print(json.dumps(sorted(sys.modules)))
    """)
    heavy = [name for name in loaded
             if name.split(".")[0] in ("numpy", "scipy")
             or name.startswith("repro.memsys")]
    assert heavy == []


_EXPORTS_CHILD = """
    import importlib, inspect, json, pkgutil, sys, types

    order, packages = sys.argv[1], sys.argv[2:]

    def import_every_submodule():
        for pkg_name in packages:
            pkg = sys.modules[pkg_name]
            for info in pkgutil.iter_modules(pkg.__path__):
                importlib.import_module(f"{pkg_name}.{info.name}")

    missing_from_dir = []
    first, own = {}, {}
    for pkg_name in packages:
        pkg = importlib.import_module(pkg_name)
        own[pkg_name] = set(vars(pkg))
        missing_from_dir += [f"{pkg_name}.{name}" for name in pkg.__all__
                             if name not in dir(pkg)]
    if order == "modules-first":
        import_every_submodule()
    for pkg_name in packages:
        pkg = sys.modules[pkg_name]
        for name in pkg.__all__:
            first[pkg_name, name] = getattr(pkg, name)
    # Importing a submodule binds it on its package; no name resolved
    # before that may be shadowed by it.
    import_every_submodule()

    def defined_by(pkg_name, name, value):
        if isinstance(value, types.ModuleType):
            # A submodule exported by its own name, never a module
            # standing in for the object of the same name inside it.
            return (value.__name__ == f"{pkg_name}.{name}"
                    and not hasattr(value, name))
        if inspect.isclass(value) or inspect.isfunction(value):
            home = sys.modules[value.__module__]
            return (value.__module__.startswith(pkg_name)
                    and getattr(home, value.__name__) is value)
        # A package defines the constants bound before any lookup; the
        # ones it resolved lazily must come from a submodule.
        owners = [module for key, module in list(sys.modules.items())
                  if key.startswith(pkg_name + ".")
                  or (key == pkg_name and name in own[pkg_name])]
        return any(vars(module).get(name) is value for module in owners)

    uncached = [f"{p}.{n}" for p, n in first
                if n not in vars(sys.modules[p])]
    shadowed = [f"{p}.{n}" for (p, n), value in first.items()
                if getattr(sys.modules[p], n) is not value]
    foreign = [f"{p}.{n}" for (p, n), value in first.items()
               if not defined_by(p, n, value)]
    print(json.dumps({"missing_from_dir": missing_from_dir,
                      "uncached": uncached, "shadowed": shadowed,
                      "foreign": foreign,
                      "resolved": len(first)}))
"""

#: Names first is how a lazy package is usually met; submodules first
#: is the order in which a submodule sharing a public name's spelling
#: would hide the object (``repro.fields.bound_current``).
ORDERS = ("names-first", "modules-first")


@pytest.fixture(scope="module", params=ORDERS)
def exports_report(request):
    return _run_child(_EXPORTS_CHILD, request.param, *PACKAGES)


def test_lazy_names_are_the_submodule_objects(exports_report):
    assert exports_report["resolved"] == sum(
        len(importlib.import_module(p).__all__) for p in PACKAGES)
    assert exports_report["foreign"] == []


def test_lazy_names_are_cached_and_survive_submodule_imports(
        exports_report):
    assert exports_report["uncached"] == []
    assert exports_report["shadowed"] == []


def test_dir_lists_every_public_name_before_first_use(exports_report):
    assert exports_report["missing_from_dir"] == []


def test_star_import_resolves_every_public_name():
    for package in PACKAGES:
        module = importlib.import_module(package)
        assert len(set(module.__all__)) == len(module.__all__), package
        namespace = {}
        exec(f"from {package} import *", namespace)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), (package, name)


def _assigns_literal_all(node):
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return False
    return (any(isinstance(t, ast.Name) and t.id == "__all__"
                for t in targets)
            and isinstance(node.value, (ast.List, ast.Tuple)))


def test_lazy_packages_take_all_from_their_attach_table():
    """A lazy ``__init__`` lists each public name once, in its
    ``attach`` table; ``__all__`` is what ``attach`` returns, extended
    in place for names outside the table."""
    lazy = []
    for package in PACKAGES:
        path = os.path.join(SRC, *package.split("."), "__init__.py")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        if not any(isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name)
                   and node.func.id == "attach"
                   for node in ast.walk(tree)):
            continue
        lazy.append(package)
        assert not any(_assigns_literal_all(node)
                       for node in ast.walk(tree)), package
        assert "__all__" in [
            target.id for node in tree.body if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            for tup in node.targets if isinstance(tup, ast.Tuple)
            for target in tup.elts], package
    assert "repro.memsys.backends" not in lazy
    assert len(lazy) == len(PACKAGES) - 1


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=repr(package)):
        getattr(module, "no_such_public_name")


def test_submodule_reachable_as_package_attribute():
    child = _run_child("""
        import json, repro
        print(json.dumps(repro.device.mtj.__name__))
    """)
    assert child == "repro.device.mtj"


_THREADS_CHILD = """
    import importlib, json, sys, threading

    NAMES = [("repro.memsys", "build_engine"),
             ("repro.apps", "DesignSpaceExplorer"),
             ("repro.fields", "LoopCollection"),
             ("repro", "MTJDevice"),
             ("repro.arrays", "InterCellCoupling"),
             ("repro.sweep", "SweepRunner"),
             ("repro.service", "ReliabilityServer"),
             ("repro.integrity", "RunManifest")]
    barrier = threading.Barrier(8)
    results, errors = [None] * 8, []

    def resolve(slot):
        barrier.wait()
        try:
            results[slot] = [id(getattr(importlib.import_module(p), n))
                             for p, n in NAMES]
        except Exception as exc:
            errors.append(f"{type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=resolve, args=(i,))
               for i in range(8)]
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(0.005)
    errors += [f"{t.name} still running" for t in threads if t.is_alive()]
    final = [id(getattr(importlib.import_module(p), n)) for p, n in NAMES]
    print(json.dumps({"errors": errors, "results": results,
                      "final": final}))
"""


def test_first_touch_under_threads_resolves_one_object():
    report = _run_child(_THREADS_CHILD)
    assert report["errors"] == []
    assert all(ids == report["final"] for ids in report["results"])


_COMPUTE_CHILD = """
    import json, sys

    import repro.service.server
    after_import = sorted(sys.modules)

    from repro.device import MTJDevice, PAPER_EVAL_DEVICE
    from repro.memsys import build_engine, uber_sweep
    device = MTJDevice(PAPER_EVAL_DEVICE)
    engine = build_engine(device, pitch=70e-9, rows=16, cols=16)
    result = engine.run(2000, rng=1)
    assert result.n_transactions == 2000
    sweep = uber_sweep(device, pitch_ratios=(3.0, 1.5),
                       patterns=("solid0",), eccs=("secded",),
                       rows=16, cols=16, seed=1)
    assert len(sweep.rows) == 2
    print(json.dumps({"after_import": after_import,
                      "after_run": sorted(sys.modules)}))
"""


_BANKED_CHILD = """
    import json, sys

    from repro.device import MTJDevice, PAPER_EVAL_DEVICE
    from repro.memsys import build_engine
    engine = build_engine(MTJDevice(PAPER_EVAL_DEVICE), pitch=70e-9,
                          rows=32, cols=32, banks=2, subarrays=2)
    result = engine.run(2000, rng=1)
    assert result.extras["topology"]["executor"] == "serial"
    print(json.dumps(sorted(sys.modules)))
"""


def _under(loaded, *prefixes):
    return [name for name in loaded
            if any(name == p or name.startswith(p + ".") for p in prefixes)]


def test_compute_path_import_graph():
    report = _run_child(_COMPUTE_CHILD)
    # Neither the server nor an engine run or sweep imports scipy: the
    # coupling kernels take K and E from the numpy port in
    # repro.fields.elliptic, so scipy.special (and numpy.f2py, which it
    # pulls in) never loads on the compute path.
    assert _under(report["after_import"], "scipy", "numpy.f2py") == []
    loaded = report["after_run"]
    assert _under(loaded, "scipy", "numpy.f2py", "repro.characterization",
                  "repro.llg") == []
    # memsys renders into the result records of experiments.base; no
    # experiment module itself may load.
    assert set(_under(loaded, "repro.experiments")) <= {
        "repro.experiments", "repro.experiments.base"}
    # A banked engine runs its shards in process: the pool executors
    # (multiprocessing, and with it socket and logging) load on use.
    banked = _run_child(_BANKED_CHILD)
    assert _under(banked, "multiprocessing",
                  "concurrent.futures.process") == []
