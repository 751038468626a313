"""Every public definition in ``src/repro`` is reached from a product path.

A public definition is a module-level function, or a method of a
module-level class, whose name has no leading underscore. It is reached
when its name appears

* in ``src/repro`` outside its own body, as a name, an attribute, an
  import alias or an identifier-shaped string (the lazy ``__all__``
  tables and perfbench's by-name patches are strings), or
* anywhere in ``perfbench/``, ``examples/`` or ``benchmarks/``.

Tests do not count: code that only its own tests call is upkeep. A
definition named only inside unreached definitions is unreached too:
the scan marks what the product paths and ``ALLOWED`` name, then what
those definitions' bodies name, until nothing changes. ``ALLOWED`` lists
what stays without a product caller, each entry with its reason.
"""

from __future__ import annotations

import ast
import os
import re
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")
PRODUCT_DIRS = tuple(os.path.join(ROOT, name)
                     for name in ("perfbench", "examples", "benchmarks"))

ALLOWED = frozenset({
    # README's quickstart prints it: ``print(victim.summary())``.
    "repro/arrays/victim.py::VictimAnalysis.summary",
    # The ground truth the packed-state equivalence tests check each
    # word's ``err_count`` against.
    "repro/memsys/bitplane.py::BitPlane.diff_counts",
    # Fault-injection seam: the chaos matrix kills and hangs workers
    # through it.
    "repro/resilience/faults.py::FaultPlan.worker_faults",
    # Fault-injection seam: the chaos matrix's faulty filesystem shim.
    "repro/resilience/faults.py::FaultPlan.filesystem",
    # Fault-injection seam: the chaos matrix's result-corruption hook.
    "repro/resilience/faults.py::FaultPlan.corrupt",
    # Fault-injection seam: the chaos matrix steps its fake clock past
    # leases and deadlines with it.
    "repro/resilience/faults.py::FaultClock.advance",
})

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _files(directory, suffix=""):
    for parent, dirs, names in os.walk(directory):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(names):
            if name.endswith(suffix):
                yield os.path.join(parent, name)


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, FUNCTIONS) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, FUNCTIONS)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def _names(node):
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        return (node.attr,)
    if isinstance(node, ast.alias):
        return (*node.name.split("."), *filter(None, [node.asname]))
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and IDENTIFIER.fullmatch(node.value)):
        return (node.value,)
    return ()


def unreached(src, product_dirs, allowed=frozenset()):
    """Sorted ``(path, line, qualname)`` of the public definitions under
    ``src`` that no product path reaches; ``path`` is relative to
    ``src``'s parent, as are the ``path::qualname`` keys of
    ``allowed``."""
    definitions = {}
    # Every occurrence of a name, tagged with the definition whose body
    # holds it (None outside any).
    owners = {}
    for path in _files(src, ".py"):
        rel = os.path.relpath(path, os.path.dirname(src))
        rel = rel.replace(os.sep, "/")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        owner_of = {}
        for qualname, node in _public_definitions(tree):
            key = f"{rel}::{qualname}"
            definitions[key] = (node.name, node.lineno)
            owner_of.update(dict.fromkeys(map(id, ast.walk(node)), key))
        for node in ast.walk(tree):
            for name in _names(node):
                owners.setdefault(name, []).append(owner_of.get(id(node)))
    for directory in product_dirs:
        for path in _files(directory):
            with open(path, encoding="utf-8", errors="ignore") as fh:
                for name in set(IDENTIFIER.findall(fh.read())):
                    owners.setdefault(name, []).append(None)
    live = set(allowed)
    while True:
        newly = {key for key, (name, _) in definitions.items()
                 if key not in live
                 and any(owner is None or owner != key and owner in live
                         for owner in owners.get(name, ()))}
        if not newly:
            break
        live |= newly
    return sorted((key.split("::")[0], definitions[key][1],
                   key.split("::")[1])
                  for key in definitions.keys() - live)


def _listing(found):
    return "\n".join(f"  src/{path}:{line}: {qualname}"
                     for path, line, qualname in found)


def test_every_public_definition_is_reached():
    found = unreached(SRC, PRODUCT_DIRS, ALLOWED)
    assert not found, (
        "no figure, experiment, example, CLI, service or benchmark path "
        "reaches these public definitions; delete them (with the tests "
        "that exist only for them) or allow-list them with a reason:\n"
        + _listing(found))


def test_allow_list_holds_only_definitions_it_keeps():
    without = {f"{path}::{qualname}"
               for path, _, qualname in unreached(SRC, PRODUCT_DIRS)}
    assert sorted(ALLOWED - without) == []


def _tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return str(root / "src" / "pkg"), [str(root / "perfbench")]


def test_guard_rule_on_a_synthetic_tree(tmp_path):
    src, product = _tree(tmp_path, {
        "src/pkg/__init__.py": """\
            __all__ = ["by_all"]
        """,
        "src/pkg/mod.py": """\
            def planted():
                return 1


            def by_all():
                return 2


            def by_patch():
                return 3


            def kept():
                return 4


            def head():
                return tail()


            def tail():
                return 5


            def ping():
                return pong()


            def pong():
                return ping()


            class Box:
                def recursive(self):
                    return self.recursive()

                def used(self):
                    return 6


            def caller(box):
                return box.used()


            caller(None)
        """,
        "perfbench/run.py": """\
            from unittest.mock import patch
            import pkg.mod
            patch.object(pkg.mod, "by_patch")
        """,
    })
    found = unreached(src, product, {"pkg/mod.py::kept"})
    # ``by_all`` and ``by_patch`` are reached through strings, ``used``
    # from the body of ``caller``, which module-level code calls, and
    # ``kept`` by the allow-list.
    # ``tail`` is named only inside the unreached ``head``, ``ping`` and
    # ``pong`` only inside each other, ``recursive`` only inside itself.
    assert found == [("pkg/mod.py", 1, "planted"),
                     ("pkg/mod.py", 17, "head"),
                     ("pkg/mod.py", 21, "tail"),
                     ("pkg/mod.py", 25, "ping"),
                     ("pkg/mod.py", 29, "pong"),
                     ("pkg/mod.py", 34, "Box.recursive")]
    assert "src/pkg/mod.py:1: planted" in _listing(found)
    assert ("pkg/mod.py", 13, "kept") in unreached(src, product)
