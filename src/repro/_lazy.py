"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
import every submodule, and everything they import, as soon as any one
of them is needed. Instead, each package declares where its public
names live and calls :func:`attach`::

    __getattr__, __dir__, __all__ = attach(__name__, {
        "engine": ["build_engine", "merge_results"],
        "ecc": ["ECC_SCHEMES", "make_ecc"],
    })

That table is the package's one list of public names: ``__all__`` is
derived from it. A package that also exports a name outside the table
(a submodule, ``__version__``) appends it in place, ``__all__ +=
[...]``, so ``__dir__`` sees it too.

The first ``package.build_engine`` (or ``from package import
build_engine``) imports ``package.engine`` and caches the object in
the package namespace, so later lookups are plain attribute reads and
return the very object the submodule defines. Any other name that is
the name of a submodule imports that submodule, as attribute access on
an eagerly imported package used to.

A public name that is *also* the name of a submodule (for example
``repro.fields.bound_current``, a function in the module of the same
name) must stay an eager import in the ``__init__``: importing the
submodule later would rebind the package attribute to the module.
"""

from __future__ import annotations

import importlib
import sys


def attach(package, exports):
    """Return ``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a submodule name (relative to ``package``) to the
    names the package re-exports from it; ``__all__`` is those names,
    sorted.
    """
    origin = {name: module for module, names in exports.items()
              for name in names}
    namespace = sys.modules[package].__dict__
    public = sorted(origin)

    def __getattr__(name):
        module = origin.get(name)
        if module is not None:
            value = getattr(
                importlib.import_module(f"{package}.{module}"), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}")

    def __dir__():
        return sorted(set(namespace) | set(public))

    return __getattr__, __dir__, public
