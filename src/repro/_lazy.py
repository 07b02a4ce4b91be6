"""Lazy package namespaces (PEP 562), the ``lazy_loader`` pattern.

A package ``__init__`` that only re-exports names hands :func:`attach` a
``{public name: defining submodule}`` table and gets back its module
``__getattr__``, ``__dir__`` and ``__all__``.  A name's submodule is
imported on first access, so ``from repro.cluster import MultiJobCluster``
loads the scheduler and what it imports, not chaos or workflow.
A target ``"module:attr"`` re-exports ``attr`` under another name.

A public name that is also a submodule's name (``repro.core.characterize``)
must be imported eagerly in the ``__init__`` as well: importing the
submodule binds it on the package, and ``__getattr__`` would never run.
"""

from __future__ import annotations

import importlib


def attach(namespace: dict, table: dict[str, str]):
    """``(__getattr__, __dir__, __all__)`` for the package *namespace*."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        try:
            module, _, attr = table[name].partition(":")
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(f"{package}.{module}"), attr or name)
        namespace[name] = value  # later lookups skip __getattr__
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | table.keys())

    return __getattr__, __dir__, list(table)
