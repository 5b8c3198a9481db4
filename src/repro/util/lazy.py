"""A package's public names, imported on first use (PEP 562).

A package ``__init__`` that imports every submodule makes each process
that needs one of them pay for all of them: the runtime would load the
observability plane, the TCP transport and the AST lint for a job that
runs none of them.  Such a package keeps its public names importable
this way instead::

    _EXPORTS = {"RuntimeObserver": "repro.observe.observer", ...}
    __all__ = sorted(_EXPORTS)

    def __getattr__(name: str) -> Any:
        return lazy_export(__name__, _EXPORTS, name)

``from package import Name`` then imports only the submodule that
defines ``Name``, and code on a hot import path names the submodule it
uses (``from repro.observe.tracing import Tracer``).
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Mapping


def lazy_export(package: str, exports: Mapping[str, str], name: str) -> Any:
    """``package``'s attribute ``name``, from the module ``exports[name]``.

    The value is stored on the package, so the next lookup of ``name``
    does not come here.  A name ``exports`` does not list raises
    AttributeError, as a plain module would (and ``from package import
    submodule`` falls back to importing the submodule).
    """
    try:
        module = exports[name]
    except KeyError:
        raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    setattr(sys.modules[package], name, value)
    return value
