"""Lazy re-exports for package facades (PEP 562).

A facade such as ``repro`` or ``repro.sim`` re-exports names from its
submodules, so users can write ``from repro import MolecularCache``.
Importing those submodules eagerly would make *every* import under the
package pay for numpy and the whole simulator, although ``python -m
repro sweep --resume`` only reads a result store and ``--help`` only
parses arguments. A facade built with :func:`lazy_exports` imports a
source module when one of its names is first looked up.
"""

from __future__ import annotations

import sys
from types import ModuleType
from typing import Any, Callable, Mapping


def import_module(name: str) -> ModuleType:
    """Import the module ``name`` and return it.

    Unlike :func:`importlib.import_module`, this goes through the
    ``import`` statement's machinery, which ``python -X importtime``
    times: a module loaded through ``importlib`` is missing from that
    report, and what it imports is charged to nothing.
    """
    __import__(name)
    return sys.modules[name]


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the facade ``package``.

    ``exports`` maps each source module to the names the package
    re-exports from it. A name is imported on first lookup and then
    stored on the package, so later lookups skip the hook; any other
    name raises :class:`AttributeError`, as for a plain module. At the
    end of the package's ``__init__``::

        __all__, __getattr__, __dir__ = lazy_exports(__name__, {
            "repro.sim.cmp": ("CMPRunConfig", "CMPRunner"),
        })
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *origin})

    return list(origin), __getattr__, __dir__
