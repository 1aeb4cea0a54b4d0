"""The engine registry: name -> execution backend.

Engines register themselves once (the built-ins at package import time) and
are looked up by name everywhere an execution semantics is chosen -- the
campaign executor, the experiments and the CLI all dispatch through
:func:`get_engine`, so an unknown
engine name fails early with a message listing the registered ones instead of
deep inside a run body.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.engines.base import Engine

__all__ = ["register_engine", "unregister_engine", "get_engine", "available_engines"]

_REGISTRY: Dict[str, Engine] = {}


def register_engine(engine: Engine, replace: bool = False) -> Engine:
    """Register an execution backend under its ``name``.

    Parameters
    ----------
    engine:
        The backend; must provide ``name``, ``capabilities`` and ``run``.
    replace:
        Allow overwriting an existing registration (tests and experimental
        backends); by default a duplicate name is an error.

    Returns
    -------
    Engine
        The registered engine (so the call can be used as a decorator-ish
        one-liner on an instance).
    """
    for attribute in ("name", "capabilities", "run"):
        if not hasattr(engine, attribute):
            raise TypeError(
                f"engine {engine!r} does not implement the Engine protocol "
                f"(missing {attribute!r})"
            )
    name = engine.name
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"engine {name!r} is already registered; pass replace=True to override"
        )
    _REGISTRY[name] = engine
    return engine


def unregister_engine(name: str) -> None:
    """Remove an engine registration (primarily for tests)."""
    _REGISTRY.pop(name, None)


def get_engine(name: str) -> Engine:
    """Look up an execution backend by name.

    Raises
    ------
    ValueError
        With the list of registered engines when ``name`` is unknown -- the
        single early validation point for every ``engine=`` / ``--engine``
        value in the code base.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; available engines: "
            f"{', '.join(available_engines()) or '(none registered)'}"
        ) from None


def available_engines() -> Tuple[str, ...]:
    """The registered engine names, sorted."""
    return tuple(sorted(_REGISTRY))
