"""Generic string-keyed registry for pluggable component families.

Every pluggable component family (attacks, defenses, models, datasets,
checkpoint codecs, lint rules) gets one :class:`Registry` instance. Keys
are short strings in the paper's vocabulary (``"esa"``, ``"rounding"``,
``"lr"``, ``"bank"``); unknown keys fail with a
:class:`~repro.exceptions.ScenarioError` that enumerates the valid
choices, so a typo never surfaces as a bare ``KeyError`` three layers
deep.

The class lives in :mod:`repro.utils` — the bottom of the layer DAG — so
low-level subsystems (:mod:`repro.checkpoint`, :mod:`repro.analysis`)
can host registries without importing upward; :mod:`repro.api`
re-exports it for the facade's public surface.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, Iterable, Iterator

from repro.exceptions import ScenarioError


class Registry:
    """An ordered mapping from string keys to component factories/specs.

    Parameters
    ----------
    kind:
        Human-readable component family name (``"attack"``, ``"model"``,
        ...) used in error messages.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, Any] = {}
        self._forwards: dict[str, Callable[..., Any] | None] = {}

    def register(
        self,
        key: str,
        value: Any = None,
        *,
        replace: bool = False,
        forwards_to: Callable[..., Any] | None = None,
    ) -> Any:
        """Add ``value`` under ``key``; usable as a decorator.

        Duplicate keys are rejected unless ``replace=True`` — silently
        shadowing a registered component is how grids go subtly wrong.
        ``forwards_to`` names the callable an entry taking ``**params``
        passes them on to, so :meth:`check_params` knows its keys.
        """
        if value is None:
            def decorator(obj: Any) -> Any:
                self.register(key, obj, replace=replace, forwards_to=forwards_to)
                return obj

            return decorator
        if not replace and key in self._entries:
            raise ScenarioError(
                f"{self.kind} {key!r} is already registered; pass replace=True "
                "to override"
            )
        self._entries[key] = value
        self._forwards[key] = forwards_to
        return value

    def get(self, key: str) -> Any:
        """Resolve ``key``, raising a choices-listing error when unknown."""
        try:
            return self._entries[key]
        except KeyError:
            raise ScenarioError(
                f"unknown {self.kind} {key!r}; choose from {self.names()}"
            ) from None

    def create(self, key: str, *args: Any, **kwargs: Any) -> Any:
        """Resolve ``key`` and call the registered factory with the arguments."""
        factory: Callable[..., Any] = self.get(key)
        return factory(*args, **kwargs)

    def check_params(self, key: str, params: Any, *, extra: Iterable[str] = ()) -> None:
        """Refuse, with a :class:`~repro.exceptions.ScenarioError` naming
        the keys accepted, a parameter the entry under ``key`` does not take.

        An entry taking ``**params`` accepts the optional parameters of its
        ``forwards_to`` callable less its own (any key without one); ``extra``
        adds keys the caller takes beside the entry.
        """
        entry = self.get(key)
        signature = inspect.signature(entry).parameters.values()
        named = {p.name for p in signature if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)}
        accepted = set(named)
        if any(p.kind is p.VAR_KEYWORD for p in signature):
            target = self._forwards.get(key)
            if target is None:
                return
            accepted = {
                p.name
                for p in inspect.signature(target).parameters.values()
                if p.default is not p.empty and p.name not in named
            }
        accepted.update(extra)
        unknown = [name for name in params if name not in accepted]
        if unknown:
            raise ScenarioError(
                f"{self.kind} {key!r} does not accept parameter(s) {unknown}; "
                f"it accepts {sorted(accepted)}"
            )

    def names(self) -> list[str]:
        """Registered keys, in registration order."""
        return list(self._entries)

    def describe(self) -> dict[str, str]:
        """One-line description per key, in registration order.

        Sourced from the entry's ``description`` attribute (dataset
        specs), else the first docstring line of the entry (classes,
        builder functions) or of the callable a ``functools.partial``
        wraps. Entries with neither get an empty string — the CLI's
        ``list`` subcommand prints them all.
        """
        described: dict[str, str] = {}
        for key, entry in self._entries.items():
            text = getattr(entry, "description", None)
            if not isinstance(text, str):
                # A partial's own __doc__ is functools boilerplate; read
                # the wrapped callable instead.
                target = entry.func if isinstance(entry, functools.partial) else entry
                doc = getattr(target, "__doc__", None)
                text = doc.strip().splitlines()[0] if doc else ""
            described[key] = text
        return described

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Registry({self.kind!r}, {self.names()})"
