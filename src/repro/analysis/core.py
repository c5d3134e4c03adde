"""Rule base classes, the ``RULES`` registry, and shared AST helpers.

The framework reuses the repo's string-keyed :class:`~repro.utils.registry.Registry`
idiom: every lint rule is a class registered under its rule id, exactly
like attacks or defenses. A rule declares its ``scope``:

``"file"``
    ``check(src, config)`` is called once per parsed module and sees only
    that module — the common case.
``"project"``
    ``check_project(sources, config)`` is called once with every parsed
    module, for cross-module contracts (registry completeness).
``"meta"``
    Emitted by the engine itself (suppression hygiene, parse errors);
    registered so ``--list-rules`` documents them, never invoked.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, TYPE_CHECKING

from repro.utils.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.config import LintConfig
    from repro.analysis.findings import Finding

#: Lint rules, keyed by rule id (kebab-case, stable across releases).
RULES = Registry("lint rule")


@dataclass
class SourceFile:
    """One parsed module: path, dotted module name, text, and AST."""

    path: Path
    relpath: str
    module: str | None
    text: str
    lines: list[str] = field(repr=False)
    tree: ast.Module = field(repr=False)

    @property
    def package(self) -> str | None:
        """Second segment of the dotted module name (``repro.models.tree``
        -> ``models``; top-level modules return their own name)."""
        if self.module is None or not self.module.startswith("repro."):
            return None
        return self.module.split(".")[1]


def module_name_for(path: Path) -> str | None:
    """Dotted module name derived by walking ``__init__.py`` parents.

    Returns ``None`` for scripts that live outside any package (e.g.
    ``benchmarks/gates.py``).
    """
    parts = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if len(parts) == 1:
        return None
    if parts[0] == "__init__":
        parts = parts[1:]
    return ".".join(reversed(parts))


class LintRule:
    """Base class for every rule; subclasses register into :data:`RULES`."""

    rule_id: str = ""
    summary: str = ""
    scope: str = "file"

    def check(self, src: SourceFile, config: "LintConfig") -> "Iterable[Finding]":
        """File-scope entry point; yields findings for one module."""
        return ()

    def check_project(
        self, sources: "list[SourceFile]", config: "LintConfig"
    ) -> "Iterable[Finding]":
        """Project-scope entry point; sees every module at once."""
        return ()


class ImportMap:
    """Alias -> canonical dotted-path map for one module's imports.

    Lets rules resolve ``np.random.default_rng`` and
    ``from numpy.random import default_rng; default_rng()`` to the same
    canonical name ``numpy.random.default_rng`` without executing code.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    bound = item.asname or item.name.split(".")[0]
                    canonical = item.name if item.asname else item.name.split(".")[0]
                    self.aliases[bound] = canonical
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for item in node.names:
                    if item.name == "*":
                        continue
                    bound = item.asname or item.name
                    self.aliases[bound] = f"{node.module}.{item.name}"

    def canonical(self, dotted: str | None) -> str | None:
        """Rewrite the leading alias of a dotted chain to its import path."""
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        base = self.aliases.get(head)
        if base is None:
            return dotted
        return f"{base}.{rest}" if rest else base


def dotted_name(node: ast.expr) -> str | None:
    """Flatten a ``Name``/``Attribute`` chain into ``"a.b.c"`` (else ``None``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))
