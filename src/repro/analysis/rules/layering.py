"""``layer-boundary`` — the import DAG of ``docs/architecture.md``, enforced.

The package is documented as a strict stack; this rule makes that
machine-checked. Every top-level package under ``repro`` carries a rank
(:data:`repro.analysis.config.DEFAULT_LAYER_RANKS`); a module may import
only packages of *strictly lower* rank (plus its own package). Equal
ranks mean "siblings, decoupled": ``attacks`` and ``federation`` sit at
the same height and may not reach into each other. A package missing
from the rank table is itself a finding — adding a subsystem requires
declaring where it sits.

The same rule enforces the query boundary: inside the attack-side
modules (``repro.attacks``, ``repro.api.attacks``) no ``.predict(...)``
/ ``.predict_proba(...)`` / ``.predict_all(...)`` call is allowed, nor
one of ``._proba(...)``, the model kernel behind ``predict_proba`` —
every model query flows through the metered
:class:`~repro.serving.PredictionService`, which is what makes query
budgets and audit defenses sound.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import RULES, LintRule, SourceFile
from repro.analysis.findings import Finding

#: Model-query attribute calls forbidden on the attack side.
_QUERY_METHODS = frozenset({"predict", "predict_proba", "predict_all", "_proba"})


def _imported_repro_packages(tree: ast.Module) -> "Iterator[tuple[str, int, int]]":
    """Yield ``(package, line, col)`` for every ``repro.*`` import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                parts = item.name.split(".")
                if parts[0] == "repro" and len(parts) > 1:
                    yield parts[1], node.lineno, node.col_offset
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            parts = node.module.split(".")
            if parts[0] != "repro":
                continue
            if len(parts) > 1:
                yield parts[1], node.lineno, node.col_offset
            else:
                # ``from repro import serving`` names packages directly.
                for item in node.names:
                    yield item.name, node.lineno, node.col_offset


@RULES.register("layer-boundary")
class LayerBoundaryRule(LintRule):
    """Reject upward or sideways imports and attack-side model queries."""

    rule_id = "layer-boundary"
    summary = (
        "imports must point strictly down the architecture stack, and "
        "attack-side code must query models through PredictionService"
    )

    def check(self, src: SourceFile, config) -> "Iterator[Finding]":
        module = src.module
        if module is None or not module.startswith("repro"):
            return
        if module == "repro":
            # The package facade legitimately imports every layer.
            return
        own = src.package
        own_rank = config.layer_ranks.get(own) if own is not None else None
        if own is not None and own_rank is None:
            yield Finding(
                src.relpath,
                1,
                0,
                self.rule_id,
                f"package {own!r} has no rank in the layering config; "
                "declare where it sits in the stack "
                "(repro/analysis/config.py, docs/architecture.md)",
            )
        if own_rank is not None:
            for target, line, col in _imported_repro_packages(src.tree):
                if target == own:
                    continue
                target_rank = config.layer_ranks.get(target)
                if target_rank is None:
                    continue  # reported once, from the package's own modules
                if target_rank >= own_rank:
                    relation = "its own layer" if target_rank == own_rank else (
                        "a higher layer"
                    )
                    yield Finding(
                        src.relpath,
                        line,
                        col,
                        self.rule_id,
                        f"{own} (rank {own_rank}) imports {target} "
                        f"(rank {target_rank}) — {relation}; imports must "
                        "point strictly down the stack",
                    )
        if module in config.query_boundary_modules or (
            own is not None and f"repro.{own}" in config.query_boundary_modules
        ):
            for node in ast.walk(src.tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _QUERY_METHODS
                ):
                    yield Finding(
                        src.relpath,
                        node.lineno,
                        node.col_offset,
                        self.rule_id,
                        f".{node.func.attr}() called from attack-side code; "
                        "queries go through the metered PredictionService "
                        "(scenario.service), never the model directly",
                    )
