"""``registry-completeness`` — registered components keep their contracts.

A registry turns components into data, which means a component can be
*registered* yet structurally unable to serve its callers — an attack
missing ``run`` only explodes when a scenario finally resolves the key.
This cross-module pass checks the two registries with protocol surfaces:

**Attacks** — every class reaching ``ATTACKS.register`` (as a decorator,
a direct value, or through ``functools.partial``) must provide the
:class:`~repro.api.attacks.ScenarioAttack` surface — ``prepare`` and
``run`` defined by the class or a project-visible base *other than* the
protocol root itself (whose stubs just raise), plus a ``name`` (class
attribute or ``self.name`` assignment).

**Experiments** — experiment ids must be unique across every
``ExperimentSpec(...)`` declaration (``register_experiment`` replaces
silently), and a declaration's grid must follow its ``ScaleConfig``: a
literal ``trials=N`` above one repeats every cell N times at every
scale, so the experiment cannot offer the ``--smoke`` tier every entry
owes the CI. Cells may be any callable: a pool worker receives only the
experiment id and looks the declaration up itself.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import RULES, LintRule, SourceFile, dotted_name
from repro.analysis.findings import Finding

_REQUIRED_ATTACK_METHODS = ("prepare", "run")


def _is_attack_register(func: ast.expr) -> bool:
    name = dotted_name(func)
    return name is not None and name.endswith("ATTACKS.register")


def _registered_class_name(value: ast.expr) -> "tuple[str, ast.expr] | None":
    """Class name referenced by a non-decorator registration value."""
    if isinstance(value, ast.Name):
        return value.id, value
    if isinstance(value, ast.Call):
        func_name = dotted_name(value.func)
        if func_name is not None and func_name.split(".")[-1] == "partial":
            if value.args and isinstance(value.args[0], ast.Name):
                return value.args[0].id, value.args[0]
            return None
        if isinstance(value.func, ast.Name):
            return value.func.id, value.func
    return None


def _class_surface(
    cls: ast.ClassDef,
    index: "dict[str, tuple[ast.ClassDef, SourceFile]]",
    protocol_root: str,
) -> "tuple[set[str], bool]":
    """(method/attr names, has_name) over the class and project bases.

    The protocol root's own definitions are excluded: its stubs exist to
    raise ``NotImplementedError``, so inheriting them satisfies nothing.
    """
    provided: set[str] = set()
    has_name = False
    seen: set[str] = set()
    stack = [cls]
    while stack:
        current = stack.pop()
        if current.name in seen:
            continue
        seen.add(current.name)
        for stmt in current.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                provided.add(stmt.name)
                for sub in ast.walk(stmt):
                    if (
                        isinstance(sub, ast.Attribute)
                        and sub.attr == "name"
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                        and isinstance(getattr(sub, "ctx", None), ast.Store)
                    ):
                        has_name = True
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        provided.add(target.id)
                        has_name = has_name or target.id == "name"
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                provided.add(stmt.target.id)
                has_name = has_name or stmt.target.id == "name"
        for base in current.bases:
            base_name = dotted_name(base)
            if base_name is None:
                continue
            base_name = base_name.split(".")[-1]
            if base_name == protocol_root:
                continue
            entry = index.get(base_name)
            if entry is not None:
                stack.append(entry[0])
    return provided, has_name


@RULES.register("registry-completeness")
class RegistryCompletenessRule(LintRule):
    """Cross-module contracts for the attack and experiment registries."""

    rule_id = "registry-completeness"
    summary = (
        "registered attacks must carry the ScenarioAttack surface; "
        "ExperimentSpec declarations need unique ids and scale-following trials"
    )
    scope = "project"

    def check_project(
        self, sources: "list[SourceFile]", config
    ) -> "Iterator[Finding]":
        class_index: dict[str, tuple[ast.ClassDef, SourceFile]] = {}
        for src in sources:
            for node in ast.walk(src.tree):
                if isinstance(node, ast.ClassDef) and node.name not in class_index:
                    class_index[node.name] = (node, src)

        yield from self._check_attacks(sources, class_index, config)
        yield from self._check_experiments(sources)

    def _check_attacks(self, sources, class_index, config) -> "Iterator[Finding]":
        registered: list[tuple[str, ast.AST, SourceFile]] = []
        for src in sources:
            for node in ast.walk(src.tree):
                if isinstance(node, ast.ClassDef):
                    for dec in node.decorator_list:
                        if isinstance(dec, ast.Call) and _is_attack_register(dec.func):
                            registered.append((node.name, node, src))
                elif (
                    isinstance(node, ast.Call)
                    and _is_attack_register(node.func)
                    and len(node.args) >= 2
                ):
                    resolved = _registered_class_name(node.args[1])
                    if resolved is not None:
                        registered.append((resolved[0], node, src))
        for class_name, site, src in registered:
            entry = class_index.get(class_name)
            if entry is None:
                yield Finding(
                    src.relpath,
                    site.lineno,
                    site.col_offset,
                    self.rule_id,
                    f"registered attack {class_name!r} is not a class "
                    "defined in the linted sources",
                )
                continue
            cls, cls_src = entry
            provided, has_name = _class_surface(
                cls, class_index, config.attack_protocol_root
            )
            missing = [m for m in _REQUIRED_ATTACK_METHODS if m not in provided]
            if missing:
                yield Finding(
                    cls_src.relpath,
                    cls.lineno,
                    cls.col_offset,
                    self.rule_id,
                    f"attack {class_name!r} is registered but does not define "
                    f"{'/'.join(missing)}; the ScenarioAttack protocol "
                    "requires prepare(scenario) and run(x_adv, v)",
                )
            if not (has_name or "name" in provided):
                yield Finding(
                    cls_src.relpath,
                    cls.lineno,
                    cls.col_offset,
                    self.rule_id,
                    f"attack {class_name!r} carries no name attribute; "
                    "reports and ledgers identify attacks by name",
                )

    def _check_experiments(self, sources) -> "Iterator[Finding]":
        seen_ids: dict[str, str] = {}
        for src in sources:
            for node in ast.walk(src.tree):
                if not isinstance(node, ast.Call):
                    continue
                func_name = dotted_name(node.func)
                if func_name is None or func_name.split(".")[-1] != "ExperimentSpec":
                    continue
                if not node.args or not (
                    isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    continue
                experiment_id = node.args[0].value
                previous = seen_ids.get(experiment_id)
                if previous is not None:
                    yield Finding(
                        src.relpath,
                        node.lineno,
                        node.col_offset,
                        self.rule_id,
                        f"experiment id {experiment_id!r} already declared in "
                        f"{previous}; register_experiment replaces silently, "
                        "so duplicates shadow each other",
                    )
                else:
                    seen_ids[experiment_id] = src.relpath
                trials = next((k.value for k in node.keywords if k.arg == "trials"), None)
                if (
                    isinstance(trials, ast.Constant)
                    and isinstance(trials.value, int)
                    and trials.value > 1
                ):
                    yield Finding(
                        src.relpath,
                        trials.lineno,
                        trials.col_offset,
                        self.rule_id,
                        f"{experiment_id}: trials={trials.value} repeats every "
                        "cell at every scale; leave trials to "
                        "ScaleConfig.n_trials so the grid scales down to --smoke",
                    )
