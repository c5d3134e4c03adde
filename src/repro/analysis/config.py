"""Lint configuration: the repo's contracts, encoded as data.

The defaults below are the authoritative machine-readable form of the
invariants prose-documented in ``docs/architecture.md``:

- :data:`DEFAULT_LAYER_RANKS` encodes the import stack (a module may only
  import packages of *strictly lower* rank, plus its own package).
- :data:`DEFAULT_TIMING_MODULES` / :data:`DEFAULT_TIMING_PATHS` declare
  the timing tier — the only code allowed to read wall-clock sources.
- :data:`DEFAULT_QUERY_BOUNDARY_MODULES` names the attack-side modules
  that must reach deployed models through the
  :class:`~repro.serving.PredictionService` rather than calling
  ``predict`` directly.

Projects can override the file-selection knobs via a
``[tool.repro-lint]`` table in ``pyproject.toml`` (keys ``exclude``,
``timing-modules``, ``timing-paths``, ``baseline``); the contract
encodings themselves are code, changed only alongside the architecture
they describe.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

#: Import stack, low to high. Equal ranks may not import each other,
#: which keeps sibling subsystems (attacks vs federation) decoupled.
DEFAULT_LAYER_RANKS: dict[str, int] = {
    "exceptions": 0,
    "utils": 1,
    "checkpoint": 2,
    "config": 2,
    "tensor": 2,
    "datasets": 3,
    "nn": 3,
    "resilience": 3,
    "telemetry": 3,
    "models": 4,
    "metrics": 5,
    "federated": 5,
    "federation": 6,
    "attacks": 6,
    "defenses": 7,
    "serving": 8,
    "api": 9,
    "workload": 10,
    "experiments": 11,
    "analysis": 12,
}

#: Modules granted wall-clock access (benchmark timing tier).
#: ``repro.telemetry.wall`` is the telemetry layer's single sanctioned
#: wall-clock reader; the rest of ``repro.telemetry`` stays banned.
DEFAULT_TIMING_MODULES: frozenset[str] = frozenset(
    {"repro.experiments.batch", "repro.telemetry.wall"}
)

#: Path prefixes (relative to the lint root) granted wall-clock access.
DEFAULT_TIMING_PATHS: tuple[str, ...] = ("benchmarks/",)

#: Attack-side modules: model queries must go through PredictionService.
DEFAULT_QUERY_BOUNDARY_MODULES: frozenset[str] = frozenset(
    {"repro.attacks", "repro.api.attacks"}
)

#: Default glob patterns excluded from linting.
DEFAULT_EXCLUDE: tuple[str, ...] = (
    "tests/fixtures/*",
    ".cache/*",
    "build/*",
    ".git/*",
)


@dataclass(frozen=True)
class LintConfig:
    """Everything a rule consults besides the AST itself."""

    layer_ranks: dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_LAYER_RANKS)
    )
    timing_modules: frozenset[str] = DEFAULT_TIMING_MODULES
    timing_paths: tuple[str, ...] = DEFAULT_TIMING_PATHS
    query_boundary_modules: frozenset[str] = DEFAULT_QUERY_BOUNDARY_MODULES
    attack_protocol_root: str = "ScenarioAttack"
    exclude: tuple[str, ...] = DEFAULT_EXCLUDE
    baseline_path: str | None = None

    def in_timing_tier(self, src) -> bool:
        """True when ``src`` may legitimately read wall-clock sources."""
        if src.module is not None and src.module in self.timing_modules:
            return True
        return any(src.relpath.startswith(p) for p in self.timing_paths)


def find_root(start: Path) -> Path:
    """Nearest ancestor holding a ``pyproject.toml`` (else ``start`` itself)."""
    start = start.resolve()
    if start.is_file():
        start = start.parent
    for candidate in [start, *start.parents]:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return start


def load_config(root: Path) -> LintConfig:
    """Build the config for ``root``, applying ``[tool.repro-lint]`` overrides."""
    config = LintConfig()
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return config
    import tomllib

    try:
        table = tomllib.loads(pyproject.read_text()).get("tool", {}).get(
            "repro-lint", {}
        )
    except tomllib.TOMLDecodeError:
        return config
    if not isinstance(table, dict):
        return config
    if "exclude" in table:
        config = replace(
            config,
            exclude=config.exclude + tuple(str(p) for p in table["exclude"]),
        )
    if "timing-modules" in table:
        config = replace(
            config,
            timing_modules=config.timing_modules
            | frozenset(str(m) for m in table["timing-modules"]),
        )
    if "timing-paths" in table:
        config = replace(
            config,
            timing_paths=config.timing_paths
            + tuple(str(p) for p in table["timing-paths"]),
        )
    if "baseline" in table:
        config = replace(config, baseline_path=str(table["baseline"]))
    return config
