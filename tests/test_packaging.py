import ast
import pkgutil
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "windfleet"


def imported_top_level_modules(path):
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_the_declared_dependencies():
    imported = set().union(*map(imported_top_level_modules, PACKAGE.glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names)
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]}
    assert third_party == declared


def test_names_the_benchmark_uses_still_resolve():
    """Every ``windfleet.<name>`` and ``cli.<name>`` in perfbench/*.py, read as text."""
    text = "\n".join(p.read_text(encoding="utf-8") for p in (ROOT / "perfbench").glob("*.py"))
    references = set(re.findall(r"\b(?:windfleet|cli)(?:\.[A-Za-z_]\w*)+", text))
    assert {"windfleet.normalize", "cli.main"} <= references
    unresolved = []
    for reference in sorted(references):
        name = reference if reference.startswith("windfleet.") else f"windfleet.{reference}"
        try:
            pkgutil.resolve_name(name)
        except (ImportError, AttributeError):
            unresolved.append(reference)
    assert unresolved == []


def test_every_exported_name_resolves_once():
    import windfleet

    assert len(windfleet.__all__) == len(set(windfleet.__all__))
    missing = [name for name in windfleet.__all__ if not hasattr(windfleet, name)]
    assert missing == []


# the package's public names: a change to this set is a change to its API
EXPORTED = {
    "__version__",
    "GridSeries", "IngestError", "RawRecord", "Records", "WeekSeries", "canonicalize", "cut_year",
    "parse_csv",
    "NormalizedYear", "ScalingSpec", "WindHistogram", "extrapolate_wind", "normalize",
    "wind_histogram",
    "DispatchConfig", "DispatchResult", "dispatch_week",
    "CharacteristicCurve", "CurveRequest", "TargetUnreachableError", "annual_curve",
    "curve_from_histogram", "invert_annual_curve", "invert_curve",
    "BevFleetSpec", "ChargeSchedule", "SocTrajectory", "consumption_profile",
    "leveling_schedule", "soc_trajectory", "weekly_levels",
    "FleetSizingRow", "LullReport", "ScenarioConstants", "build_table2", "lull_report",
    "synthetic_year",
}


def test_exported_names_are_the_public_api():
    import windfleet

    assert set(windfleet.__all__) == EXPORTED
    namespace = {}
    exec("from windfleet import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTED
