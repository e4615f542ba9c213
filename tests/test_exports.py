import ast
import importlib
import pkgutil
from dataclasses import fields
from pathlib import Path

import pytest

import uavsense
from uavsense.engine import DetectionStats, ScenarioTables, TrialOutcome
from uavsense.fusion import DetectionResult, LocalRcsMap
from uavsense.geometry import AoA, CellGrid, CellSets
from uavsense.ofdm import Reflections

MODULES = sorted(info.name for info in pkgutil.iter_modules(uavsense.__path__) if info.name != "__main__")

# Public names that no code in the package runs, and why each stays.
UNUSED_BY_DESIGN = {
    "fuse": "one fusion method's average, the oracle of fuse_and_detect; the benchmark traces it",
    "detect": "the argmax of one fused map, the oracle of fuse_and_detect; the benchmark traces it",
    "hypothesis_test": "the paper's L-infinity test, the oracle of detection_delta",
    "periodogram_grid": "the paper's grid periodogram, the oracle of matched_point_value (criterion 2)",
}

# Record types whose every field some package code reads, but for these outputs.
RECORDS = [
    TrialOutcome, DetectionResult, LocalRcsMap, ScenarioTables, CellGrid, CellSets, AoA, Reflections, DetectionStats
]
OUTPUT_FIELDS = {
    "TrialOutcome.target_xy": "run_trial returns it: the target position each detection is judged against",
    "TrialOutcome.local_maps": "run_trial returns it with collect_maps: each UAV's local map",
    "DetectionResult.detected_cell": "run_trial returns it: the cell each fusion method detected",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # A name left in __all__ after its definition is deleted would break
    # `from uavsense.<module> import *`.
    module = importlib.import_module(f"uavsense.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def _used_names() -> set:
    """Names the package's code reads, as a name or an attribute, outside the top-level
    definition of the same name; imports and __all__ entries are not reads."""
    used = set()
    for path in Path(uavsense.__file__).parent.glob("*.py"):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            nodes = list(ast.walk(statement))
            reads = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            reads |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            used |= reads - {getattr(statement, "name", None)}  # a definition does not use itself
    return used


def test_every_public_name_runs_in_the_package():
    # A public function that only tests call is a second implementation of a
    # computation the pipeline runs elsewhere; keep one, or give the reason here.
    used = _used_names()
    unused = {
        attr
        for name in MODULES
        for attr in importlib.import_module(f"uavsense.{name}").__all__
        if attr not in used
    }
    assert unused == set(UNUSED_BY_DESIGN)


def test_every_record_field_is_read_in_the_package():
    # A field that no code reads is a stored copy of something else or a dead
    # result; remove it, or name it an output here with the reason.
    used = _used_names()
    unread = {f"{record.__name__}.{f.name}" for record in RECORDS for f in fields(record) if f.name not in used}
    assert unread == set(OUTPUT_FIELDS)
