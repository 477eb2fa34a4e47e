"""tools/same_outputs.py, the output-diff harness, on small call lists."""

import importlib.util
import io
import json
import shutil
from pathlib import Path

import pytest

from phasebound.config import ScenarioConfig

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)

# what the two capacity rows print, and what they print 1 + 1e-15 high
ROWS = ["1.0,1.0,1.3862943611198906,", "4.0,1.0,2.5020121176909393,"]
SCALED = ["1.0,1.0,1.3862943611198921,", "4.0,1.0,2.502012117690942,"]


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    """A copy of src/, a copy that prints C_unrestricted 1 + 1e-15 high,
    and the calls: a capacity table and the help text."""
    root = tmp_path_factory.mktemp("trees")
    for name in ("same", "scaled"):
        shutil.copytree(ROOT / "src", root / name / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    cli = root / "scaled" / "src" / "phasebound" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    printed = "capacity_mod.unrestricted_capacity(ns),"
    assert text.count(printed) == 1
    cli.write_text(text.replace(printed, printed[:-1] + " * (1.0 + 1e-15),"),
                   encoding="utf-8")
    config = root / "capacity.json"
    config.write_text(json.dumps({"mean_photons": [1.0, 4.0], "eta": [1.0]}))
    calls = [("capacity", same_outputs.CLI + ["capacity", "--config",
                                              str(config)]),
             ("--help", same_outputs.CLI + ["--help"])]
    return root / "same", root / "scaled", calls


def test_identical_trees_exit_0(trees):
    same, _, calls = trees
    out = io.StringIO()
    assert same_outputs.compare(same, ROOT, calls, set(), out) == 0
    assert out.getvalue() == \
        "same_outputs: 2 calls, 0 differing lines, 0 not in moved_lines.txt\n"


def test_a_float_scaled_by_1e_15_exits_1_and_names_the_line(trees):
    same, scaled, calls = trees
    out = io.StringIO()
    assert same_outputs.compare(same, scaled, calls, set(), out) == 1
    text = out.getvalue()
    for old, new in zip(ROWS, SCALED):
        assert (f"capacity\n  base:   stdout: {old}\n"
                f"  change: stdout: {new}\n") in text
    assert text.endswith("2 differing lines, 2 not in moved_lines.txt\n")


def test_listed_lines_may_move(trees):
    same, scaled, calls = trees
    out = io.StringIO()
    allowed = {f"stdout: {line}" for line in SCALED}
    assert same_outputs.compare(same, scaled, calls[:1], allowed, out) == 0
    assert out.getvalue().count("capacity (listed)\n") == 2


def test_differences_pair_lines_across_an_insertion():
    base = ["a", "b", "c"]
    assert list(same_outputs.differences(base, base)) == []
    assert list(same_outputs.differences(base, ["a", "x", "b", "y"])) == \
        [(None, "x"), ("c", "y")]


def test_the_matrix(tmp_path):
    # every workload operation at two seeds, five commands at two thread
    # counts on five scenarios, default verify, --help and each demo
    calls = same_outputs.matrix(tmp_path)
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(calls) == 2 * 6 + 5 * 5 * 2 + 2 + len(demos)
    assert len({label for label, _ in calls}) == len(calls)
    assert len(list(tmp_path.glob("*.json"))) == 2 * 6 + 5 * 5 * 2
    for path in tmp_path.glob("*.json"):
        ScenarioConfig.from_file(str(path))
