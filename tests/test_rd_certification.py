"""tools/rd_certification.py, the pinned certification sweep, on two slopes."""

import importlib.util
import io
from pathlib import Path

import phasebound.rate_distortion as rd

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "rd_certification", ROOT / "tools" / "rd_certification.py")
rd_certification = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(rd_certification)

SUBSET = {"grid_sizes": (64,),
          "priors": {"gauss-pi-0.3": rd_certification.PRIORS["gauss-pi-0.3"]},
          "slopes": (0.1, 10.0)}


def test_pinned_grid_has_320_points():
    grid = rd_certification
    assert len(grid.GRID_SIZES) * len(grid.PRIORS) * len(grid.SLOPES) * 2 == 320


def test_certified_subset_lists_nothing():
    out = io.StringIO()
    assert rd_certification.report(**SUBSET, out=out) == 0
    lines = out.getvalue().splitlines()
    assert lines[0] == "K\tprior\tslope\tstart\tgap\titerations"
    assert lines[1].startswith("rd_certification: 0 of 4 points uncertified")
    assert len(lines) == 2


def test_uncertified_points_are_listed(monkeypatch):
    # one iteration leaves every point of positive slope uncertified
    monkeypatch.setattr(rd, "BA_MAX_ITER", 1)
    out = io.StringIO()
    assert rd_certification.report(**SUBSET, out=out) == 4
    rows = [line.split("\t") for line in out.getvalue().splitlines()[1:-1]]
    assert [row[:4] for row in rows] == [
        ["64", "gauss-pi-0.3", "0.1", "cold"],
        ["64", "gauss-pi-0.3", "10", "cold"],
        ["64", "gauss-pi-0.3", "0.1", "warm"],
        ["64", "gauss-pi-0.3", "10", "warm"]]
    assert all(float(row[4]) > rd.BA_TOL and row[5] == "1" for row in rows)
