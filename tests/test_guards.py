"""Input guards of the public functions: NaN, infinities and unit sums.

A guard written as `x < 0` lets NaN through, which then comes out as a
NaN bound, or as a rate of 0.0 once `max(0.0, nan)` clamps it. Every
guard here is written so that NaN fails it.
"""

import math

import numpy as np
import pytest

from phasebound.bounds import (build_report, escher_bound, h_limit_bound,
                               hall_wiseman_bound, iti_bound, lossy_sql_bound)
from phasebound.capacity import (capacity_upper_bound_lossy, loss_distribution,
                                 unrestricted_capacity)
from phasebound.errors import ValidationError
from phasebound.fock import ProbeSpec
from phasebound.priors import PhasePrior
from phasebound.rate_distortion import (blahut_arimoto_point, grid_distortion,
                                        rd_curve, shannon_lb_distortion,
                                        shannon_lb_rate)

HAMMING = [[0.0, 1.0], [1.0, 0.0]]

# each public guard, given x where it expects a number
CALLS = {
    "iti_bound Q": lambda x: iti_bound(x, 1.0),
    "iti_bound R": lambda x: iti_bound(1.0, x),
    "h_limit_bound Q": lambda x: h_limit_bound(x, 1.0),
    "h_limit_bound N_S": lambda x: h_limit_bound(1.0, x),
    "hall_wiseman_bound P_max": lambda x: hall_wiseman_bound(x, 1.0),
    "hall_wiseman_bound N_S": lambda x: hall_wiseman_bound(1.0, x),
    "lossy_sql_bound Q": lambda x: lossy_sql_bound(x, 1.0, 0.5),
    "lossy_sql_bound N_S": lambda x: lossy_sql_bound(1.0, x, 0.5),
    "lossy_sql_bound eta": lambda x: lossy_sql_bound(1.0, 1.0, x),
    "escher_bound N_S": lambda x: escher_bound(x, 1.0, 0.5),
    "escher_bound Var N": lambda x: escher_bound(1.0, x, 0.5),
    "escher_bound eta": lambda x: escher_bound(1.0, 1.0, x),
    "build_report eta": lambda x: build_report(PhasePrior.uniform(), 1.0, x),
    "unrestricted_capacity": unrestricted_capacity,
    "capacity_upper_bound_lossy N_S": lambda x: capacity_upper_bound_lossy(x, 0.5),
    "capacity_upper_bound_lossy eta": lambda x: capacity_upper_bound_lossy(1.0, x),
    "shannon_lb_rate Q": lambda x: shannon_lb_rate(x, 0.1),
    "shannon_lb_rate D": lambda x: shannon_lb_rate(1.0, x),
    "shannon_lb_distortion Q": lambda x: shannon_lb_distortion(x, 0.5),
    "shannon_lb_distortion R": lambda x: shannon_lb_distortion(1.0, x),
    "blahut_arimoto_point slope":
        lambda x: blahut_arimoto_point([0.5, 0.5], HAMMING, x),
    "rd_curve slope": lambda x: rd_curve(PhasePrior.uniform(), 16, [0.0, x]),
}


@pytest.mark.parametrize("name", CALLS)
def test_nan_is_rejected(name):
    with pytest.raises(ValidationError):
        CALLS[name](math.nan)


@pytest.mark.parametrize("name", [
    "h_limit_bound N_S", "hall_wiseman_bound N_S", "lossy_sql_bound N_S",
    "unrestricted_capacity", "capacity_upper_bound_lossy N_S",
    "blahut_arimoto_point slope", "rd_curve slope"])
def test_photon_numbers_and_slopes_must_be_finite(name):
    with pytest.raises(ValidationError):
        CALLS[name](math.inf)
    with pytest.raises(ValidationError):
        CALLS[name](-math.inf)


def test_photon_guard_names_the_value():
    for call in (lambda: h_limit_bound(1.0, math.nan),
                 lambda: unrestricted_capacity(-math.inf)):
        with pytest.raises(ValidationError,
                           match=r"^mean photon number must be finite and "
                                 r">= 0, got (nan|-inf)$"):
            call()


@pytest.mark.parametrize("call, message", [
    (lambda: ProbeSpec([1.0, 1.0]), "amplitudes have norm^2 2.0, not 1"),
    (lambda: PhasePrior.tabulated([1.0, 1.0]),
     "tabulated prior integrates to 6.283185307179586, not 1"),
    (lambda: loss_distribution(np.array([0.5, 0.25]), 0.5),
     "photon distribution sums to 0.75, not 1"),
    (lambda: blahut_arimoto_point(np.array([0.5, 0.25]), HAMMING, 1.0),
     "source sums to 0.75, not 1"),
], ids=["amplitudes", "tabulated", "loss_distribution", "source"])
def test_unit_sum_messages_print_a_plain_float(call, message):
    # numpy 2 would print a numpy scalar as np.float64(2.0)
    with pytest.raises(ValidationError) as caught:
        call()
    assert str(caught.value) == message


def _grid_point(slope, entry=None):
    d = grid_distortion(16)
    if entry is not None:
        d[3, 5] = entry
    return blahut_arimoto_point(np.full(16, 1.0 / 16), d, slope)


@pytest.mark.parametrize("slope", [0.0, 0.5])
@pytest.mark.parametrize("entry", [math.nan, -1.0, -math.inf])
def test_distortion_entries_must_be_nonnegative(entry, slope):
    # a NaN entry returned D = nan at slope 0 and died in numpy's
    # zero-size reduction at slope 0.5
    with pytest.raises(ValidationError,
                       match=r"^distortion entries must be >= 0 or \+inf$"):
        _grid_point(slope, entry=entry)


def test_infinite_distortion_is_a_forbidden_pair():
    point = _grid_point(0.0, entry=math.inf)
    assert point.distortion == _grid_point(0.0).distortion
    # at a positive slope e^{-s inf} = 0 = e^{-s 1e300}, so the pair adds
    # 0 to D, not 0 * inf = nan
    point = _grid_point(0.5, entry=math.inf)
    huge = _grid_point(0.5, entry=1e300)
    assert math.isfinite(point.distortion)
    for name in ("distortion", "rate", "gap"):
        assert getattr(point, name).hex() == getattr(huge, name).hex(), name
