import math
from fractions import Fraction

import numpy as np
import pytest

from phasebound.bounds import (build_report, escher_bound, h_limit_bound,
                               hall_wiseman_bound, iti_bound, lossy_sql_bound)
from phasebound.capacity import capacity_upper_bound_lossy, unrestricted_capacity
from phasebound.errors import ValidationError
from phasebound.priors import PhasePrior

TWO_PI = 2.0 * math.pi
# 2 pi / e^3: uniform full-circle prior at N_S = 0
H_LIMIT_VACUUM = 0.3128213764565083
LOSSY_SQL_10_HALF = 0.013096962893865745
LOSSY_SQL_ETA0 = 1.6240233988393524     # 12 / e^2, any N_S


def test_iti_bound():
    assert iti_bound(2.0, 0.0) == 2.0
    assert abs(iti_bound(3.0, 1.0) - 3.0 * math.exp(-2.0)) < 1e-15
    with pytest.raises(ValidationError):
        iti_bound(0.0, 1.0)
    with pytest.raises(ValidationError):
        iti_bound(1.0, -0.2)


def test_h_limit_values():
    q = TWO_PI / math.e
    assert abs(h_limit_bound(q, 0.0) - H_LIMIT_VACUUM) < 1e-15
    assert abs(h_limit_bound(q, 9.0) - H_LIMIT_VACUUM / 100.0) < 1e-15
    with pytest.raises(ValidationError):
        h_limit_bound(-1.0, 0.0)
    with pytest.raises(ValidationError):
        h_limit_bound(1.0, -0.5)


def test_h_limit_scaling_invariant():
    q = TWO_PI / math.e
    scaled = [h_limit_bound(q, n) * (n + 1.0) ** 2 for n in [0, 1, 10, 100, 1000]]
    assert np.ptp(scaled) < 1e-15


def test_h_limit_never_exceeds_capacity_route():
    # ln(N_S + 1) + 1 >= C(N_S), so the closed form sits below the exact cap
    q = 1.3
    for n in [0.0, 0.5, 1.0, 3.0, 10.0, 100.0]:
        exact = iti_bound(q, unrestricted_capacity(n))
        assert h_limit_bound(q, n) <= exact + 1e-15


def test_hall_wiseman_matches_h_limit():
    # P_max = 1/L corresponds to entropy power L^2/(2 pi e); on that pairing
    # the two phrasings are the same number
    for ell in [math.pi / 2.0, math.pi, TWO_PI]:
        for n in [0.0, 1.0, 10.0]:
            hw = hall_wiseman_bound(1.0 / ell, n)
            hl = h_limit_bound(ell**2 / (TWO_PI * math.e), n)
            assert abs(hw - hl) < 1e-12 * hl
    assert abs(hall_wiseman_bound(1.0 / TWO_PI, 0.0) - H_LIMIT_VACUUM) < 1e-15


def test_heisenberg_floors_past_the_square_overflow():
    # (N_S + 1) ** 2 overflows from N_S ~ 1.3e154, and scale * (N_S + 1) ** 2
    # a little earlier; both floors stay finite, nonnegative and on their
    # closed form, which underflows
    q = TWO_PI / math.e
    pmax = 1.0 / math.pi
    scale = TWO_PI * math.exp(3.0) * pmax ** 2
    for n in [4e153, 1e154, 1.3e154, 1.35e154, 2e154, 1e160, 1e200, 1e300,
              1.7e308]:
        hl, hw = h_limit_bound(q, n), hall_wiseman_bound(pmax, n)
        assert math.isfinite(hl) and hl >= 0.0
        assert math.isfinite(hw) and hw >= 0.0
        log_n1 = math.log(n + 1.0)
        for got, log_ref in [(hl, math.log(q) - 2.0 - 2.0 * log_n1),
                             (hw, -math.log(scale) - 2.0 * log_n1)]:
            # subnormal results carry fewer digits: compare to the last ulp
            assert abs(got - math.exp(log_ref)) <= max(
                1e-9 * math.exp(log_ref), 5e-324), (n, got)
    # below both overflows the plain quotient stands, digit for digit
    n = 3e153
    assert h_limit_bound(q, n) == q * math.exp(-2.0) / (n + 1.0) ** 2
    assert hall_wiseman_bound(pmax, n) == 1.0 / (scale * (n + 1.0) ** 2)


def test_hall_wiseman_validation():
    with pytest.raises(ValidationError):
        hall_wiseman_bound(0.1, 1.0)      # below 1/(2 pi)
    with pytest.raises(ValidationError):
        hall_wiseman_bound(1.0, -1.0)


def test_lossy_sql_values():
    q = TWO_PI / math.e
    assert abs(lossy_sql_bound(q, 10.0, 0.5) - LOSSY_SQL_10_HALF) < 1e-15
    # eta = 0 keeps only the quantization term, independent of N_S
    assert abs(lossy_sql_bound(q, 3.0, 0.0) - LOSSY_SQL_ETA0) < 1e-14
    assert abs(lossy_sql_bound(q, 300.0, 0.0) - LOSSY_SQL_ETA0) < 1e-14
    with pytest.raises(ValidationError):
        lossy_sql_bound(q, 1.0, 1.0)
    with pytest.raises(ValidationError):
        lossy_sql_bound(q, -1.0, 0.5)
    with pytest.raises(ValidationError):
        lossy_sql_bound(0.0, 1.0, 0.5)


def test_lossy_sql_near_the_top_of_the_float_range():
    # 2 pi e * noise overflows near N_S ~ 1e308, where the bound is a
    # subnormal; below that the plain quotient stands, bit for bit
    q = TWO_PI / math.e
    noise = 0.25 * 1e300 + 1.0 / 12.0
    assert lossy_sql_bound(q, 1e300, 0.5) == \
        q * 0.25 / (TWO_PI * math.e * noise)
    # the exact quotient of the same float inputs, rounded once; the log
    # form's own rounding is a few subnormal ulps here
    noise = 0.25 * 1e308 + 1.0 / 12.0
    exact = float(Fraction(q) * Fraction(0.25)
                  / (Fraction(TWO_PI) * Fraction(math.e) * Fraction(noise)))
    got = lossy_sql_bound(q, 1e308, 0.5)
    assert 0.0 < got and abs(got - exact) <= math.ulp(exact)
    log_ref = math.log(q * 0.25) - math.log(TWO_PI * math.e) - math.log(noise)
    assert abs(got - math.exp(log_ref)) <= 1e-9 * math.exp(log_ref)


def test_lossy_sql_is_iti_at_phase_capacity():
    q = TWO_PI / math.e
    for n in [0.5, 1.0, 10.0]:
        for eta in [0.1, 0.5, 0.9]:
            via_iti = iti_bound(q, capacity_upper_bound_lossy(n, eta))
            direct = lossy_sql_bound(q, n, eta)
            assert abs(direct - via_iti) < 1e-12 * direct


def test_lossy_sql_scaling_invariant():
    # N_S * bound rises to Q (1-eta) / (2 pi e eta) as N_S grows
    q = TWO_PI / math.e
    eta = 0.5
    vals = [n * lossy_sql_bound(q, n, eta) for n in [1.0, 10.0, 100.0, 1000.0]]
    assert np.all(np.diff(vals) > 0.0)
    limit = q * (1.0 - eta) / (TWO_PI * math.e * eta)
    assert abs(vals[-1] - limit) < 1e-3 * limit


def test_escher_values():
    assert abs(escher_bound(5.0, 2.0, 1.0) - 1.0 / 8.0) < 1e-15
    # coherent probes have Var N = N_S, collapsing to 1/(4 eta N_S)
    assert abs(escher_bound(3.0, 3.0, 0.4) - 1.0 / (4.0 * 0.4 * 3.0)) < 1e-15
    assert abs(escher_bound(10.0, 10.0, 0.5) - 0.05) < 1e-15
    with pytest.raises(ValidationError):
        escher_bound(0.0, 1.0, 0.5)
    with pytest.raises(ValidationError):
        escher_bound(1.0, 0.0, 0.5)
    with pytest.raises(ValidationError):
        escher_bound(1.0, 1.0, 0.0)


def test_build_report_omissions():
    uniform = PhasePrior.uniform()
    full = build_report(uniform, 1.0, eta=0.5, photon_variance=1.0)
    assert all(v is not None for v in full.values())

    lossless = build_report(uniform, 1.0, eta=1.0, photon_variance=1.0)
    assert lossless["lossy_sql"] is None and lossless["escher"] is not None

    opaque = build_report(uniform, 1.0, eta=0.0, photon_variance=1.0)
    assert opaque["escher"] is None
    assert abs(opaque["lossy_sql"] - LOSSY_SQL_ETA0) < 1e-14

    vacuum = build_report(uniform, 0.0, eta=0.5, photon_variance=0.0)
    assert vacuum["escher"] is None
    assert abs(vacuum["h_limit"] - H_LIMIT_VACUUM) < 1e-15

    no_var = build_report(uniform, 2.0, eta=0.5)
    assert no_var["escher"] is None
    # a negative variance means no spread too, as the CLI passes it through
    assert build_report(uniform, 2.0, eta=0.5, photon_variance=-1e-17) == no_var

    with pytest.raises(ValidationError):
        build_report(uniform, 1.0, eta=1.5)


def test_bayesian_bounds_never_exceed_prior_variance():
    # Q <= Var and every rate cap is >= 0, so the chain cannot clear the
    # variance; escher can, which is why the verification leaves it out
    priors = [PhasePrior.uniform(), PhasePrior.uniform(center=2.0, width=1.5),
              PhasePrior.wrapped_gaussian(1.0, 0.7)]
    for prior in priors:
        var = prior.variance()
        for n in [0.0, 1.0, 10.0]:
            for eta in [0.0, 0.5, 1.0]:
                report = build_report(prior, n, eta=eta, photon_variance=n)
                for name, value in report.items():
                    if value is not None and name != "escher":
                        assert value <= var + 1e-12, (name, n, eta)


def test_build_report_keys_follow_the_cli_columns():
    report = build_report(PhasePrior.uniform(), 1.0, eta=0.5,
                          photon_variance=1.0)
    assert list(report) == ["h_limit", "hall_wiseman", "lossy_sql", "escher",
                            "iti_C"]


def test_build_report_never_reads_the_prior_variance(monkeypatch):
    prior = PhasePrior.wrapped_gaussian(1.0, 0.5)

    def variance():
        raise AssertionError("build_report read the prior variance")

    monkeypatch.setattr(prior, "variance", variance)
    for eta in (0.0, 0.5, 1.0):
        build_report(prior, 2.0, eta=eta, photon_variance=2.0)
