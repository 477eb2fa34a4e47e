"""Analytic lower bounds on the Bayesian MSE of phase estimation.

Every bound here chains the rate-distortion converse MSE >= Q e^{-2R}
through a capacity ceiling on the information the probe can carry:

  * iti_bound takes an explicit rate cap; it is rate_distortion's
    Shannon lower bound D(R), shannon_lb_distortion,
  * h_limit_bound caps the lossless capacity by ln(N_S + 1) + 1,
  * hall_wiseman_bound is the same statement through the prior's peak
    density instead of its entropy power,
  * lossy_sql_bound caps the phase information of the lossy channel,
  * escher_bound is the quantum Fisher route, prior-independent apart
    from needing nonzero photon-number spread.

Q is the prior entropy power e^{2h}/(2 pi e); all rates are in nats and
errors in squared radians.
"""

import math

from .capacity import _check_eta, _check_photons, unrestricted_capacity
from .errors import ValidationError
from .priors import TWO_PI
from .rate_distortion import shannon_lb_distortion

__all__ = ["iti_bound", "h_limit_bound", "hall_wiseman_bound",
           "lossy_sql_bound", "escher_bound", "build_report"]


def iti_bound(entropy_power, rate_cap):
    """Q e^{-2R}, rate_distortion's Shannon lower bound D(R) at R = rate_cap:
    the MSE floor when the channel moves at most rate_cap nats."""
    return shannon_lb_distortion(entropy_power, rate_cap)


def h_limit_bound(entropy_power, mean_photons):
    """Q e^{-2} / (N_S + 1)^2, the Heisenberg-limit floor.

    Uses the capacity cap C(N_S) <= ln(N_S + 1) + 1, which keeps the
    (N_S + 1)^{-2} scaling exact at every N_S.
    """
    if not entropy_power > 0.0:
        raise ValidationError("h_limit_bound needs entropy power > 0")
    _check_photons(mean_photons)
    n1 = mean_photons + 1.0
    try:
        return entropy_power * math.exp(-2.0) / n1 ** 2
    except OverflowError:   # n1 ** 2 overflows from N_S ~ 1.3e154
        return entropy_power * math.exp(-2.0) / n1 / n1


def hall_wiseman_bound(max_density, mean_photons):
    """Heisenberg-limit floor phrased through the prior's peak density:
    1 / (2 pi e^3 P_max^2 (N_S + 1)^2)."""
    if not max_density >= 1.0 / TWO_PI - 1e-12:
        raise ValidationError(
            f"max density {max_density} is below 1/(2 pi); no circle density "
            "can peak that low")
    _check_photons(mean_photons)
    scale = TWO_PI * math.exp(3.0) * max_density**2
    n1 = mean_photons + 1.0
    try:
        den = scale * n1 ** 2
    except OverflowError:   # n1 ** 2 overflows from N_S ~ 1.3e154
        den = math.inf
    # the product overflows to inf, silently, from N_S ~ 7.5e153 on, where
    # the bound is still a subnormal: there divide one factor at a time
    return 1.0 / den if den < math.inf else 1.0 / (scale * n1) / n1


def lossy_sql_bound(entropy_power, mean_photons, eta):
    """Q (1-eta)^2 / (2 pi e (eta (1-eta) N_S + 1/12)).

    Equals iti_bound at the lossy phase-capacity cap; finite at eta = 0
    (the channel still leaks the 1/12 quantization term) but empty at
    eta = 1, which is rejected.
    """
    if not entropy_power > 0.0:
        raise ValidationError("lossy_sql_bound needs entropy power > 0")
    _check_photons(mean_photons)
    if not 0.0 <= eta < 1.0:
        raise ValidationError(
            f"lossy_sql_bound needs 0 <= eta < 1, got {eta}")
    noise = eta * (1.0 - eta) * mean_photons + 1.0 / 12.0
    num = entropy_power * (1.0 - eta) ** 2
    den = TWO_PI * math.e * noise
    # den overflows to inf near N_S ~ 1e308, where the bound is still a
    # subnormal: there divide one factor at a time
    return num / den if den < math.inf else num / (TWO_PI * math.e) / noise


def escher_bound(mean_photons, photon_variance, eta):
    """1/(4 Var N) + (1-eta)/(4 eta N_S), the Fisher-information floor.

    Prior-independent, so it can undercut a wide prior's variance; it
    needs photon-number spread and some transmission to say anything.
    """
    if not (mean_photons > 0.0 and photon_variance > 0.0):
        raise ValidationError("escher_bound needs N_S > 0 and Var N > 0")
    if not 0.0 < eta <= 1.0:
        raise ValidationError(f"escher_bound needs 0 < eta <= 1, got {eta}")
    return (1.0 / (4.0 * photon_variance)
            + (1.0 - eta) / (4.0 * eta * mean_photons))


def build_report(prior, mean_photons, eta=1.0, photon_variance=None):
    """Every bound for one scenario, keyed by name in the CLI's column order.

    An entry is None where its bound does not apply: lossy_sql at eta = 1,
    escher without photon-number spread (a variance that is None or
    <= 0), photons or transmission.
    """
    _check_eta(eta)
    q = prior.entropy_power()
    pmax = prior.max_density()
    # lossy_sql runs first: invalid input raises its error, not h_limit's
    lossy = None if eta == 1.0 else lossy_sql_bound(q, mean_photons, eta)
    escher = None
    if (photon_variance is not None and photon_variance > 0.0
            and mean_photons > 0.0 and eta > 0.0):
        escher = escher_bound(mean_photons, photon_variance, eta)
    return {"h_limit": h_limit_bound(q, mean_photons),
            "hall_wiseman": hall_wiseman_bound(pmax, mean_photons),
            "lossy_sql": lossy, "escher": escher,
            "iti_C": iti_bound(q, unrestricted_capacity(mean_photons))}
