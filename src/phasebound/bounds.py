"""Analytic lower bounds on the Bayesian MSE of phase estimation.

Every bound here chains the rate-distortion converse MSE >= Q e^{-2R}
through a capacity ceiling on the information the probe can carry:

  * iti_bound takes an explicit rate cap,
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

from .capacity import unrestricted_capacity
from .errors import ValidationError
from .priors import TWO_PI

__all__ = ["iti_bound", "h_limit_bound", "hall_wiseman_bound",
           "lossy_sql_bound", "escher_bound", "BoundReport", "build_report"]


def iti_bound(entropy_power, rate_cap):
    """Q e^{-2R}: MSE floor when the channel moves at most rate_cap nats."""
    if entropy_power <= 0.0:
        raise ValidationError("iti_bound needs entropy power > 0")
    if rate_cap < 0.0:
        raise ValidationError(f"rate cap must be >= 0, got {rate_cap}")
    return entropy_power * math.exp(-2.0 * rate_cap)


def h_limit_bound(entropy_power, mean_photons):
    """Q e^{-2} / (N_S + 1)^2, the Heisenberg-limit floor.

    Uses the capacity cap C(N_S) <= ln(N_S + 1) + 1, which keeps the
    (N_S + 1)^{-2} scaling exact at every N_S.
    """
    if entropy_power <= 0.0:
        raise ValidationError("h_limit_bound needs entropy power > 0")
    if mean_photons < 0.0:
        raise ValidationError(f"mean photon number must be >= 0, got {mean_photons}")
    n1 = mean_photons + 1.0
    try:
        return entropy_power * math.exp(-2.0) / n1 ** 2
    except OverflowError:   # n1 ** 2 overflows from N_S ~ 1.3e154
        return entropy_power * math.exp(-2.0) / n1 / n1


def hall_wiseman_bound(max_density, mean_photons):
    """Heisenberg-limit floor phrased through the prior's peak density:
    1 / (2 pi e^3 P_max^2 (N_S + 1)^2)."""
    if max_density < 1.0 / TWO_PI - 1e-12:
        raise ValidationError(
            f"max density {max_density} is below 1/(2 pi); no circle density "
            "can peak that low")
    if mean_photons < 0.0:
        raise ValidationError(f"mean photon number must be >= 0, got {mean_photons}")
    scale = TWO_PI * math.exp(3.0) * max_density**2
    n1 = mean_photons + 1.0
    try:
        return 1.0 / (scale * n1 ** 2)
    except OverflowError:   # n1 ** 2 overflows from N_S ~ 1.3e154
        return 1.0 / (scale * n1) / n1


def lossy_sql_bound(entropy_power, mean_photons, eta):
    """Q (1-eta)^2 / (2 pi e (eta (1-eta) N_S + 1/12)).

    Equals iti_bound at the lossy phase-capacity cap; finite at eta = 0
    (the channel still leaks the 1/12 quantization term) but empty at
    eta = 1, which is rejected.
    """
    if entropy_power <= 0.0:
        raise ValidationError("lossy_sql_bound needs entropy power > 0")
    if mean_photons < 0.0:
        raise ValidationError(f"mean photon number must be >= 0, got {mean_photons}")
    if not 0.0 <= eta < 1.0:
        raise ValidationError(
            f"lossy_sql_bound needs 0 <= eta < 1, got {eta}")
    noise = eta * (1.0 - eta) * mean_photons + 1.0 / 12.0
    return entropy_power * (1.0 - eta) ** 2 / (TWO_PI * math.e * noise)


def escher_bound(mean_photons, photon_variance, eta):
    """1/(4 Var N) + (1-eta)/(4 eta N_S), the Fisher-information floor.

    Prior-independent, so it can undercut a wide prior's variance; it
    needs photon-number spread and some transmission to say anything.
    """
    if mean_photons <= 0.0 or photon_variance <= 0.0:
        raise ValidationError("escher_bound needs N_S > 0 and Var N > 0")
    if not 0.0 < eta <= 1.0:
        raise ValidationError(f"escher_bound needs 0 < eta <= 1, got {eta}")
    return (1.0 / (4.0 * photon_variance)
            + (1.0 - eta) / (4.0 * eta * mean_photons))


class BoundReport:
    """Bounds applicable to one (prior, N_S, eta, Var N) scenario.

    Bounds that do not apply are None: lossy_sql at eta = 1, escher
    without photon spread or transmission. bayesian() returns the
    prior-dependent entries, each of which must sit at or below the
    prior variance.
    """

    fields = ("h_limit", "hall_wiseman", "iti_C", "lossy_sql", "escher")

    def __init__(self, mean_photons, eta, photon_variance, entropy_power,
                 max_density, prior_variance, h_limit, hall_wiseman, iti_C,
                 lossy_sql, escher):
        self.mean_photons = mean_photons
        self.eta = eta
        self.photon_variance = photon_variance
        self.entropy_power = entropy_power
        self.max_density = max_density
        self.prior_variance = prior_variance
        self.h_limit = h_limit
        self.hall_wiseman = hall_wiseman
        self.iti_C = iti_C
        self.lossy_sql = lossy_sql
        self.escher = escher

    def bayesian(self):
        out = {"h_limit": self.h_limit, "hall_wiseman": self.hall_wiseman,
               "iti_C": self.iti_C}
        if self.lossy_sql is not None:
            out["lossy_sql"] = self.lossy_sql
        return out

    def as_dict(self):
        return {name: getattr(self, name) for name in self.fields}

    def __repr__(self):
        parts = [f"{k}={v:.4g}" for k, v in self.as_dict().items()
                 if v is not None]
        return f"BoundReport(N_S={self.mean_photons:.4g}, eta={self.eta:.4g}, "\
               + ", ".join(parts) + ")"


def build_report(prior, mean_photons, eta=1.0, photon_variance=None):
    """Evaluate every applicable bound for one scenario."""
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"transmittance must lie in [0, 1], got {eta}")
    q = prior.entropy_power()
    pmax = prior.max_density()
    lossy = None if eta == 1.0 else lossy_sql_bound(q, mean_photons, eta)
    escher = None
    if (photon_variance is not None and photon_variance > 0.0
            and mean_photons > 0.0 and eta > 0.0):
        escher = escher_bound(mean_photons, photon_variance, eta)
    return BoundReport(
        mean_photons=mean_photons, eta=eta, photon_variance=photon_variance,
        entropy_power=q, max_density=pmax, prior_variance=prior.variance(),
        h_limit=h_limit_bound(q, mean_photons),
        hall_wiseman=hall_wiseman_bound(pmax, mean_photons),
        iti_C=iti_bound(q, unrestricted_capacity(mean_photons)),
        lossy_sql=lossy, escher=escher)
