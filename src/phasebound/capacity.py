"""Capacity formulas and photon-number entropy bounds for the loss channel.

Everything here is diagonal in photon number: the loss channel acts on a
number distribution p_n through the binomial kernel B_eta(n, l), the
probability that l of n photons are lost. Entropies are Shannon entropies
in nats, by direct summation.

`loss_distribution`, `shannon_entropy` and `entropy_gain` take one
distribution or a 2-d stack whose rows are distributions, zero-padded to
a common length; a stack shares one loss kernel and gives a result per
row. Trailing zeros change no entropy and no loss count.
"""

import math

import numpy as np

from .errors import ValidationError

__all__ = ["unrestricted_capacity", "binomial_loss_matrix",
           "loss_distribution", "shannon_entropy", "entropy_gain",
           "capacity_upper_bound_lossy"]


def unrestricted_capacity(mean_photons):
    """(N+1)ln(N+1) - N ln N: energy-constrained capacity in nats.

    Taken as ln(1+N) + N ln(1+1/N), which subtracts nothing: the plain
    difference of two terms of size N ln N loses every digit by N ~ 1e16.
    0*ln(0) = 0, so the vacuum constraint gives zero capacity.
    """
    n = _check_photons(mean_photons)
    if n == 0.0:
        return 0.0
    # ln(1 + 1/n), as ln(1 + n) - ln n where 1/n overflows (subnormal n)
    inv = math.log1p(1.0 / n) if n > 1e-300 else math.log1p(n) - math.log(n)
    return math.log1p(n) + n * inv


def _check_photons(mean_photons):
    n = float(mean_photons)
    if not 0.0 <= n < math.inf:
        raise ValidationError(f"mean photon number must be finite and >= 0, got {n}")
    return n


def _check_eta(eta):
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"transmittance must lie in [0, 1], got {eta}")
    return eta


# ln k! for k <= 256: every size a probe cutoff allows, and every l + m
# of fock's branch table
_LOG_FACTORIAL = np.array([math.lgamma(k + 1) for k in range(257)])


def binomial_loss_matrix(n_max, eta):
    """Kernel table K[n, l] = B_eta(n, l), lower triangular, n, l <= n_max.

    B_eta(n, l) = C(n, l) eta^(n-l) (1-eta)^l, taken in log space.
    """
    eta = _check_eta(eta)
    size = n_max + 1
    if eta in (0.0, 1.0):
        out = np.zeros((size, size))
        if eta == 1.0:
            out[:, 0] = 1.0
        else:
            np.fill_diagonal(out, 1.0)
        return out
    logfact = _LOG_FACTORIAL[:size] if size <= _LOG_FACTORIAL.size else \
        np.array([math.lgamma(k + 1) for k in range(size)])
    idx = np.arange(size)
    kk = idx[:, None] - idx   # n - l, the photons that survive
    valid = kk >= 0
    kk = np.maximum(kk, 0)
    # above the diagonal logk <= 0, so exp stays finite before the mask
    logk = (logfact[:, None] - logfact - logfact[kk]
            + kk * np.log(eta) + idx * np.log1p(-eta))
    return np.where(valid, np.exp(logk), 0.0)


def loss_distribution(photon_dist, eta):
    """q_l = sum_{n >= l} p_n B_eta(n, l): distribution of the loss count.

    A 2-d stack gives one loss distribution per row.
    """
    p = np.asarray(photon_dist, dtype=float)
    if p.ndim not in (1, 2) or p.size == 0:
        raise ValidationError("photon distribution must be a 1-d array or "
                              "a 2-d stack of them")
    if np.any(p < 0.0) or not np.all(np.isfinite(p)):
        raise ValidationError("photon distribution entries must be finite, >= 0")
    sums = p.sum(axis=-1)
    off = np.abs(sums - 1.0) > 1e-10
    if off.any():
        raise ValidationError(f"photon distribution sums to "
                              f"{float(sums[off].flat[0])!r}, not 1")
    kern = binomial_loss_matrix(p.shape[-1] - 1, eta)
    return p @ kern


def _xlogy(x, y):
    """x ln y elementwise for a float array x, 0 wherever x == 0."""
    return x * np.log(y, out=np.zeros_like(x), where=x != 0.0)


def shannon_entropy(dist):
    """-sum p ln p in nats, with 0*ln(0) = 0; one per row of a 2-d stack."""
    p = np.asarray(dist, dtype=float)
    if p.ndim > 2:
        raise ValidationError("a distribution must be a 1-d array or a 2-d "
                              "stack of them")
    if p.ndim == 2:
        return -np.sum(_xlogy(p, p), axis=1)
    return float(-np.sum(_xlogy(p, p)))


def entropy_gain(photon_dist, eta):
    """H(L) - H(N): entropy picked up by the loss count over the input.

    Holevo's minimum-entropy-gain theorem puts this at >= ln(1-eta) for the
    number-diagonal inputs used here. A 2-d stack gives one gain per row.
    """
    q = loss_distribution(photon_dist, eta)
    return shannon_entropy(q) - shannon_entropy(photon_dist)


def capacity_upper_bound_lossy(mean_photons, eta):
    """Phase-modulation capacity upper bound through a transmittance-eta loss.

    0.5*ln[2*pi*e*(eta*(1-eta)*N + 1/12)/(1-eta)^2], valid for 0 < eta < 1
    only: it diverges as eta -> 1 and carries no meaning at eta = 0.
    """
    n = _check_photons(mean_photons)
    eta = _check_eta(eta)
    if eta in (0.0, 1.0):
        raise ValidationError("lossy capacity bound needs 0 < eta < 1")
    noise = eta * (1.0 - eta) * n + 1.0 / 12.0
    ratio = 2.0 * np.pi * np.e * noise / (1.0 - eta) ** 2
    if math.isinf(ratio):
        # the ratio overflows near N ~ 1e308 (sooner as eta nears 1);
        # the sum of its logs does not
        return 0.5 * (np.log(2.0 * np.pi * np.e) + np.log(noise)
                      - 2.0 * np.log1p(-eta))
    return 0.5 * np.log(ratio)
