"""Truncated Fock-space engine for phase-modulated probes through loss.

A probe is a photon-number amplitude list. Loss splits it into the chi_l
branches indexed by the loss count l; the environment keeps the loss
record, so the branches are orthonormal and the output spectrum is the
loss distribution itself. Every state of the ensemble (rho_phi, its
prior average and the dephased average) is therefore block-diagonal in
l, with one block over the surviving count m per loss count.

chi_decompose_all builds every branch of a command's scenarios at once,
one array V[l, m] = c_{l+m} sqrt(B_eta(l+m, l)) per (probe, eta), held
in a ChiDecomposition with its probe, eta and populations |V[l, m]|^2;
these are the only input of both readers: holevo_quantity here and
estimation.bayesian_mmse, whose window reads V^dagger V. The factors
sqrt(B_eta(l+m, l)) come from one module-level table of ln C(l+m, l),
LOG_BINOM: one table of them per eta serves every probe, sliced to its
cutoff, and multiplies a Hankel view of its amplitudes, so no loss
matrix is built; chi_decompose is the one-probe case.
capacity.binomial_loss_matrix stays the independent kernel that the
loss distribution and the tests read.

The Holevo quantity builds no state: the spectrum of each averaged block
follows from the branch magnitudes |V_l| and the prior's Fourier
coefficients (see holevo_quantity). The states themselves are built
only by the test oracle, tests/fock_states.py.

Entropies are in nats.
"""

import cmath
import math

import numpy as np

from .capacity import _LOG_FACTORIAL, _check_eta, shannon_entropy
from .errors import NumericalError, ValidationError

__all__ = ["ProbeSpec", "ChiDecomposition", "chi_decompose",
           "chi_decompose_all", "holevo_quantity"]

CUTOFF_CAP = 128
TAIL_MASS = 1e-12

# LOG_BINOM[l, m] = ln C(l+m, l) for l, m <= CUTOFF_CAP, summed in
# capacity.binomial_loss_matrix's order, so its branches keep every bit
_K = np.arange(CUTOFF_CAP + 1)
LOG_BINOM = ((_LOG_FACTORIAL[_K[:, None] + _K] - _LOG_FACTORIAL[_K, None])
             - _LOG_FACTORIAL[_K])


class ProbeSpec:
    """Single-mode probe given by number-basis amplitudes c_0..c_cutoff."""

    def __init__(self, amplitudes, family=None, params=None):
        c = np.asarray(amplitudes, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ValidationError("amplitudes must be a nonempty 1-d array")
        if not np.all(np.isfinite(c)):
            raise ValidationError("amplitudes must be finite")
        norm = float(np.sum(np.abs(c) ** 2))
        if abs(norm - 1.0) > 1e-10:
            raise ValidationError(f"amplitudes have norm^2 {norm!r}, not 1")
        if c.size - 1 > CUTOFF_CAP:
            raise ValidationError(
                f"cutoff {c.size - 1} exceeds the supported cap {CUTOFF_CAP}")
        self.amplitudes = c / np.sqrt(norm)
        self.probabilities = np.abs(self.amplitudes) ** 2
        self.cutoff = c.size - 1
        n = np.arange(c.size, dtype=float)
        self.mean_photons = float(self.probabilities @ n)
        self.photon_variance = float(self.probabilities @ n**2
                                     - self.mean_photons**2)
        self._family = family
        self._params = dict(params or {})

    @classmethod
    def coherent(cls, alpha):
        """Coherent state |alpha>, truncated where the Poisson tail < 1e-12."""
        if cmath.isnan(complex(alpha)):
            # a NaN passes the cap check below and reaches the amplitudes
            raise ValidationError(f"coherent alpha must be a number, got {alpha}")
        alpha = complex(alpha)
        if abs(alpha) > CUTOFF_CAP:
            # far past the cap; checked before |alpha|^2 can overflow
            raise ValidationError(
                f"coherent alpha={abs(alpha):g} needs cutoff beyond {CUTOFF_CAP}")
        ns = abs(alpha) ** 2
        # smallest cutoff with tail mass below threshold
        logp, total = [-ns], math.exp(-ns)   # total: sum of exp(logp)
        while total < 1.0 - TAIL_MASS:
            n = len(logp)
            if n - 1 >= CUTOFF_CAP:
                raise ValidationError(
                    f"coherent alpha={abs(alpha):g} needs cutoff beyond {CUTOFF_CAP}")
            logp.append(-ns + n * math.log(ns) - math.lgamma(n + 1.0))
            total += math.exp(logp[-1])
        p = np.exp(logp)
        amps = np.sqrt(p / p.sum()) * np.exp(1j * np.angle(alpha)
                                             * np.arange(len(p)))
        return cls(amps, family="coherent", params={"alpha": abs(alpha)})

    @classmethod
    def number(cls, n):
        """Fock state |n>."""
        if not 0 <= n <= CUTOFF_CAP or int(n) != n:
            raise ValidationError(
                f"number probe needs integer n in [0, {CUTOFF_CAP}], got {n}")
        amps = np.zeros(int(n) + 1)
        amps[-1] = 1.0
        return cls(amps, family="number", params={"n": int(n)})

    @classmethod
    def flat_superposition(cls, d):
        """Equal-weight superposition of |0>..|d-1>."""
        if not 1 <= d <= CUTOFF_CAP + 1 or int(d) != d:
            raise ValidationError(f"flat superposition needs integer d in "
                                  f"[1, {CUTOFF_CAP + 1}], got {d}")
        return cls(np.full(int(d), 1.0 / np.sqrt(d)),
                   family="flat-superposition", params={"d": int(d)})

    @classmethod
    def binomial_phase(cls, d):
        """Amplitudes sqrt(C(d-1, n)/2^(d-1)) over n = 0..d-1."""
        if not 1 <= d <= CUTOFF_CAP + 1 or int(d) != d:
            raise ValidationError(f"binomial-phase needs integer d in "
                                  f"[1, {CUTOFF_CAP + 1}], got {d}")
        d = int(d)
        p = np.array([math.comb(d - 1, n) for n in range(d)], dtype=float)
        return cls(np.sqrt(p / p.sum()), family="binomial-phase", params={"d": d})

    def descriptor(self):
        out = {"family": self._family or "amplitudes", "cutoff": self.cutoff,
               "mean_photons": self.mean_photons}
        out.update(self._params)
        return out

    def __repr__(self):
        return (f"ProbeSpec({self._family or 'amplitudes'}, cutoff={self.cutoff}, "
                f"N_S={self.mean_photons:.4g})")


class ChiDecomposition:
    """Loss branches of a probe as one array, a row per kept loss count l.

    branches[i, m] = c_{l+m} sqrt(B_eta(l+m, l)) = sqrt(q_l) u_l[m] is the
    Kraus branch A_l = sum_n sqrt(B_eta(n, l)) |n-l><n| on the probe, zero
    where l + m > cutoff. The weights q_l are its row sums of |.|^2; rows
    with q_l < 1e-14 are dropped. The environment's loss record l
    separates the branches, so the unit vectors u_l are orthonormal.

    The populations q_l |u_l[m]|^2 are the entries of |branches|^2 with
    l + m <= cutoff, in (l, m) order: the spectrum of the dephased average
    (f(0) = 1 for every prior), and of rho_bar when f(1..cutoff) = 0.
    """

    def __init__(self, probe, eta, loss_counts, weights, branches,
                 populations):
        self.probe = probe
        self.eta = eta
        self.loss_counts = list(loss_counts)
        self.weights = np.asarray(weights, dtype=float)
        self.branches = branches
        self.populations = populations

    def __len__(self):
        return len(self.loss_counts)


def chi_decompose(probe, eta):
    """Split the probe by loss count; see chi_decompose_all."""
    return chi_decompose_all([probe], [eta])[0]


def chi_decompose_all(probes, etas):
    """The ChiDecomposition of every (probe, eta) scenario, probe-major.

    Each holds its eta as given; the branches are computed from its float.

    The factor sqrt(B_eta(l+m, l)) is exp of LOG_BINOM[l, m] + m ln eta
    + l ln(1-eta), the loss matrix's sum in its order; eta 0 and 1 take
    its exact 0/1 entries. Each eta builds one table of factors at the
    largest cutoff, and each probe reads its leading [:s, :s] block: the
    table is elementwise, so a block keeps the bits of a table of its
    own size. It multiplies a read-only Hankel view H[l, m] = c_{l+m}
    of the zero-padded amplitudes, so no kernel is built and no gather
    runs. An eta outside [0, 1] raises ValidationError before any work.
    """
    checked = [_check_eta(eta) for eta in etas]
    hankels = []
    for probe in probes:
        size = probe.cutoff + 1
        # zero amplitudes past the cutoff null the corner l + m > cutoff
        amps = np.append(probe.amplitudes, np.zeros(probe.cutoff))
        hankel = np.ndarray((size, size), complex, amps,
                            strides=amps.strides * 2)
        hankel.flags.writeable = False
        hankels.append(hankel)
    top = max((h.shape[0] for h in hankels), default=0)
    out = [None] * (len(probes) * len(etas))
    for j, (given, eta) in enumerate(zip(etas, checked)):
        if eta in (0.0, 1.0):
            # eta = 0 loses every photon (m = 0), eta = 1 loses none (l = 0)
            root = np.zeros((top, top))
            if eta == 1.0:
                root[0] = 1.0
            else:
                root[:, 0] = 1.0
        else:
            m = np.arange(top)
            root = np.sqrt(np.exp(LOG_BINOM[:top, :top] + m * np.log(eta)
                                  + m[:, None] * np.log1p(-eta)))
        for i, (probe, hankel) in enumerate(zip(probes, hankels)):
            size = hankel.shape[0]
            branches = hankel * root[:size, :size]
            power = np.abs(branches) ** 2
            weights = power.sum(axis=1)
            keep = weights >= 1e-14
            valid = keep[:, None] & (np.add.outer(_K[:size], _K[:size]) < size)
            out[i * len(etas) + j] = ChiDecomposition(
                probe, given, np.flatnonzero(keep).tolist(), weights[keep],
                branches[keep], power[valid])
    return out


def _toeplitz_table(f):
    # Hermitian Toeplitz table F[m, m'] = f(m - m'), with f(-k) = conj(f(k))
    m = np.arange(f.size)
    lag = m[:, None] - m[None, :]
    table = f[np.abs(lag)]
    table[lag < 0] = table[lag < 0].conj()
    return table


def _spectral_entropy(eigs):
    # -sum lambda ln lambda over the values above 1e-14; one below -1e-8
    # means the state itself is broken
    if eigs.min(initial=0.0) < -1e-8:
        raise NumericalError(f"state has eigenvalue {eigs.min()}, below -1e-8")
    return shannon_entropy(eigs[eigs > 1e-14])


def holevo_quantity(decomp, prior):
    """chi = S(rho_bar) - S(rho_IS), from the loss branches alone.

    Every rho_phi is unitarily equivalent to rho_IS, and the branch
    orthonormality makes the spectrum of rho_IS exactly the loss
    distribution, so the subtracted term is the Shannon entropy of q.

    Block l of rho_bar is diag(v) F diag(v)^dagger, v = sqrt(q_l) u_l the
    branch row. Diagonal phase matrices commute with diagonal scalings, so
    it has the spectrum of |v| F |v| (diag |v| on both sides), and no
    state is built:
    - when every harmonic f(1..cutoff) is zero, F = I and the spectrum is
      the populations |v[m]|^2, with no eigendecomposition;
    - a prior symmetric about a centre c has f(k) = e^{ikc} g(k) with g
      real, and stripping e^{ikc} leaves a real symmetric table;
    - any other prior keeps the complex Hermitian table.
    """
    f = prior.fourier_coefficients(decomp.probe.cutoff)
    h_loss = shannon_entropy(decomp.weights)
    if not f[1:].any():
        return _spectral_entropy(decomp.populations) - h_loss
    centre = prior._centre()
    if centre is not None:
        f = (f * np.exp(-1j * np.arange(f.size) * centre)).real
    table = _toeplitz_table(f)
    eigs = []
    for l, v in zip(decomp.loss_counts, np.abs(decomp.branches)):
        a = v[:v.size - l]
        eigs.append(np.linalg.eigvalsh(
            a[:, None] * table[:a.size, :a.size] * a[None, :]))
    return _spectral_entropy(np.concatenate(eigs)) - h_loss
