"""The loss-branch array against per-branch oracles.

chi_decompose_all builds every branch of a command's scenarios at once,
and the window, the populations and the Holevo blocks read that one
array. The oracles below take the branches one loss count at a time: a
slice of the loss matrix per branch, one np.correlate per branch for the
window coefficients, and q-scaled unit vectors for the populations and
the Holevo blocks. Three whole-array oracles pin bits: the full loss
matrix gathered at [l + m, l] and a factor table of each scenario's own
size pin the branches, and the window's fold of every lag into its bin
pins the window.
"""

import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from phasebound import estimation, fock
from phasebound.capacity import binomial_loss_matrix, shannon_entropy
from phasebound.errors import ValidationError
from phasebound.fock import ProbeSpec, chi_decompose, holevo_quantity
from phasebound.priors import PhasePrior

import fock_states
from fock_states import folded_window
from test_fock import random_probe, vonmises_prior

ETAS = [0.0, 1e-12, 0.3, 0.9, 1.0]
EPS = np.finfo(float).eps


def loop_decompose(probe, eta):
    """(loss counts, weights q_l, unit vectors u_l), one branch at a time."""
    kern = binomial_loss_matrix(probe.cutoff, eta)
    counts, weights, vectors = [], [], []
    for l in range(probe.cutoff + 1):
        v = probe.amplitudes[l:] * np.sqrt(kern[l:, l])
        q = (np.abs(v) ** 2).sum()
        if q >= 1e-14:
            counts.append(l)
            weights.append(q)
            vectors.append(v / np.sqrt(q))
    return counts, np.array(weights), vectors


def gather_decompose(probe, eta):
    """(loss counts, weights, branches) gathered from the loss matrix.

    The whole (cutoff+1)^2 kernel K[n, l] is built, then read at
    [min(l + m, cutoff), l]; zero amplitudes past the cutoff null the
    corner l + m > cutoff.
    """
    kern = binomial_loss_matrix(probe.cutoff, eta)
    l = np.arange(probe.cutoff + 1)[:, None]
    n = l + l.T
    amps = np.append(probe.amplitudes, np.zeros(probe.cutoff))
    branches = amps[n] * np.sqrt(kern[np.minimum(n, probe.cutoff), l])
    weights = (np.abs(branches) ** 2).sum(axis=1)
    keep = weights >= 1e-14
    return np.flatnonzero(keep).tolist(), weights[keep], branches[keep]


def scenario_decompose(probe, eta):
    """(loss counts, weights, branches) of one (probe, eta) on its own.

    A factor table of the probe's own size, sqrt(exp(LOG_BINOM + m ln eta
    + l ln(1-eta))) or the exact 0/1 table at eta 0 and 1, multiplies an
    as_strided Hankel view of the zero-padded amplitudes.
    """
    size = probe.cutoff + 1
    if eta in (0.0, 1.0):
        root = np.zeros((size, size))
        if eta == 1.0:
            root[0] = 1.0
        else:
            root[:, 0] = 1.0
    else:
        m = np.arange(size)
        root = np.sqrt(np.exp(fock.LOG_BINOM[:size, :size] + m * np.log(eta)
                              + m[:, None] * np.log1p(-eta)))
    amps = np.append(probe.amplitudes, np.zeros(probe.cutoff))
    hankel = as_strided(amps, (size, size), amps.strides * 2, writeable=False)
    branches = hankel * root
    weights = (np.abs(branches) ** 2).sum(axis=1)
    keep = weights >= 1e-14
    return np.flatnonzero(keep).tolist(), weights[keep], branches[keep]


def assert_same_bits(got, ref, case):
    assert np.array_equal(got, ref), case
    # array_equal counts -0.0 == 0.0; the signs must match too
    assert np.array_equal(np.signbit(np.asarray(got).view(float)),
                          np.signbit(np.asarray(ref).view(float))), case


def correlate_coefficients(weights, vectors, cutoff):
    """C_d = sum_l q_l sum_m u_l[m+d] conj(u_l[m]), d = 0..cutoff."""
    diags = np.zeros(cutoff + 1, dtype=complex)
    for q, u in zip(weights, vectors):
        diags[:u.size] += q * np.correlate(u, u, "full")[u.size - 1:]
    return diags


def loop_populations(weights, vectors):
    return np.concatenate([q * np.abs(u) ** 2 for q, u in zip(weights, vectors)])


def loop_holevo(weights, vectors, prior, cutoff):
    """chi from the blocks q_l diag|u_l| F diag|u_l|, one per branch."""
    f = prior.fourier_coefficients(cutoff)
    h_loss = shannon_entropy(weights)
    if not f[1:].any():
        return fock._spectral_entropy(loop_populations(weights, vectors)) - h_loss
    centre = prior._centre()
    if centre is not None:
        f = (f * np.exp(-1j * np.arange(f.size) * centre)).real
    table = fock._toeplitz_table(f)
    eigs = [np.linalg.eigvalsh(q * np.abs(u)[:, None] * table[:u.size, :u.size]
                               * np.abs(u)[None, :])
            for q, u in zip(weights, vectors)]
    return fock._spectral_entropy(np.concatenate(eigs)) - h_loss


def window_coefficients(decomp, monkeypatch):
    """C_0..C_cutoff as _window hands them to its FFT.

    A 512-point lattice exceeds 2 * cutoff + 1 for every cutoff up to
    the cap, so no coefficient folds onto another and bin d holds C_d.
    """
    seen = []
    hfft = np.fft.hfft

    def spy(a, *args, **kwargs):
        seen.append(np.array(a))
        return hfft(a, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np.fft, "hfft", spy)
        estimation._window(decomp, 512)
    return seen[0][:decomp.probe.cutoff + 1]


PROBES = {
    "coherent-1": lambda: ProbeSpec.coherent(1.0),
    "coherent-6": lambda: ProbeSpec.coherent(6.0),
    "coherent-complex": lambda: ProbeSpec.coherent(1.5 - 2.0j),
    "number-40": lambda: ProbeSpec.number(40),
    "flat-4": lambda: ProbeSpec.flat_superposition(4),
    "binomial-61": lambda: ProbeSpec.binomial_phase(61),
    "opaque-02": lambda: ProbeSpec([2.0 ** -0.5, 0.0, 2.0 ** -0.5]),
}
PROBES.update({f"random-{c}": (lambda c=c: random_probe(
    np.random.default_rng(300 + c), c)) for c in [0, 1, 14, 86, 128]})


GATHER_PROBES = dict(PROBES, **{
    "number-128": lambda: ProbeSpec.number(128),
    "flat-129": lambda: ProbeSpec.flat_superposition(129),
    "random-128b": lambda: random_probe(np.random.default_rng(7), 128)})


@pytest.mark.parametrize("name", sorted(GATHER_PROBES))
def test_branch_array_is_bit_identical_to_kernel_gather(name):
    probe = GATHER_PROBES[name]()
    for eta in [0.0, 1e-300, 1e-12, 0.3, 0.9, 1.0 - 1e-16, 1.0]:
        case = (name, eta)
        decomp = chi_decompose(probe, eta)
        counts, weights, branches = gather_decompose(probe, eta)
        assert decomp.loss_counts == counts, case
        assert np.array_equal(decomp.weights, weights), case
        assert_same_bits(decomp.branches, branches, case)


# one probe per cutoff, the largest not first: every other probe reads a
# block of the cutoff-128 table
ALL_CUTOFFS = [3, 128, 0, 61]
ALL_ETAS = [0.0, 0.3, 0.9, 1.0]


def all_probes():
    return [random_probe(np.random.default_rng(500 + c), c)
            for c in ALL_CUTOFFS]


def test_decompose_all_is_bit_identical_to_each_scenario_alone():
    probes = all_probes()
    decomps = fock.chi_decompose_all(probes, ALL_ETAS)
    # probe-major: every eta of the first probe, then the next probe
    pairs = [(p, eta) for p in probes for eta in ALL_ETAS]
    assert [(d.probe, d.eta) for d in decomps] == pairs
    for (probe, eta), decomp in zip(pairs, decomps):
        case = (probe.cutoff, eta)
        assert decomp.probe is probe and decomp.eta == eta, case
        counts, weights, branches = scenario_decompose(probe, eta)
        assert decomp.loss_counts == counts, case
        assert_same_bits(decomp.weights, weights, case)
        assert_same_bits(decomp.branches, branches, case)
        single = chi_decompose(probe, eta)
        assert single.loss_counts == counts, case
        assert_same_bits(single.branches, branches, case)


def test_decompose_all_edges():
    assert fock.chi_decompose_all([], [0.5]) == []
    assert fock.chi_decompose_all(all_probes(), []) == []
    # each decomposition holds its eta as given; the branches come from
    # its float
    (decomp,) = fock.chi_decompose_all([ProbeSpec.number(2)], [1])
    assert type(decomp.eta) is int and decomp.eta == 1
    assert_same_bits(decomp.branches,
                     chi_decompose(ProbeSpec.number(2), 1.0).branches, 1)
    # a bad eta raises before any probe is read: these are not probes
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(ValidationError,
                           match=r"^transmittance must lie in \[0, 1\], got "):
            fock.chi_decompose_all([object(), None], [0.5, bad])


def test_populations_are_bit_identical_to_the_branch_squares():
    # the populations are cut from the |V|^2 that gives the weights: the
    # entries of the kept rows with l + m <= cutoff, in (l, m) order
    for decomp in fock.chi_decompose_all(all_probes(), ALL_ETAS):
        size = decomp.probe.cutoff + 1
        valid = np.add.outer(decomp.loss_counts, np.arange(size)) < size
        assert_same_bits(decomp.populations,
                         (np.abs(decomp.branches) ** 2)[valid],
                         (decomp.probe.cutoff, decomp.eta))


def test_window_is_bit_identical_to_folding_every_lag():
    # the window writes the half spectrum directly on lattices of at
    # least 2 * cutoff points; at exactly 2 * cutoff (such as 256 at
    # cutoff 128) C_cutoff and C_-cutoff share the Nyquist bin
    for decomp in fock.chi_decompose_all(all_probes(), ALL_ETAS):
        for lattice in (4, 8, 256, 512, 2048):
            if lattice < 2 * decomp.probe.cutoff:
                continue   # below the window's precondition
            case = (decomp.probe.cutoff, decomp.eta, lattice)
            assert_same_bits(estimation._window(decomp, lattice),
                             folded_window(decomp, lattice), case)


@pytest.mark.parametrize("name", sorted(PROBES))
def test_branch_array_matches_per_branch_oracles(name, monkeypatch):
    probe = PROBES[name]()
    for eta in ETAS:
        case = (name, eta)
        decomp = chi_decompose(probe, eta)
        counts, weights, vectors = loop_decompose(probe, eta)
        assert decomp.loss_counts == counts, case
        assert np.all(np.abs(decomp.weights - weights) <= 1e-15 * weights), case
        for u, ref in zip(fock_states.vectors(decomp), vectors):
            assert u.size == ref.size and np.abs(u - ref).max() <= 1e-15, case
        coeffs = correlate_coefficients(weights, vectors, probe.cutoff)
        assert np.abs(window_coefficients(decomp, monkeypatch)
                      - coeffs).max() <= 1e-14, case
        # q |u|^2 takes a sqrt, a division, a square and a product past
        # |V|^2, each rounding to half an ulp; squaring doubles the first
        # two. The floor covers subnormal populations, which keep fewer bits
        pops = decomp.populations
        ref = loop_populations(weights, vectors)
        assert pops.shape == ref.shape, case
        assert np.all(np.abs(pops - ref)
                      <= 8 * EPS * np.maximum(ref, 1e-300)), case


@pytest.mark.parametrize("name", sorted(PROBES))
def test_holevo_blocks_match_per_branch_oracle(name):
    # one prior per route: populations only, real centred blocks, complex
    # tabulated blocks
    probe = PROBES[name]()
    priors = [PhasePrior.uniform(), PhasePrior.uniform(center=1.0, width=math.pi),
              PhasePrior.wrapped_gaussian(2.0, 0.5), vonmises_prior(2.5, 3.0)]
    for eta in ETAS:
        decomp = chi_decompose(probe, eta)
        _, weights, vectors = loop_decompose(probe, eta)
        for prior in priors:
            ref = loop_holevo(weights, vectors, prior, probe.cutoff)
            assert abs(holevo_quantity(decomp, prior) - ref) <= 1e-12, \
                (name, eta, prior)


def test_branch_array_layout():
    # (|0> + |2>)/sqrt2 fully lost: the n = 1 branch carries no mass and
    # is dropped, and each kept row starts at surviving count m = 0
    opaque = chi_decompose(PROBES["opaque-02"](), 0.0)
    assert opaque.loss_counts == [0, 2]
    assert opaque.branches.shape == (2, 3)
    expected = [[2.0 ** -0.5, 0.0, 0.0], [2.0 ** -0.5, 0.0, 0.0]]
    assert np.abs(opaque.branches - expected).max() <= 1e-16
    # V[l, m] = c_{l+m} sqrt(B_eta(l+m, l)), zero past the cutoff
    probe = random_probe(np.random.default_rng(3), 9)
    decomp = chi_decompose(probe, 0.4)
    kern = binomial_loss_matrix(9, 0.4)
    for i, l in enumerate(decomp.loss_counts):
        row = decomp.branches[i]
        assert np.array_equal(row[:10 - l],
                              probe.amplitudes[l:] * np.sqrt(kern[l:, l]))
        assert not row[10 - l:].any()


def sequential_coherent(alpha):
    """The coherent amplitudes with the tail mass re-summed per term."""
    ns = abs(alpha) ** 2
    logp = [-ns]

    def total():
        acc = 0.0   # left to right, as the builtin sum adds floats
        for v in logp:
            acc += math.exp(v)
        return acc

    while total() < 1.0 - fock.TAIL_MASS:
        n = len(logp)
        logp.append(-ns + n * math.log(ns) - math.lgamma(n + 1.0))
    p = np.exp(logp)
    return np.sqrt(p / p.sum()) * np.exp(1j * np.angle(alpha) * np.arange(len(p)))


@pytest.mark.parametrize("alpha", [1e-3, 0.5, 1.0, 2.0, 6.0, 8.0, 1.5 - 2.0j])
def test_coherent_running_total_is_bit_exact(alpha):
    got = ProbeSpec.coherent(alpha)
    ref = ProbeSpec(sequential_coherent(complex(alpha)))
    assert got.cutoff == ref.cutoff
    assert np.array_equal(got.amplitudes, ref.amplitudes)
