import math

import numpy as np
import pytest
from scipy.linalg import block_diag, toeplitz
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from phasebound.capacity import (binomial_loss_matrix, capacity_upper_bound_lossy,
                                 shannon_entropy, unrestricted_capacity)
from phasebound.errors import NumericalError, ValidationError
from phasebound import fock
from phasebound.fock import (ProbeSpec, chi_decompose, holevo_quantity,
                             populations)
from phasebound.priors import PhasePrior

from fock_states import (DensityMatrix, average_state, modulated_state,
                         phase_randomize, von_neumann_entropy)

# chi at eta = 0.5 under the uniform prior
CHI_02_UNIFORM = 0.3127515147113673
CHI_02_WG = 0.2946671904491114        # wrapped gaussian mu=pi sigma=0.8
CHI_FLAT4 = 1.012795733073747
CHI_COHERENT1 = 0.9276374674957972
CHI_01 = 0.4773856262211096
# lossless uniform-prior chi of coherent alpha=1 is the Poisson(1) entropy
H_POISSON_1 = 1.3048422422562516
# joint photon/loss entropies for (|0>+|2>)/sqrt2 at eta = 0.5
H_JOINT_02 = 1.2130075659799042
H_LOSS_02 = 0.9002560512685369

PROBE_02 = [2.0**-0.5, 0.0, 2.0**-0.5]
PROBE_01 = [2.0**-0.5, 2.0**-0.5]


def random_probe(rng, cutoff):
    c = rng.standard_normal(cutoff + 1) + 1j * rng.standard_normal(cutoff + 1)
    return ProbeSpec(c / np.linalg.norm(c))


def flat_branch_vectors(decomp):
    """Branch vectors embedded in the joint (m, l) basis, one per column."""
    basis = {}
    for u, l in zip(decomp.vectors, decomp.loss_counts):
        for m in range(u.size):
            basis.setdefault((m, l), len(basis))
    vecs = np.zeros((len(basis), len(decomp)), dtype=complex)
    for col, (u, l) in enumerate(zip(decomp.vectors, decomp.loss_counts)):
        for m, a in enumerate(u):
            vecs[basis[(m, l)], col] = a
    return vecs


def dense_average_state(decomp, prior):
    """Reference for average_state: one dense matrix over the union basis.

    The basis holds the (photon number n, surviving m) pairs that carry
    amplitude; entry (i, j) is scaled by the prior Fourier coefficient of
    order n_i - n_j. Returns (matrix, n per basis element).
    """
    gen, offsets = [], []
    for u, l in zip(decomp.vectors, decomp.loss_counts):
        offsets.append(len(gen))
        gen.extend(np.flatnonzero(u) + l)
    gen = np.array(gen)
    mat = np.zeros((gen.size, gen.size), dtype=complex)
    for off, u, w in zip(offsets, decomp.vectors, decomp.weights):
        v = u[np.flatnonzero(u)]
        sl = slice(off, off + v.size)
        mat[sl, sl] = w * np.outer(v, v.conj())
    f = prior.fourier_coefficients(int(gen.max()))
    table = np.concatenate([f[::-1].conj(), f[1:]])
    mat = mat * table[gen[:, None] - gen[None, :] + (len(f) - 1)]
    return mat, gen


def quadrature_average_state(decomp, prior, grid_size=512):
    """Reference for average_state: rho_phi summed over a grid_size-point
    phase grid with prior weights (renormalized)."""
    phis = np.arange(grid_size) * (2.0 * np.pi / grid_size)
    w = prior.grid_density(grid_size)
    w = w / w.sum()
    acc = [np.zeros((u.size, u.size), dtype=complex) for u in decomp.vectors]
    for phi, weight in zip(phis, w):
        for a, b in zip(acc, modulated_state(decomp, phi).blocks):
            a += weight * b
    return acc


def dense_entropy(mat):
    """Reference for von_neumann_entropy: split the matrix into the
    connected components of its nonzero pattern, then diagonalize each."""
    n_comp, labels = connected_components(csr_matrix(np.abs(mat) > 0.0),
                                          directed=False)
    eigs = []
    for comp in range(n_comp):
        idx = np.flatnonzero(labels == comp)
        eigs.extend(np.linalg.eigvalsh(mat[np.ix_(idx, idx)]))
    lam = np.array(eigs)
    lam = lam[lam > 1e-14]
    return float(-np.sum(lam * np.log(lam)))


def test_probe_families():
    coh = ProbeSpec.coherent(1.0)
    assert abs(coh.mean_photons - 1.0) < 1e-10
    assert abs(coh.probabilities[0] - math.exp(-1.0)) < 1e-12
    assert 8 <= coh.cutoff <= 32

    num = ProbeSpec.number(3)
    assert num.mean_photons == 3.0 and num.photon_variance == 0.0
    assert num.probabilities[-1] == 1.0

    flat = ProbeSpec.flat_superposition(4)
    assert np.abs(flat.probabilities - 0.25).max() < 1e-15
    assert abs(flat.mean_photons - 1.5) < 1e-14
    assert abs(flat.photon_variance - 1.25) < 1e-14

    binom = ProbeSpec.binomial_phase(4)
    assert np.abs(binom.probabilities - np.array([1, 3, 3, 1]) / 8.0).max() < 1e-15
    assert abs(binom.mean_photons - 1.5) < 1e-14
    assert abs(binom.photon_variance - 0.75) < 1e-14

    same = ProbeSpec(PROBE_02)
    assert same.cutoff == 2 and abs(same.mean_photons - 1.0) < 1e-14


def test_probe_validation():
    with pytest.raises(ValidationError):
        ProbeSpec([0.8, 0.8])             # norm off
    with pytest.raises(ValidationError):
        ProbeSpec([])
    with pytest.raises(ValidationError):
        ProbeSpec.number(-1)
    with pytest.raises(ValidationError):
        ProbeSpec.flat_superposition(0)
    with pytest.raises(ValidationError):
        ProbeSpec.binomial_phase(2.5)
    with pytest.raises(ValidationError):
        ProbeSpec.coherent(12.0)          # needs cutoff past the cap
    amps = np.zeros(140)
    amps[0] = 1.0
    with pytest.raises(ValidationError):
        ProbeSpec(amps)


def test_probe_sizes_capped_before_allocation():
    # an uncapped size would ask for ~8e18 bytes before any check
    with pytest.raises(ValidationError):
        ProbeSpec.number(10**18)
    with pytest.raises(ValidationError):
        ProbeSpec.flat_superposition(10**18)
    with pytest.raises(ValidationError):
        ProbeSpec.binomial_phase(2000)
    with pytest.raises(ValidationError):
        ProbeSpec.number(float("inf"))
    assert ProbeSpec.number(128).cutoff == 128
    assert ProbeSpec.binomial_phase(129).cutoff == 128


def test_chi_decompose_weights():
    single = chi_decompose(ProbeSpec.number(1), 0.7)
    assert single.loss_counts == [0, 1]
    assert np.abs(single.weights - [0.7, 0.3]).max() < 1e-15

    d02 = chi_decompose(ProbeSpec(PROBE_02), 0.5)
    assert d02.loss_counts == [0, 1, 2]
    assert np.abs(d02.weights - [0.625, 0.25, 0.125]).max() < 1e-15
    assert abs(d02.weights.sum() - 1.0) < 1e-14

    lossless = chi_decompose(ProbeSpec(PROBE_02), 1.0)
    assert lossless.loss_counts == [0]
    assert abs(lossless.weights[0] - 1.0) < 1e-14

    opaque = chi_decompose(ProbeSpec(PROBE_02), 0.0)
    assert opaque.loss_counts == [0, 2]   # the n=1 branch carries no mass
    assert np.abs(opaque.weights - [0.5, 0.5]).max() < 1e-15

    with pytest.raises(ValidationError):
        chi_decompose(ProbeSpec(PROBE_02), 1.2)


def test_chi_branches_orthonormal():
    rng = np.random.default_rng(7)
    cases = [chi_decompose(ProbeSpec(PROBE_02), 0.5)]
    cases += [chi_decompose(random_probe(rng, 12), eta)
              for eta in [0.3, 0.5, 0.8] for _ in range(3)]
    for decomp in cases:
        vecs = flat_branch_vectors(decomp)
        gram = vecs.conj().T @ vecs
        assert np.abs(gram - np.eye(len(decomp))).max() < 1e-12


def test_modulated_state_matches_hand_assembly():
    decomp = chi_decompose(ProbeSpec(PROBE_02), 0.5)
    phi = 0.7
    vecs = flat_branch_vectors(decomp)
    state = modulated_state(decomp, phi)
    # element m of branch l carries photon number m + l
    ns = np.concatenate([np.arange(u.size) + l for u, l
                         in zip(decomp.vectors, decomp.loss_counts)])
    phase = np.exp(1j * ns * phi)
    expected = np.zeros((ns.size, ns.size), dtype=complex)
    for col, w in enumerate(decomp.weights):
        v = phase * vecs[:, col]
        expected += w * np.outer(v, v.conj())
    dense = block_diag(*state.blocks)
    assert np.abs(dense - expected).max() < 1e-14
    assert abs(np.trace(dense).real - 1.0) < 1e-12


def test_number_probe_is_phase_invariant():
    decomp = chi_decompose(ProbeSpec.number(3), 0.6)
    a = modulated_state(decomp, 0.0)
    b = modulated_state(decomp, 2.1)
    for x, y in zip(a.blocks, b.blocks):
        assert np.abs(x - y).max() < 1e-15


def test_reduced_signal_keeps_loss_record_coherence():
    # the loss record, not the photon number, labels the environment, so
    # the no-loss branch keeps c_0 c_2^* eta e^{-2i phi}; the diagonal is
    # the post-loss photon-number distribution
    decomp = chi_decompose(ProbeSpec(PROBE_02), 0.3)
    red = np.zeros((3, 3), dtype=complex)
    for b in modulated_state(decomp, 1.3).blocks:
        red[:b.shape[0], :b.shape[0]] += b
    assert abs(red[0, 2] - 0.15 * np.exp(-2.6j)) < 1e-14
    assert abs(abs(red[0, 2]) - 0.15) < 1e-14
    expect = [0.5 + 0.5 * 0.49, 0.5 * 2 * 0.3 * 0.7, 0.5 * 0.09]
    assert np.abs(np.diag(red) - expect).max() < 1e-14
    assert red[0, 1] == 0.0 and red[1, 2] == 0.0


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        DensityMatrix([np.array([[0.5, 0.5], [0.0, 0.5]])])
    with pytest.raises(ValidationError):
        DensityMatrix([np.eye(2) / 2.0, np.eye(2) / 2.0])   # trace 2
    with pytest.raises(ValidationError):
        DensityMatrix([np.full((1, 2), 0.5)])               # not square


def test_average_state_uniform_dephases():
    decomp = chi_decompose(ProbeSpec(PROBE_02), 0.5)
    avg = average_state(decomp, PhasePrior.uniform())
    randomized = phase_randomize(modulated_state(decomp, 0.0))
    for a, b in zip(avg.blocks, randomized.blocks):
        assert np.abs(a - b).max() < 1e-14
    # diagonal holds the joint (photon, loss) masses, keyed by (l, m)
    joint = {(l, 2 - l): 0.5 * w for l, w in zip([0, 1, 2], [0.25, 0.5, 0.25])}
    joint[(0, 0)] = 0.5
    assert decomp.loss_counts == [0, 1, 2]
    for l, block in zip(decomp.loss_counts, avg.blocks):
        for m in range(block.shape[0]):
            assert abs(block[m, m].real - joint.get((l, m), 0.0)) < 1e-14


def test_average_state_window_coherence():
    # width-pi window keeps |F_1| = 2/pi of each one-step coherence
    decomp = chi_decompose(ProbeSpec(PROBE_01), 1.0)
    avg = average_state(decomp, PhasePrior.uniform(width=math.pi))
    off = abs(avg.blocks[0][0, 1])
    assert abs(off - 1.0 / math.pi) < 1e-15


def test_average_state_quadrature_cross_check():
    prior = PhasePrior.wrapped_gaussian(math.pi, 0.8)
    decomp = chi_decompose(ProbeSpec(PROBE_02), 0.5)
    a = average_state(decomp, prior)
    b = quadrature_average_state(decomp, prior)
    for x, y in zip(a.blocks, b):
        assert np.abs(x - y).max() < 1e-12
    # complex amplitudes and complex Fourier coefficients fix the sign
    # convention of the Toeplitz table
    decomp = chi_decompose(random_probe(np.random.default_rng(4), 8), 0.6)
    skewed = PhasePrior.wrapped_gaussian(2.0, 0.8)
    a = average_state(decomp, skewed)
    b = quadrature_average_state(decomp, skewed)
    for x, y in zip(a.blocks, b):
        assert np.abs(x - y).max() < 1e-12


def test_toeplitz_table_is_scipy_toeplitz():
    # the table holevo_quantity scales its blocks by: complex coefficients
    # of an off-centre wrapped Gaussian, conjugated above the diagonal, and
    # the real ones left once its centre is stripped
    f = PhasePrior.wrapped_gaussian(2.0, 0.3).fourier_coefficients(40)
    assert np.abs(f.imag).max() > 0.1
    assert np.array_equal(fock._toeplitz_table(f), toeplitz(f))
    g = (f * np.exp(-2j * np.arange(f.size))).real
    assert np.array_equal(fock._toeplitz_table(g), toeplitz(g))


def test_phase_randomize_keeps_block_diagonals():
    # photon numbers within a block are distinct, so every in-block
    # coherence goes and every diagonal entry stays
    v = np.array([0.6, 0.48])
    rho = DensityMatrix([np.outer(v, v), [[0.64 ** 2]]])
    out = phase_randomize(rho)
    assert out.blocks[0][0, 1] == 0.0 and out.blocks[0][1, 0] == 0.0
    assert np.array_equal(np.diag(out.blocks[0]), v ** 2)
    assert out.blocks[1][0, 0] == 0.64 ** 2


def test_von_neumann_entropy_basics():
    pure = DensityMatrix([np.full((2, 2), 0.5)])
    assert abs(von_neumann_entropy(pure)) < 1e-12
    mixed = DensityMatrix([np.eye(2) / 4.0, np.eye(2) / 4.0])
    assert abs(von_neumann_entropy(mixed) - math.log(4.0)) < 1e-14

    bad = DensityMatrix([np.diag([1.5, -0.5])])
    with pytest.raises(NumericalError):
        von_neumann_entropy(bad)


def test_randomizing_never_lowers_entropy():
    rng = np.random.default_rng(3)
    prior = PhasePrior.wrapped_gaussian(2.0, 0.5)
    for eta in [0.4, 0.8]:
        for _ in range(4):
            decomp = chi_decompose(random_probe(rng, 10), eta)
            avg = average_state(decomp, prior)
            assert (von_neumann_entropy(phase_randomize(avg))
                    >= von_neumann_entropy(avg) - 1e-10)


@pytest.mark.parametrize("cutoff", [12, 25, 40])
def test_block_states_match_dense_oracle(cutoff):
    rng = np.random.default_rng(cutoff)
    probe = random_probe(rng, cutoff)
    priors = [PhasePrior.uniform(), PhasePrior.uniform(center=1.0,
                                                      width=math.pi),
              PhasePrior.wrapped_gaussian(2.0, 0.5)]
    for eta in [0.0, 0.3, 0.8, 1.0]:
        decomp = chi_decompose(probe, eta)
        h_loss = shannon_entropy(decomp.weights)
        for prior in priors:
            mat, gen = dense_average_state(decomp, prior)
            case = (cutoff, eta, prior.kind)
            chi = holevo_quantity(decomp, prior)
            assert abs(chi - (dense_entropy(mat) - h_loss)) < 1e-10, case
            dephased = np.where(gen[:, None] == gen[None, :], mat, 0.0)
            s_deph = von_neumann_entropy(
                phase_randomize(average_state(decomp, prior)))
            assert abs(s_deph - dense_entropy(dephased)) < 1e-10, case


def vonmises_prior(mu, kappa, n=2048):
    phi = np.arange(n) * (2.0 * np.pi / n)
    vals = np.exp(kappa * np.cos(phi - mu))
    return PhasePrior.tabulated(vals / (vals.sum() * (2.0 * np.pi / n)))


@pytest.mark.parametrize("cutoff", [12, 40, 128])
def test_holevo_matches_averaged_state_route(cutoff):
    # chi from |u|-scaled blocks (or the populations alone) against the
    # entropy of the built prior-averaged state
    rng = np.random.default_rng(100 + cutoff)
    probe = random_probe(rng, cutoff)
    priors = [PhasePrior.uniform(),
              PhasePrior.uniform(center=1.0, width=math.pi),
              PhasePrior.wrapped_gaussian(2.0, 0.5),
              vonmises_prior(2.5, 3.0)]
    for eta in [0.0, 0.3, 0.8, 1.0]:
        decomp = chi_decompose(probe, eta)
        h_loss = shannon_entropy(decomp.weights)
        for prior in priors:
            old = von_neumann_entropy(average_state(decomp, prior)) - h_loss
            chi = holevo_quantity(decomp, prior)
            assert abs(chi - old) < 1e-12, (cutoff, eta, prior)


def test_holevo_full_circle_needs_no_eigendecomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    uniform = PhasePrior.uniform()
    d02 = chi_decompose(ProbeSpec(PROBE_02), 0.5)
    assert abs(holevo_quantity(d02, uniform) - CHI_02_UNIFORM) < 1e-12
    # chi skips populations at or below 1e-14, which the plain Shannon
    # entropy keeps: ~1e-11 nats at cutoff 128
    decomp = chi_decompose(random_probe(np.random.default_rng(5), 128), 0.7)
    chi = holevo_quantity(decomp, PhasePrior.uniform(center=0.4))
    assert abs(chi - (shannon_entropy(populations(decomp))
                      - shannon_entropy(decomp.weights))) < 1e-10
    with pytest.raises(AssertionError, match="eigvalsh"):
        holevo_quantity(d02, PhasePrior.uniform(width=6.0))


def test_holevo_centred_priors_use_real_blocks(monkeypatch):
    # priors with a centre strip e^{ikc} and hand eigvalsh real blocks;
    # a tabulated prior keeps the complex Hermitian table
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def record(a, *args, **kwargs):
        seen.append(np.iscomplexobj(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", record)
    decomp = chi_decompose(random_probe(np.random.default_rng(6), 20), 0.6)
    for prior, complex_blocks in [
            (PhasePrior.uniform(center=1.0, width=math.pi), False),
            (PhasePrior.wrapped_gaussian(2.0, 0.5), False),
            (vonmises_prior(2.5, 3.0), True)]:
        seen.clear()
        holevo_quantity(decomp, prior)
        assert seen and set(seen) == {complex_blocks}, prior


def test_holevo_frozen_values():
    uniform = PhasePrior.uniform()
    d02 = chi_decompose(ProbeSpec(PROBE_02), 0.5)
    assert abs(holevo_quantity(d02, uniform) - CHI_02_UNIFORM) < 1e-9
    wg = PhasePrior.wrapped_gaussian(math.pi, 0.8)
    assert abs(holevo_quantity(d02, wg) - CHI_02_WG) < 1e-9

    cases = [(ProbeSpec.flat_superposition(4), CHI_FLAT4),
             (ProbeSpec.coherent(1.0), CHI_COHERENT1),
             (ProbeSpec(PROBE_01), CHI_01)]
    for probe, expected in cases:
        chi = holevo_quantity(chi_decompose(probe, 0.5), uniform)
        assert abs(chi - expected) < 1e-9


def test_holevo_lossless_uniform_is_number_entropy():
    uniform = PhasePrior.uniform()
    flat4 = chi_decompose(ProbeSpec.flat_superposition(4), 1.0)
    assert abs(holevo_quantity(flat4, uniform) - math.log(4.0)) < 1e-12
    coh = chi_decompose(ProbeSpec.coherent(1.0), 1.0)
    assert abs(holevo_quantity(coh, uniform) - H_POISSON_1) < 1e-9


def test_holevo_point_mass_prior_vanishes():
    spike = PhasePrior.uniform(center=1.0, width=1e-8)
    chi = holevo_quantity(chi_decompose(ProbeSpec(PROBE_02), 0.5), spike)
    assert abs(chi) < 1e-9


def test_dephased_entropy_is_joint_photon_loss_entropy():
    uniform = PhasePrior.uniform()
    decomp = chi_decompose(ProbeSpec(PROBE_02), 0.5)
    avg = average_state(decomp, uniform)
    s_deph = von_neumann_entropy(phase_randomize(avg))
    assert abs(s_deph - H_JOINT_02) < 1e-10
    assert abs(shannon_entropy(decomp.weights) - H_LOSS_02) < 1e-12

    # same identity for a generic probe against direct summation
    rng = np.random.default_rng(19)
    probe = random_probe(rng, 12)
    eta = 0.3
    decomp = chi_decompose(probe, eta)
    avg = average_state(decomp, uniform)
    joint = probe.probabilities[:, None] * binomial_loss_matrix(probe.cutoff, eta)
    direct = shannon_entropy(joint[joint > 0.0])
    s_deph = von_neumann_entropy(phase_randomize(avg))
    assert abs(s_deph - direct) < 1e-8
    # dephasing can only raise entropy, so chi obeys the sandwich
    chi = holevo_quantity(decomp, uniform)
    assert chi <= s_deph - shannon_entropy(decomp.weights) + 1e-8


def test_holevo_respects_capacity_bounds():
    uniform = PhasePrior.uniform()
    probes = [ProbeSpec.flat_superposition(4), ProbeSpec.coherent(1.0),
              ProbeSpec.binomial_phase(5)]
    for probe in probes:
        chi = holevo_quantity(chi_decompose(probe, 1.0), uniform)
        assert chi <= unrestricted_capacity(probe.mean_photons) + 1e-8
        for eta in [0.3, 0.5, 0.8]:
            chi = holevo_quantity(chi_decompose(probe, eta), uniform)
            cap = capacity_upper_bound_lossy(probe.mean_photons, eta)
            assert chi <= cap + 1e-8
