"""Cross-checks between the analytic bounds and the simulator.

Every check is named and reports its worst margin: the smallest slack,
after tolerance, over all inequalities it tested. A negative margin
means a genuine violation and `verify` exits nonzero.

Each (probe, eta) scenario is evaluated once, one decomposition, Holevo
quantity and MMSE run, and handed to every check that reads it. Bound,
capacity and estimation functions are looked up through their modules at
call time, not imported as bare names, so a monkeypatched or corrupted
bound is caught rather than silently bypassed.
"""

import numpy as np

from . import bounds
from . import capacity
from . import estimation
from . import fock
from . import rate_distortion
from .errors import ValidationError
from .estimation import SimGrid
from .fock import ProbeSpec
from .priors import TWO_PI, PhasePrior

__all__ = ["CheckResult", "VerificationReport", "run_verification"]


class CheckResult:
    def __init__(self, name, margin, details=None):
        self.name = name
        self.margin = float(margin)
        self.details = list(details or [])

    @property
    def passed(self):
        return self.margin >= 0.0

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} margin={self.margin:+.3e}"


class VerificationReport:
    def __init__(self, results):
        self.results = list(results)

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def failures(self):
        return [r for r in self.results if not r.passed]

    def lines(self):
        out = [r.line() for r in self.results]
        for r in self.failures():
            out.extend(f"  {d}" for d in r.details)
        verdict = "OK" if self.passed else \
            f"{len(self.failures())} check(s) failed"
        out.append(f"verify: {verdict}")
        return out


def _track(violations, margin, best, text):
    if margin < best[0]:
        best[0] = margin
    if margin < 0.0:
        violations.append(f"{text} (margin {margin:+.3e})")


def _name(obj):
    return str(obj.descriptor())


def _check_prior_properties(priors):
    best = [np.inf]
    bad = []
    for prior in priors:
        norm = prior.normalization()
        _track(bad, 1e-8 - abs(norm - 1.0), best,
               f"{_name(prior)}: density integrates to {norm!r}, not 1")
        _track(bad, prior.variance() - prior.entropy_power() + 1e-12, best,
               f"{_name(prior)}: entropy power exceeds the variance")
        _track(bad, prior.max_density() - 1.0 / TWO_PI + 1e-12, best,
               f"{_name(prior)}: peak density below the uniform floor")
    return CheckResult("prior-entropy-power-and-normalization", best[0], bad)


def _check_capacity_shape():
    best = [np.inf]
    bad = []
    ns = np.linspace(0.0, 20.0, 81)
    c = np.array([capacity.unrestricted_capacity(n) for n in ns])
    _track(bad, float(np.diff(c).min()), best,
           "unrestricted capacity is not increasing")
    _track(bad, 1e-12 - float(np.diff(c, 2).max()), best,
           "unrestricted capacity is not concave")
    for eta in (0.3, 0.7):
        kern = capacity.binomial_loss_matrix(40, eta)
        rows = float(np.abs(kern.sum(axis=1) - 1.0).max())
        _track(bad, 1e-12 - rows, best,
               f"loss matrix rows at eta={eta} sum off by {rows:.2e}")
    return CheckResult("capacity-monotone-concave-and-stochastic", best[0], bad)


def _check_entropy_gain(seed):
    # the loss channel can shed at most ln(1/(1-eta)) nats
    rng = np.random.default_rng(seed)
    best = [np.inf]
    bad = []
    for trial in range(40):
        p = rng.random(rng.integers(2, 41))
        p /= p.sum()
        for eta in (0.1, 0.5, 0.9):
            gain = capacity.entropy_gain(p, eta)
            _track(bad, gain - np.log(1.0 - eta) + 1e-9, best,
                   f"trial {trial}, eta={eta}: entropy gain {gain:.6f} "
                   f"below ln(1-eta)")
    return CheckResult("loss-entropy-gain-floor", best[0], bad)


def _check_shannon_pair(priors):
    best = [np.inf]
    bad = []
    for prior in priors:
        q = prior.entropy_power()
        for frac in (1e-6, 1e-3, 0.1, 0.5, 1.0):
            d = frac * q
            r = rate_distortion.shannon_lb_rate(q, d)
            back = rate_distortion.shannon_lb_distortion(q, r)
            _track(bad, 1e-9 - abs(back - d) / d, best,
                   f"{_name(prior)}: R(D) and D(R) fail to invert at "
                   f"D={d:.3e}")
    return CheckResult("shannon-bound-inversion", best[0], bad)


def _check_rate_distortion(prior, grid_size, slopes):
    best = [np.inf]
    bad = []
    curve = rate_distortion.rd_curve(prior, grid_size, slopes)
    try:
        curve.check_invariants()
    except ValidationError as exc:
        _track(bad, -1.0, best, f"curve invariants: {exc}")
    _, masses = rate_distortion.discretize_prior(prior, grid_size)
    q = rate_distortion.discrete_entropy_power(masses, TWO_PI / grid_size)
    slack = 0.2 * 128.0 / grid_size  # discretization gap shrinks like 1/K
    for dist, rate, slope in zip(curve.distortions(), curve.rates(),
                                 curve.slope_values):
        lb = rate_distortion.shannon_lb_rate(q, dist)
        _track(bad, rate - lb + slack, best,
               f"slope {slope}: rate {rate:.4f} below the Shannon "
               f"bound {lb:.4f}")
    # every point must carry a certified Blahut gap
    tol = rate_distortion.BA_TOL
    for gap, slope in zip(curve.gaps, curve.slope_values):
        _track(bad, tol - gap, best,
               f"slope {slope}: swept point has Blahut gap {gap:.2e}")
    # the solver descends R + s*D, not R alone
    d = rate_distortion.grid_distortion(grid_size)
    for slope in (min(slopes), max(slopes)):
        point = rate_distortion.blahut_arimoto_point(masses, d, slope)
        _track(bad, tol - point.gap, best,
               f"slope {slope}: cold point has Blahut gap {point.gap:.2e}")
        lag = point.lagrangian_history()
        if len(lag) > 1:
            worst = float(np.diff(lag).max())
            _track(bad, 1e-12 - worst, best,
                   f"slope {slope}: Lagrangian rose by {worst:.2e}")
    return CheckResult("rate-curve-above-shannon-bound", best[0], bad)


def _check_branch_orthonormality(decomps):
    # the loss record separates branches of different counts, so each
    # count must carry one branch of unit norm
    best = [np.inf]
    bad = []
    for decomp in decomps:
        tag = f"{_name(decomp.probe)} eta={decomp.eta}"
        if len(set(decomp.loss_counts)) != len(decomp):
            _track(bad, -1.0, best, f"{tag}: two branches share a loss count")
        err = max(abs(np.vdot(u, u).real - 1.0) for u in decomp.vectors)
        _track(bad, 1e-10 - err, best, f"{tag}: branch norm error {err:.2e}")
    return CheckResult("environment-branch-orthonormality", best[0], bad)


def _scenarios(probes, etas, prior, grid):
    """(probe, eta, decomposition, Holevo quantity, MMSE run) per pair."""
    out = []
    for probe in probes:
        for eta in etas:
            decomp = fock.chi_decompose(probe, eta)
            out.append((probe, eta, decomp, fock.holevo_quantity(decomp, prior),
                        estimation.bayesian_mmse(probe, eta, prior, grid)))
    return out


def _check_holevo_chain(scenarios):
    best = [np.inf]
    bad = []
    for probe, eta, decomp, chi, _ in scenarios:
        tag = f"{_name(probe)} eta={eta}"
        _track(bad, chi + 1e-10, best,
               f"{tag}: Holevo quantity negative ({chi:.3e})")
        # the dephased average keeps the block diagonals q_l |u_l[m]|^2
        # (f(0) = 1 for every prior), so its entropy is a Shannon entropy
        gap = (capacity.shannon_entropy(fock.populations(decomp))
               - capacity.shannon_entropy(decomp.weights))
        _track(bad, gap - chi + 1e-8, best,
               f"{tag}: dephasing chain {gap:.6f} below the Holevo "
               f"quantity {chi:.6f}")
        if eta >= 1.0:
            cap = capacity.unrestricted_capacity(probe.mean_photons)
        elif eta <= 0.0:
            cap = 0.0
        else:
            cap = capacity.capacity_upper_bound_lossy(probe.mean_photons, eta)
        _track(bad, cap - gap + 1e-8, best,
               f"{tag}: chain value {gap:.6f} above the capacity "
               f"ceiling {cap:.6f}")
    return CheckResult("holevo-capacity-chain", best[0], bad)


def _check_mse_floor(scenarios, prior):
    best = [np.inf]
    bad = []
    for probe, eta, _, chi, sim in scenarios:
        tag = f"{_name(probe)} eta={eta}"
        info = sim.mutual_information
        _track(bad, chi - info + 1e-6, best,
               f"{tag}: measured information {info:.6f} exceeds the "
               f"Holevo quantity {chi:.6f}")
        floor = prior.entropy_power() * np.exp(-2.0 * info)
        _track(bad, sim.mse - floor + 1e-6, best,
               f"{tag}: simulated MSE {sim.mse:.6f} beats the "
               f"information floor {floor:.6f}")
        var_n = probe.photon_variance if probe.photon_variance > 0 else None
        report = bounds.build_report(prior, probe.mean_photons, eta=eta,
                                     photon_variance=var_n)
        for name, value in report.bayesian().items():
            _track(bad, sim.mse - value + 1e-6, best,
                   f"{tag}: simulated MSE {sim.mse:.6f} beats the "
                   f"{name} bound {value:.6f}")
        # guessing the prior mean is always admissible
        _track(bad, prior.variance() - sim.mse + 1e-6, best,
               f"{tag}: simulated MSE {sim.mse:.6f} above the prior "
               f"variance {prior.variance():.6f}")
    return CheckResult("simulated-mse-between-bounds-and-prior", best[0], bad)


def _check_monte_carlo(scenario, seed, samples):
    best = [np.inf]
    bad = []
    probe, eta, _, _, sim = scenario
    mc = estimation.monte_carlo_mse(sim, samples=samples, seed=seed)
    diff = abs(mc.mean - sim.mse)
    _track(bad, 4.0 * mc.stderr - diff, best,
           f"{_name(probe)} eta={eta}: Monte Carlo mean {mc.mean:.6f} is "
           f"{diff / mc.stderr:.1f} sigma from the quadrature MSE "
           f"{sim.mse:.6f}")
    rerun = estimation.monte_carlo_mse(sim, samples=samples, seed=seed)
    same = rerun.mean == mc.mean and rerun.stderr == mc.stderr
    _track(bad, np.inf if same else -1.0, best,
           "Monte Carlo rerun with the same seed changed its answer")
    return CheckResult("monte-carlo-matches-quadrature", best[0], bad)


def run_verification(probes=None, etas=None, prior=None, sim_grid=None,
                     rd_grid_size=128, rd_slopes=(0.0, 0.25, 0.5),
                     seed=7, mc_samples=20000):
    """Run every named cross-check and return a VerificationReport."""
    if probes is None:
        probes = [ProbeSpec.flat_superposition(4),
                  ProbeSpec.coherent(1.0),
                  ProbeSpec.from_amplitudes(
                      np.array([1.0, 1.0]) / np.sqrt(2.0))]
    if not probes:
        raise ValidationError("verification needs at least one probe")
    if etas is None:
        etas = [0.5, 1.0]
    if not etas:
        raise ValidationError("verification needs at least one eta")
    if prior is None:
        prior = PhasePrior.uniform()
    if sim_grid is None:
        sim_grid = SimGrid(1024, 1024)

    results = [
        _check_prior_properties([prior]),
        _check_capacity_shape(),
        _check_entropy_gain(seed),
        _check_shannon_pair([prior]),
        _check_rate_distortion(prior, rd_grid_size, rd_slopes),
    ]
    scenarios = _scenarios(probes, etas, prior, sim_grid)
    lossy = [s[2] for s in scenarios if 0.0 < s[1] < 1.0] or \
        [fock.chi_decompose(probe, 0.5) for probe in probes]
    results += [
        _check_branch_orthonormality(lossy),
        _check_holevo_chain(scenarios),
        _check_mse_floor(scenarios, prior),
        _check_monte_carlo(scenarios[0], seed, mc_samples),
    ]
    return VerificationReport(results)
