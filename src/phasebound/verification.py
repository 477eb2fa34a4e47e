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
from .config import ScenarioConfig
from .errors import ValidationError
from .priors import TWO_PI

__all__ = ["CheckResult", "VerificationReport", "run_verification",
           "DEFAULT_BATTERY"]

# the scenario `verify` checks when given none
DEFAULT_BATTERY = {
    "prior": {"kind": "uniform"},
    "probes": [{"family": "flat-superposition", "d": 4},
               {"family": "coherent", "alpha": 1.0},
               {"family": "amplitudes",
                "amplitudes": [0.7071067811865475] * 2}],
    "eta": [0.5, 1.0],
    "grid": {"phi_points": 1024, "theta_points": 1024},
    "seed": 7,
    "samples": 20000,
}
MC_SAMPLES_CAP = 50000   # Monte Carlo draws of the quadrature cross-check


class CheckResult:
    """A named check's worst margin (+inf until tracked) and violations."""

    def __init__(self, name):
        self.name = name
        self.margin = np.inf
        self.details = []

    def track(self, margin, text):
        self.margin = min(self.margin, float(margin))
        if margin < 0.0:
            self.details.append(f"{text} (margin {margin:+.3e})")

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


def _name(obj):
    return str(obj.descriptor())


def _check_prior_properties(prior):
    check = CheckResult("prior-entropy-power-and-normalization")
    norm = prior.normalization()
    check.track(1e-8 - abs(norm - 1.0),
                f"{_name(prior)}: density integrates to {norm!r}, not 1")
    check.track(prior.variance() - prior.entropy_power() + 1e-12,
                f"{_name(prior)}: entropy power exceeds the variance")
    check.track(prior.max_density() - 1.0 / TWO_PI + 1e-12,
                f"{_name(prior)}: peak density below the uniform floor")
    return check


def _check_capacity_shape():
    check = CheckResult("capacity-monotone-concave-and-stochastic")
    ns = np.linspace(0.0, 20.0, 81)
    c = np.array([capacity.unrestricted_capacity(n) for n in ns])
    check.track(np.diff(c).min(), "unrestricted capacity is not increasing")
    check.track(1e-12 - np.diff(c, 2).max(),
                "unrestricted capacity is not concave")
    for eta in (0.3, 0.7):
        kern = capacity.binomial_loss_matrix(40, eta)
        rows = float(np.abs(kern.sum(axis=1) - 1.0).max())
        check.track(1e-12 - rows,
                    f"loss matrix rows at eta={eta} sum off by {rows:.2e}")
    return check


def _check_entropy_gain(seed):
    # the loss channel can shed at most ln(1/(1-eta)) nats
    rng = np.random.default_rng(seed)
    check = CheckResult("loss-entropy-gain-floor")
    for trial in range(40):
        p = rng.random(rng.integers(2, 41))
        p /= p.sum()
        for eta in (0.1, 0.5, 0.9):
            gain = capacity.entropy_gain(p, eta)
            check.track(gain - np.log(1.0 - eta) + 1e-9,
                        f"trial {trial}, eta={eta}: entropy gain {gain:.6f} "
                        f"below ln(1-eta)")
    return check


def _check_shannon_pair(prior):
    check = CheckResult("shannon-bound-inversion")
    q = prior.entropy_power()
    for frac in (1e-6, 1e-3, 0.1, 0.5, 1.0):
        d = frac * q
        r = rate_distortion.shannon_lb_rate(q, d)
        back = rate_distortion.shannon_lb_distortion(q, r)
        check.track(1e-9 - abs(back - d) / d,
                    f"{_name(prior)}: R(D) and D(R) fail to invert at "
                    f"D={d:.3e}")
    return check


def _check_rate_distortion(prior, grid_size, slopes):
    check = CheckResult("rate-curve-above-shannon-bound")
    curve = rate_distortion.rd_curve(prior, grid_size, slopes)
    try:
        rate_distortion.check_curve(curve)
    except ValidationError as exc:
        check.track(-1.0, f"curve invariants: {exc}")
    _, masses = rate_distortion.discretize_prior(prior, grid_size)
    q = rate_distortion.discrete_entropy_power(masses, TWO_PI / grid_size)
    slack = 0.2 * 128.0 / grid_size  # discretization gap shrinks like 1/K
    for pt in curve:
        lb = rate_distortion.shannon_lb_rate(q, pt.distortion)
        check.track(pt.rate - lb + slack,
                    f"slope {pt.slope}: rate {pt.rate:.4f} below the Shannon "
                    f"bound {lb:.4f}")
    # every point must carry a certified Blahut gap
    tol = rate_distortion.BA_TOL
    for pt in curve:
        check.track(tol - pt.gap,
                    f"slope {pt.slope}: swept point has Blahut gap "
                    f"{pt.gap:.2e}")
    # the solver descends R + s*D, not R alone
    d = rate_distortion.grid_distortion(grid_size)
    for slope in (min(slopes), max(slopes)):
        point = rate_distortion.blahut_arimoto_point(masses, d, slope)
        check.track(tol - point.gap,
                    f"slope {slope}: cold point has Blahut gap "
                    f"{point.gap:.2e}")
        lag = point.lagrangian_history
        if len(lag) > 1:
            worst = float(np.diff(lag).max())
            check.track(1e-12 - worst,
                        f"slope {slope}: Lagrangian rose by {worst:.2e}")
    return check


def _check_branch_orthonormality(decomps):
    # the loss record separates branches of different counts, so each
    # count must carry one branch of unit norm
    check = CheckResult("environment-branch-orthonormality")
    for decomp in decomps:
        tag = f"{_name(decomp.probe)} eta={decomp.eta}"
        if len(set(decomp.loss_counts)) != len(decomp):
            check.track(-1.0, f"{tag}: two branches share a loss count")
        err = max(abs(np.vdot(u, u).real - 1.0) for u in decomp.vectors)
        check.track(1e-10 - err, f"{tag}: branch norm error {err:.2e}")
    return check


def _scenarios(probes, etas, prior, grid):
    """(probe, eta, decomposition, Holevo quantity, MMSE run) per pair."""
    out = []
    for probe in probes:
        for eta in etas:
            decomp = fock.chi_decompose(probe, eta)
            out.append((probe, eta, decomp, fock.holevo_quantity(decomp, prior),
                        estimation.bayesian_mmse(decomp, prior, grid)))
    return out


def _check_holevo_chain(scenarios):
    check = CheckResult("holevo-capacity-chain")
    for probe, eta, decomp, chi, _ in scenarios:
        tag = f"{_name(probe)} eta={eta}"
        check.track(chi + 1e-10,
                    f"{tag}: Holevo quantity negative ({chi:.3e})")
        # the dephased average keeps the block diagonals q_l |u_l[m]|^2
        # (f(0) = 1 for every prior), so its entropy is a Shannon entropy
        gap = (capacity.shannon_entropy(fock.populations(decomp))
               - capacity.shannon_entropy(decomp.weights))
        check.track(gap - chi + 1e-8,
                    f"{tag}: dephasing chain {gap:.6f} below the Holevo "
                    f"quantity {chi:.6f}")
        if eta >= 1.0:
            cap = capacity.unrestricted_capacity(probe.mean_photons)
        elif eta <= 0.0:
            cap = 0.0
        else:
            cap = capacity.capacity_upper_bound_lossy(probe.mean_photons, eta)
        check.track(cap - gap + 1e-8,
                    f"{tag}: chain value {gap:.6f} above the capacity "
                    f"ceiling {cap:.6f}")
    return check


def _check_mse_floor(scenarios, prior):
    check = CheckResult("simulated-mse-between-bounds-and-prior")
    for probe, eta, _, chi, sim in scenarios:
        tag = f"{_name(probe)} eta={eta}"
        info = sim.mutual_information
        check.track(chi - info + 1e-6,
                    f"{tag}: measured information {info:.6f} exceeds the "
                    f"Holevo quantity {chi:.6f}")
        floor = prior.entropy_power() * np.exp(-2.0 * info)
        check.track(sim.mse - floor + 1e-6,
                    f"{tag}: simulated MSE {sim.mse:.6f} beats the "
                    f"information floor {floor:.6f}")
        report = bounds.build_report(prior, probe.mean_photons, eta=eta,
                                     photon_variance=probe.photon_variance)
        # escher is a Fisher-information floor that ignores the prior: a
        # narrow prior's MSE can sit below it, so it bounds no Bayesian MSE
        for name, value in report.items():
            if value is not None and name != "escher":
                check.track(sim.mse - value + 1e-6,
                            f"{tag}: simulated MSE {sim.mse:.6f} beats the "
                            f"{name} bound {value:.6f}")
        # guessing the prior mean is always admissible
        check.track(prior.variance() - sim.mse + 1e-6,
                    f"{tag}: simulated MSE {sim.mse:.6f} above the prior "
                    f"variance {prior.variance():.6f}")
    return check


def _check_monte_carlo(scenario, seed, samples):
    check = CheckResult("monte-carlo-matches-quadrature")
    probe, eta, _, _, sim = scenario
    mc = estimation.monte_carlo_mse(sim, samples=samples, seed=seed)
    diff = abs(mc.mean - sim.mse)
    check.track(4.0 * mc.stderr - diff,
                f"{_name(probe)} eta={eta}: Monte Carlo mean {mc.mean:.6f} "
                f"is {diff / mc.stderr:.1f} sigma from the quadrature MSE "
                f"{sim.mse:.6f}")
    rerun = estimation.monte_carlo_mse(sim, samples=samples, seed=seed)
    same = rerun.mean == mc.mean and rerun.stderr == mc.stderr
    check.track(np.inf if same else -1.0,
                "Monte Carlo rerun with the same seed changed its answer")
    return check


def run_verification(cfg=None):
    """Run every named cross-check on a ScenarioConfig.

    None means DEFAULT_BATTERY; a scenario without probes borrows the
    battery's. Returns a VerificationReport.
    """
    if cfg is None:
        cfg = ScenarioConfig.from_dict(DEFAULT_BATTERY)
    probes = cfg.probes or ScenarioConfig.from_dict(DEFAULT_BATTERY).probes
    prior = cfg.prior
    results = [
        _check_prior_properties(prior),
        _check_capacity_shape(),
        _check_entropy_gain(cfg.seed),
        _check_shannon_pair(prior),
        _check_rate_distortion(prior, cfg.rd_grid_size, cfg.rd_slopes),
    ]
    scenarios = _scenarios(probes, cfg.etas, prior, cfg.grid)
    lossy = [s[2] for s in scenarios if 0.0 < s[1] < 1.0] or \
        [fock.chi_decompose(probe, 0.5) for probe in probes]
    results += [
        _check_branch_orthonormality(lossy),
        _check_holevo_chain(scenarios),
        _check_mse_floor(scenarios, prior),
        _check_monte_carlo(scenarios[0], cfg.seed,
                           min(cfg.samples, MC_SAMPLES_CAP)),
    ]
    return VerificationReport(results)
