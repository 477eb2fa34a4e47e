"""Cross-checks between the analytic bounds and the simulator.

Every check is named and reports its worst margin: the smallest slack,
after tolerance, over all inequalities it tested. A negative margin
means a genuine violation and `verify` exits nonzero.

Each (probe, eta) scenario is evaluated once, one decomposition, Holevo
quantity and MMSE run, and handed to every check that reads it; each
such check tracks one margin table, scenario rows by inequality columns.
Bound, capacity, rate-distortion and estimation functions are looked up
through their modules at call time, not imported as bare names, so a
monkeypatched or corrupted bound is caught rather than silently bypassed.
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

    def track(self, margins, text):
        """Fold in a margin or an array of them; text(*index) is formatted
        only for the violating entries, in index order."""
        margins = np.asarray(margins)
        worst = margins.min()
        # np.minimum keeps a NaN margin, and not >= 0 makes it a violation
        self.margin = float(np.minimum(self.margin, worst))
        if not worst >= 0.0:
            for idx in map(tuple, np.argwhere(~(margins >= 0.0))):
                self.details.append(
                    f"{text(*idx)} (margin {margins[idx]:+.3e})")

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


def _tag(decomp):
    return f"{_name(decomp.probe)} eta={decomp.eta}"


def _check_prior_properties(prior):
    check = CheckResult("prior-entropy-power-and-normalization")
    norm = prior.normalization()
    check.track(1e-8 - abs(norm - 1.0), lambda:
                f"{_name(prior)}: density integrates to {norm!r}, not 1")
    check.track(prior.variance() - prior.entropy_power() + 1e-12, lambda:
                f"{_name(prior)}: entropy power exceeds the variance")
    check.track(prior.max_density() - 1.0 / TWO_PI + 1e-12, lambda:
                f"{_name(prior)}: peak density below the uniform floor")
    return check


def _check_capacity_shape():
    check = CheckResult("capacity-monotone-concave-and-stochastic")
    ns = np.linspace(0.0, 20.0, 81)
    c = np.array([capacity.unrestricted_capacity(n) for n in ns])
    check.track(np.diff(c).min(),
                lambda: "unrestricted capacity is not increasing")
    check.track(1e-12 - np.diff(c, 2).max(),
                lambda: "unrestricted capacity is not concave")
    # g(N) is the Shannon entropy of the thermal masses N^n / (N+1)^(n+1),
    # here one zero-padded stack cut below 1e-18 (from n = 788 at N = 20)
    ref = np.array([0.25, 1.0, 4.0, 16.0, 20.0])
    top = ref[:, None] + 1.0
    masses = (ref[:, None] / top) ** np.arange(800) / top
    masses[masses < 1e-18] = 0.0
    h = capacity.shannon_entropy(masses)
    g = np.array([capacity.unrestricted_capacity(n) for n in ref])
    check.track(1e-12 - np.abs(g - h), lambda k:
                f"unrestricted capacity {g[k]:.6f} at N={ref[k]} is not the "
                f"thermal entropy {h[k]:.6f}")
    for eta in (0.3, 0.7):
        kern = capacity.binomial_loss_matrix(40, eta)
        rows = float(np.abs(kern.sum(axis=1) - 1.0).max())
        check.track(1e-12 - rows, lambda:
                    f"loss matrix rows at eta={eta} sum off by {rows:.2e}")
    return check


def _check_entropy_gain(seed):
    # the loss channel can shed at most ln(1/(1-eta)) nats; the 40 random
    # distributions, zero-padded into one stack, share a loss kernel per eta
    rng = np.random.default_rng(seed)
    check = CheckResult("loss-entropy-gain-floor")
    stack = np.zeros((40, 41))
    for row in stack:
        p = rng.random(rng.integers(2, 41))
        row[:p.size] = p / p.sum()
    etas = (0.1, 0.5, 0.9)
    gains = np.stack([capacity.entropy_gain(stack, eta) for eta in etas], 1)
    margins = gains - np.log(1.0 - np.array(etas)) + 1e-9
    check.track(margins, lambda trial, k: (
        f"trial {trial}, eta={etas[k]}: entropy gain {gains[trial, k]:.6f} "
        f"below ln(1-eta)"))
    return check


def _check_shannon_pair(prior):
    check = CheckResult("shannon-bound-inversion")
    q = prior.entropy_power()
    for frac in (1e-6, 1e-3, 0.1, 0.5, 1.0):
        d = frac * q
        r = rate_distortion.shannon_lb_rate(q, d)
        back = rate_distortion.shannon_lb_distortion(q, r)
        check.track(1e-9 - abs(back - d) / d, lambda:
                    f"{_name(prior)}: R(D) and D(R) fail to invert at "
                    f"D={d:.3e}")
    return check


def _check_rate_distortion(prior, grid_size, slopes):
    check = CheckResult("rate-curve-above-shannon-bound")
    curve = rate_distortion.rd_curve(prior, grid_size, slopes)
    try:
        rate_distortion.check_curve(curve)
    except ValidationError as exc:
        check.track(-1.0, lambda: f"curve invariants: {exc}")
    _, masses = rate_distortion.discretize_prior(prior, grid_size)
    q = rate_distortion.discrete_entropy_power(masses, TWO_PI / grid_size)
    slack = 0.2 * 128.0 / grid_size  # discretization gap shrinks like 1/K
    lbs = [rate_distortion.shannon_lb_rate(q, pt.distortion) for pt in curve]
    # the solver descends R + s*D, not R alone, so each point's Lagrangian
    # must not rise; a one-entry history rises nowhere
    rises = [float(np.diff(pt.lagrangian_history).max(initial=-np.inf))
             for pt in curve]
    # a row per inequality: above the Shannon bound, a certified gap, descent
    tol = rate_distortion.BA_TOL
    check.track([[pt.rate - lb + slack for pt, lb in zip(curve, lbs)],
                 [tol - pt.gap for pt in curve],
                 [1e-12 - rise for rise in rises]], lambda i, j: (
        f"slope {curve[j].slope}: " + (
            f"rate {curve[j].rate:.4f} below the Shannon bound {lbs[j]:.4f}",
            f"point has Blahut gap {curve[j].gap:.2e}",
            f"Lagrangian rose by {rises[j]:.2e}")[i]))
    return check


def _check_branch_orthonormality(decomps):
    # the loss record separates branches of different counts, so each count
    # carries one branch whose norm and weight are its loss probability;
    # a probe's own kernel is the leading block of its eta's largest one
    check = CheckResult("environment-branch-orthonormality")
    kernels = {eta: capacity.binomial_loss_matrix(
        max(d.probe.cutoff for d in decomps if d.eta == eta), eta)
        for eta in dict.fromkeys(d.eta for d in decomps)}
    errs, rows = [], []
    for decomp in decomps:
        size = decomp.probe.cutoff + 1
        q = decomp.probe.probabilities @ kernels[decomp.eta][:size, :size]
        w = np.stack([(np.abs(decomp.branches) ** 2).sum(1), decomp.weights])
        errs.append(float(np.abs(w / q[decomp.loss_counts] - 1.0).max()))
        shared = len(set(decomp.loss_counts)) != len(decomp)
        rows.append((-1.0 if shared else np.inf, 1e-10 - errs[-1]))
    check.track(rows, lambda s, k: f"{_tag(decomps[s])}: " + (
        "two branches share a loss count",
        f"branch norm error {errs[s]:.2e}")[k])
    return check


def _scenarios(probes, etas, prior, grid):
    """(decomposition, Holevo quantity, MMSE run) per (probe, eta) pair.

    `verify` checks these triples and `bounds` tabulates them.
    """
    decomps = fock.chi_decompose_all(probes, etas)
    sims = estimation.bayesian_mmse_all(
        decomps, estimation.prior_parts(prior, grid))
    return [(d, fock.holevo_quantity(d, prior), sim)
            for d, sim in zip(decomps, sims)]


def _check_holevo_chain(scenarios, prior):
    check = CheckResult("holevo-capacity-chain")
    # no harmonic up to the cutoff leaves rho_bar dephased, so chi must equal
    # the chain: it drops <= 8385 populations < 1e-14, each -p ln p <= 3.3e-13
    bare = {n: not prior.fourier_coefficients(n)[1:].any()
            for n in {decomp.probe.cutoff for decomp, _, _ in scenarios}}
    facts, rows = [], []
    for decomp, chi, _ in scenarios:
        probe, eta = decomp.probe, decomp.eta
        # the dephased average keeps the block diagonals q_l |u_l[m]|^2
        # (f(0) = 1 for every prior), so its entropy is a Shannon entropy
        gap = (capacity.shannon_entropy(decomp.populations)
               - capacity.shannon_entropy(decomp.weights))
        # g(eta N) where C_lossy is undefined: 1.0 * N is N and g(0) is 0.0
        cap = (capacity.capacity_upper_bound_lossy(probe.mean_photons, eta)
               if 0.0 < eta < 1.0 else
               capacity.unrestricted_capacity(eta * probe.mean_photons))
        equal = bare[probe.cutoff]
        facts.append((decomp, chi, gap, equal, cap))
        rows.append((chi + 1e-10,
                     1e-8 - abs(gap - chi) if equal else gap - chi + 1e-8,
                     cap - gap + 1e-8))

    def detail(s, k):
        decomp, chi, gap, equal, cap = facts[s]
        return f"{_tag(decomp)}: " + (
            f"Holevo quantity negative ({chi:.3e})",
            f"dephasing chain {gap:.6f} {'is not' if equal else 'below'} "
            f"the Holevo quantity {chi:.6f}",
            f"chain value {gap:.6f} above the capacity ceiling {cap:.6f}")[k]
    check.track(rows, detail)
    return check


def _check_mse_floor(scenarios, prior):
    check = CheckResult("simulated-mse-between-bounds-and-prior")
    q = prior.entropy_power()
    # guessing the mean is always admissible; the simulator's prior is
    # its masses on the phase grid, off the continuous one by O(1/K).
    # Every run of one bayesian_mmse_all call shares those masses.
    _, _, first = scenarios[0]
    w = first.prior_part.masses
    phi = np.arange(w.size) * (TWO_PI / w.size)
    spread = w @ (phi - w @ phi) ** 2
    facts, rows = [], []
    for decomp, chi, sim in scenarios:
        probe, info = decomp.probe, sim.mutual_information
        # a NaN information fails its own row; D(R) refuses it as a rate
        floor = np.nan if np.isnan(info) else \
            rate_distortion.shannon_lb_distortion(q, info)
        report = bounds.build_report(prior, probe.mean_photons, eta=decomp.eta,
                                     photon_variance=probe.photon_variance)
        # escher is a Fisher-information floor that ignores the prior: a
        # narrow prior's MSE can sit below it, so it bounds no Bayesian MSE.
        # A bound that does not apply (None) has a margin of +inf
        del report["escher"]
        facts.append((decomp, chi, sim, floor, report))
        rows.append([chi - info, sim.mse - floor,
                     *(np.inf if value is None else sim.mse - value
                       for value in report.values()), spread - sim.mse])

    def detail(s, k):
        decomp, chi, sim, floor, report = facts[s]
        return f"{_tag(decomp)}: " + (
            [f"measured information {sim.mutual_information:.6f} exceeds "
             f"the Holevo quantity {chi:.6f}",
             f"simulated MSE {sim.mse:.6f} beats the information floor "
             f"{floor:.6f}"]
            + [f"simulated MSE {sim.mse:.6f} beats the {name} bound {value:.6f}"
               if value is not None else "" for name, value in report.items()]
            + [f"simulated MSE {sim.mse:.6f} above the prior variance "
               f"{spread:.6f} on the phase grid"])[k]
    check.track(np.array(rows) + 1e-6, detail)
    return check


def _check_monte_carlo(scenario, seed, samples):
    """Monte Carlo draws against the quadrature MSE of one scenario.

    The draws come from the same window, prior masses and estimator
    table as the quadrature, so the check tests only the quadrature sum
    over that joint, not the window or the estimator themselves.
    """
    check = CheckResult("monte-carlo-matches-quadrature")
    decomp, _, sim = scenario
    mc = estimation.monte_carlo_mse(sim, samples=samples, seed=seed)
    diff = abs(mc.mean - sim.mse)
    check.track(4.0 * mc.stderr - diff, lambda:
                f"{_tag(decomp)}: Monte Carlo mean {mc.mean:.6f} is "
                f"{diff / mc.stderr:.1f} sigma from the quadrature MSE "
                f"{sim.mse:.6f}")
    rerun = estimation.monte_carlo_mse(sim, samples=samples, seed=seed)
    same = rerun.mean == mc.mean and rerun.stderr == mc.stderr
    check.track(np.inf if same else -1.0, lambda:
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
    lossy = [d for d, _, _ in scenarios if 0.0 < d.eta < 1.0] or \
        fock.chi_decompose_all(probes, [0.5])
    results += [
        _check_branch_orthonormality(lossy),
        _check_holevo_chain(scenarios, prior),
        _check_mse_floor(scenarios, prior),
        _check_monte_carlo(scenarios[0], cfg.seed,
                           min(cfg.samples, MC_SAMPLES_CAP)),
    ]
    return VerificationReport(results)
