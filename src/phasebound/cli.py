"""Command line front end.

Subcommands map onto the library layers: `capacity` and `bounds` emit
analytic tables, `rd-curve` sweeps the rate-distortion trade-off,
`simulate` runs the measurement simulator, and `verify` cross-checks
the bounds against the simulator.

Exit codes: 0 success, 1 verify found a violated inequality, 2 bad
input or configuration, 3 a numerical guard tripped. Output is plain
text with repr-formatted floats and no timestamps, so repeated runs of
the same scenario are byte-identical.
"""

import argparse
import json
import math
import sys

from . import bounds as bounds_mod
from . import capacity as capacity_mod
from . import estimation
from . import fock
from . import rate_distortion
from .config import ScenarioConfig
from .errors import NumericalError, ValidationError
from .verification import DEFAULT_BATTERY, run_verification

__all__ = ["main"]


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _csv(header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _parallel(tasks, threads):
    """Evaluate thunks, preserving their order regardless of thread count."""
    if threads <= 1 or len(tasks) <= 1:
        return [task() for task in tasks]
    # imported here: concurrent.futures pulls in logging and queue, which
    # a single-threaded run never needs
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda task: task(), tasks))


def _cmd_capacity(cfg, threads):
    targets = cfg.photon_targets()
    if not targets:
        raise ValidationError(
            "capacity table needs probes or a mean_photons list")

    def row(ns, eta):
        c = capacity_mod.unrestricted_capacity(ns)
        cp = capacity_mod.capacity_upper_bound_lossy(ns, eta) \
            if 0.0 < eta < 1.0 else None
        return (float(ns), float(eta), c, cp)

    tasks = [lambda ns=ns, eta=eta: row(ns, eta)
             for ns in targets for eta in cfg.etas]
    rows = _parallel(tasks, threads)
    return _csv(("N_S", "eta", "C_unrestricted", "C_ph_upper"), rows), 0


_BOUNDS_HEADER = ("N_S", "eta", "Q", "h_limit", "hall_wiseman", "lossy_sql",
                  "escher", "iti_C", "chi", "I_meas", "mse_sim")


def _cmd_bounds(cfg, threads):
    prior = cfg.prior
    if not cfg.probes and cfg.mean_photons is None:
        raise ValidationError(
            "bounds table needs probes or a mean_photons list")

    q = prior.entropy_power()

    def row(ns, eta, probe=None):
        report = bounds_mod.build_report(
            prior, ns, eta=eta,
            photon_variance=None if probe is None else probe.photon_variance)
        cells = (float(ns), float(eta), q, *report.values())
        if probe is None:
            return cells + (None, None, None), None
        decomp = fock.chi_decompose(probe, eta)
        chi = fock.holevo_quantity(decomp, prior)
        sim = estimation.bayesian_mmse(decomp, prior, cfg.grid)
        drift = abs(sim.mse - sim.mse_coarse)
        why = "holds none of the prior's mass" if math.isnan(drift) else \
            f"moves it by {drift!r}, beyond {estimation.CONVERGED_TOL}"
        warning = None if sim.converged else (
            f"warning: bounds mse_sim for {probe!r} at eta {eta!r} is not "
            f"converged: the half grid {why}")
        return cells + (chi, sim.mutual_information, sim.mse), warning

    if cfg.probes:
        tasks = [lambda p=p, eta=eta: row(p.mean_photons, eta, p)
                 for p in cfg.probes for eta in cfg.etas]
    else:
        tasks = [lambda ns=ns, eta=eta: row(ns, eta)
                 for ns in cfg.mean_photons for eta in cfg.etas]
    results = _parallel(tasks, threads)
    for _, warning in results:
        if warning:
            print(warning, file=sys.stderr)
    return _csv(_BOUNDS_HEADER, [row for row, _ in results]), 0


def _cmd_rd_curve(cfg, threads):
    del threads  # the sweep is sequential by design: it warm-starts
    curve = rate_distortion.rd_curve(cfg.prior, cfg.rd_grid_size,
                                     cfg.rd_slopes)
    rows = [(pt.distortion, pt.rate, pt.slope, pt.converged) for pt in curve]
    uncertified = [pt.slope for pt in curve if not pt.converged]
    if uncertified:
        print(f"warning: rd-curve slopes {uncertified} did not reach the "
              f"certified gap {rate_distortion.BA_TOL} within "
              f"{rate_distortion.BA_MAX_ITER} iterations", file=sys.stderr)
    return _csv(("D", "R", "slope", "converged"), rows), 0


def _cmd_simulate(cfg, threads):
    if not cfg.probes:
        raise ValidationError("simulate needs at least one probe")

    def scenario(index, probe, eta):
        sim = estimation.bayesian_mmse(fock.chi_decompose(probe, eta),
                                       cfg.prior, cfg.grid)
        mc = estimation.monte_carlo_mse(sim, samples=cfg.samples,
                                        seed=cfg.seed + index)
        return {"probe": probe.descriptor(), "eta": float(eta),
                "mse": float(sim.mse),
                "mutual_information": float(sim.mutual_information),
                "converged": bool(sim.converged),
                "mc_mean": float(mc.mean), "mc_stderr": float(mc.stderr)}

    pairs = [(probe, eta) for probe in cfg.probes for eta in cfg.etas]
    tasks = [lambda i=i, p=p, eta=eta: scenario(i, p, eta)
             for i, (p, eta) in enumerate(pairs)]
    results = _parallel(tasks, threads)
    if len(results) == 1:
        payload = dict(results[0])
        del payload["probe"], payload["eta"]
    else:
        payload = {"results": results}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n", 0


def _cmd_verify(cfg, threads):
    del threads
    report = run_verification(cfg)
    return "\n".join(report.lines()) + "\n", 0 if report.passed else 1


_COMMANDS = {
    "bounds": _cmd_bounds,
    "capacity": _cmd_capacity,
    "rd-curve": _cmd_rd_curve,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="phasebound",
        description="Bayesian phase estimation bounds and their "
                    "numerical verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("bounds", "tabulate every analytic MSE bound as CSV"),
            ("capacity", "tabulate channel capacities as CSV"),
            ("rd-curve", "sweep the rate-distortion curve as CSV"),
            ("simulate", "run the measurement simulator, JSON output"),
            ("verify", "cross-check bounds against the simulator")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="scenario JSON file")
        p.add_argument("--out", help="write output here instead of stdout")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (default: 1)")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ValidationError(f"threads must be >= 1, got {args.threads}")
        if args.config is not None:
            cfg = ScenarioConfig.from_file(args.config)
        else:
            cfg = ScenarioConfig.from_dict(
                DEFAULT_BATTERY if args.command == "verify" else {})
        if args.seed is not None:
            if args.seed < 0:
                raise ValidationError(
                    f"seed must be nonnegative, got {args.seed}")
            cfg.seed = args.seed
        text, code = _COMMANDS[args.command](cfg, args.threads)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
