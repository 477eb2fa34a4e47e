"""Command line front end.

Subcommands map onto the library layers: `capacity` and `bounds` emit
analytic tables, `rd-curve` sweeps the rate-distortion trade-off,
`simulate` runs the measurement simulator, and `verify` cross-checks
the bounds against the simulator.

Exit codes: 0 success, 1 verify found a violated inequality, 2 bad
input or configuration (`--threads` past MAX_THREADS too, before any
thread starts), 3 a numerical guard tripped; an error line is clipped
to MAX_ERROR_LINE characters, "..." its last three. Output is plain
text with repr-formatted floats and no timestamps, so repeated runs of
the same scenario are byte-identical.

The parser is built once, at import; `main` only parses, so it may be
called repeatedly in one process. Help and usage text are formatted
when printed, so `--help` follows the terminal width of that moment.
"""

import argparse
import json
import math
import sys
import threading

from . import bounds as bounds_mod
from . import capacity as capacity_mod
from . import estimation
from . import fock
from . import rate_distortion
from .config import ScenarioConfig
from .errors import NumericalError, ValidationError
from .verification import DEFAULT_BATTERY, _scenarios, run_verification

__all__ = ["main"]

MAX_THREADS, MAX_ERROR_LINE = 64, 500


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(float(value))


def _csv(header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _sliced(fn, items, threads):
    """fn(items[i:j], i) on one contiguous slice per thread, concatenated.

    `items` is non-empty. Slice 0 runs on the calling thread and each
    later slice on a worker thread of its own, so at most threads - 1
    workers start. Every worker is joined before the first failing
    slice's exception is raised again here.
    """
    size = -(-len(items) // threads)
    slices = [(items[i:i + size], i) for i in range(0, len(items), size)]
    done = [None] * len(slices)

    def run(k):
        try:
            done[k] = fn(*slices[k]), None
        except BaseException as exc:   # raised again on the calling thread
            done[k] = None, exc

    workers = [threading.Thread(target=run, args=(k,))
               for k in range(1, len(slices))]
    for worker in workers:
        worker.start()
    run(0)
    for worker in workers:
        worker.join()
    out = []
    for rows, exc in done:
        if exc is not None:
            raise exc
        out += rows
    return out


def _cmd_capacity(cfg, threads):
    del threads  # each row is two closed forms in Python, which hold the GIL
    targets = cfg.photon_targets()
    if not targets:
        raise ValidationError(
            "capacity table needs probes or a mean_photons list")
    rows = [(float(ns), float(eta), capacity_mod.unrestricted_capacity(ns),
             capacity_mod.capacity_upper_bound_lossy(ns, eta)
             if 0.0 < eta < 1.0 else None)
            for ns in targets for eta in cfg.etas]
    return _csv(("N_S", "eta", "C_unrestricted", "C_ph_upper"), rows), 0


_BOUNDS_HEADER = ("N_S", "eta", "Q", "h_limit", "hall_wiseman", "lossy_sql",
                  "escher", "iti_C", "chi", "I_meas", "mse_sim")


def _cmd_bounds(cfg, threads):
    del threads  # every probe table measured ran slower on two threads
    prior = cfg.prior
    if not cfg.probes and cfg.mean_photons is None:
        raise ValidationError(
            "bounds table needs probes or a mean_photons list")

    q = prior.entropy_power()

    def report(ns, eta, photon_variance=None):
        return (float(ns), float(eta), q, *bounds_mod.build_report(
            prior, ns, eta=eta, photon_variance=photon_variance).values())

    if not cfg.probes:
        return _csv(_BOUNDS_HEADER, [report(ns, eta) + (None, None, None)
                                     for ns in cfg.mean_photons
                                     for eta in cfg.etas]), 0
    scenarios = _scenarios(cfg.probes, cfg.etas, prior, cfg.grid)
    table = _csv(_BOUNDS_HEADER, [
        report(d.probe.mean_photons, d.eta, d.probe.photon_variance)
        + (chi, sim.mutual_information, sim.mse)
        for d, chi, sim in scenarios])
    for d, _, sim in scenarios:
        if not sim.converged:
            drift = abs(sim.mse - sim.mse_coarse)
            why = "holds none of the prior's mass" if math.isnan(drift) else \
                f"moves it by {drift!r}, beyond {estimation.CONVERGED_TOL}"
            print(f"warning: bounds mse_sim for {d.probe!r} at eta {d.eta!r} "
                  f"is not converged: the half grid {why}", file=sys.stderr)
    return table, 0


def _cmd_rd_curve(cfg, threads):
    del threads  # the slopes are solved one after another
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
    # the shared work, done here before any worker starts: every
    # decomposition, both prior parts and the masses' guide table, which
    # every slice's draws read (built on this first read)
    decomps = fock.chi_decompose_all(cfg.probes, cfg.etas)
    _, fine, _ = parts = estimation.prior_parts(cfg.prior, cfg.grid)
    fine.table

    def entries(chunk, start):
        sims = estimation.bayesian_mmse_all(chunk, parts)
        out = []
        for index, (d, sim) in enumerate(zip(chunk, sims), start):
            mc = estimation.monte_carlo_mse(sim, samples=cfg.samples,
                                            seed=cfg.seed + index)
            out.append({"probe": d.probe.descriptor(), "eta": float(d.eta),
                        "mse": float(sim.mse),
                        "mutual_information": float(sim.mutual_information),
                        "converged": bool(sim.converged),
                        "mc_mean": float(mc.mean),
                        "mc_stderr": float(mc.stderr)})
        return out

    results = _sliced(entries, decomps, threads)
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
    "bounds": (_cmd_bounds, "tabulate every analytic MSE bound as CSV"),
    "capacity": (_cmd_capacity, "tabulate channel capacities as CSV"),
    "rd-curve": (_cmd_rd_curve, "sweep the rate-distortion curve as CSV"),
    "simulate": (_cmd_simulate, "run the measurement simulator, JSON output"),
    "verify": (_cmd_verify, "cross-check bounds against the simulator"),
}


# one flat parser: subparsers cost several times as much to build
_PARSER = argparse.ArgumentParser(
    prog="phasebound",
    description="Bayesian phase estimation bounds and their "
                "numerical verification.",
    epilog="commands:\n" + "".join(f"  {name:<10}{text}\n" for name,
                                   (_, text) in _COMMANDS.items()),
    formatter_class=argparse.RawDescriptionHelpFormatter)
_PARSER.add_argument("command", choices=_COMMANDS,
                     help="what to run; see the commands below")
_PARSER.add_argument("--config", help="scenario JSON file")
_PARSER.add_argument("--out", help="write output here instead of stdout")
_PARSER.add_argument("--seed", type=int, help="override the scenario seed")
_PARSER.add_argument("--threads", type=int, default=1,
                     help="threads simulate runs on (default: 1)")


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        if not 1 <= args.threads <= MAX_THREADS:
            raise ValidationError(
                f"threads must be in [1, {MAX_THREADS}], got {args.threads}")
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
        text, code = _COMMANDS[args.command][0](cfg, args.threads)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except (ValidationError, OSError, NumericalError, OverflowError) as exc:
        numerical = isinstance(exc, (NumericalError, OverflowError))
        line = f"{'numerical error' if numerical else 'error'}: {exc}"
        print(line[:MAX_ERROR_LINE - 3] + "..." if len(line) > MAX_ERROR_LINE
              else line, file=sys.stderr)
        return 3 if numerical else 2
    if not args.out:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
