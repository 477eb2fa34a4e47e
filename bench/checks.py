"""Output checks behind the benchmark's `failed` count.

`check(op, code, stdout, reference)` returns the problems it found and
a summary of the output; an operation fails when there is a problem.
Two kinds of check:

* Reference-free checks hold at any seed. The bounds, capacities and
  prior facts they need are recomputed here from closed forms, not taken
  from phasebound:
  - rd-curve: R >= 0, D > 0, R non-increasing and convex in D, and
    R >= the Shannon lower bound of the discretized prior - 0.2*128/K.
  - simulate and bounds: the simulated MSE is at least every Bayesian
    bound - 1e-6 and at most the prior variance + 1e-6, chi >= I_meas
    - 1e-6, and the Monte Carlo mean lies within 4 standard errors of
    the MSE. Analytic bound and capacity columns match the closed forms
    within 1e-9 relative.
  - verify: exit code 0, every check line reads PASS, verdict OK.
* Reference checks compare with values recorded by `record.py`, for the
  operations whose exact inputs were recorded (the default seed 0, plus
  the inputs that no seed changes). Tolerances:
  - rd-curve: the Lagrangian R + s*D of each slope may fall, but may
    rise by at most 1e-9 * (1 + |L|);
  - simulate, bounds, capacity: every number within 1e-8 relative plus
    1e-10 absolute, Monte Carlo means and errors within 1e-6 relative;
    a converged flag recorded true must stay true;
  - verify: the same named checks.

The scenario generators only make uniform-window priors, the one kind
the closed forms here cover.
"""

import csv
import hashlib
import io
import json
import math

__all__ = ["check", "op_key", "summarize"]

TWO_PI = 2.0 * math.pi
SLACK = 1e-6
RD_TOL = 1e-7
LAGRANGIAN_TOL = 1e-9
REL_TOL, ABS_TOL = 1e-8, 1e-10
MC_REL_TOL = 1e-6
ANALYTIC_TOL = 1e-9


def op_key(op):
    """Fingerprint of what determines an operation's output."""
    text = json.dumps({"command": op["command"], "config": op["config"]},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---- closed forms ---------------------------------------------------------

class _Window:
    """Uniform window prior: the facts the checks need."""

    def __init__(self, spec):
        if spec.get("kind", "uniform") != "uniform":
            raise ValueError(f"checks cover uniform priors only, got {spec}")
        self.width = float(spec.get("width", TWO_PI))
        centre = float(spec.get("center", math.pi)) % TWO_PI
        self.start = (centre - self.width / 2.0) % TWO_PI
        self.entropy_power = self.width ** 2 / (TWO_PI * math.e)
        self.max_density = 1.0 / self.width
        # non-periodic variance of phi read as a real number in [0, 2*pi)
        end = self.start + self.width
        if end <= TWO_PI or self.width == TWO_PI:
            arcs = [(self.start, end)]
        else:
            arcs = [(self.start, TWO_PI), (0.0, end - TWO_PI)]
        m1 = sum(b * b - a * a for a, b in arcs) / (2.0 * self.width)
        m2 = sum(b ** 3 - a ** 3 for a, b in arcs) / (3.0 * self.width)
        self.variance = m2 - m1 * m1

    def discrete_entropy_power(self, grid_size):
        """Entropy power of the prior's point masses on the K-grid."""
        cell = TWO_PI / grid_size
        inside = sum(1 for j in range(grid_size)
                     if (j * cell - self.start) % TWO_PI < self.width)
        return (inside * cell) ** 2 / (TWO_PI * math.e)


def _capacity(n):
    return (n + 1.0) * math.log(n + 1.0) - (n * math.log(n) if n > 0 else 0.0)


def _lossy_capacity(n, eta):
    arg = TWO_PI * math.e * (eta * (1.0 - eta) * n + 1.0 / 12.0)
    return 0.5 * math.log(arg / (1.0 - eta) ** 2)


def _bayesian_bounds(prior, n, eta):
    q = prior.entropy_power
    out = {"h_limit": q * math.exp(-2.0) / (n + 1.0) ** 2,
           "hall_wiseman": 1.0 / (TWO_PI * math.exp(3.0)
                                  * prior.max_density ** 2 * (n + 1.0) ** 2),
           "iti_C": q * math.exp(-2.0 * _capacity(n)),
           "lossy_sql": None}
    if eta < 1.0:
        noise = eta * (1.0 - eta) * n + 1.0 / 12.0
        out["lossy_sql"] = q * (1.0 - eta) ** 2 / (TWO_PI * math.e * noise)
    return out


def _close(x, ref, rel, abs_tol=0.0):
    return abs(x - ref) <= rel * abs(ref) + abs_tol


# ---- output parsing -------------------------------------------------------

def _csv_rows(stdout):
    reader = csv.reader(io.StringIO(stdout))
    header = next(reader)
    rows = [{h: (float(c) if c not in ("", "true", "false") else
                 (None if c == "" else c == "true"))
             for h, c in zip(header, row)} for row in reader if row]
    return header, rows


def _simulate_results(stdout):
    payload = json.loads(stdout)
    return payload["results"] if "results" in payload else [payload]


# ---- reference-free checks ------------------------------------------------

def _check_rd(config, stdout, code, problems):
    _, rows = _csv_rows(stdout)
    grid_size = config.get("rd", {}).get("grid_size", 128)
    slopes = sorted(float(s) for s in config.get("rd", {}).get(
        "slopes", [0.0, 0.25, 0.5]))
    if sorted(r["slope"] for r in rows) != slopes:
        problems.append(f"rd-curve slopes {[r['slope'] for r in rows]} "
                        f"do not match {slopes}")
        return rows
    prior = _Window(config.get("prior", {"kind": "uniform"}))
    q = prior.discrete_entropy_power(grid_size)
    slack = 0.2 * 128.0 / grid_size
    for i, row in enumerate(rows):
        d, r = row["D"], row["R"]
        if r < 0.0:
            problems.append(f"rd row {i}: negative rate {r!r}")
        if d <= 0.0:
            problems.append(f"rd row {i}: nonpositive distortion {d!r}")
            continue
        slb = max(0.0, 0.5 * math.log(q / d))
        if r < slb - slack:
            problems.append(f"rd row {i}: rate {r!r} below the Shannon "
                            f"lower bound {slb!r} - {slack!r}")
    for i in range(1, len(rows)):
        if rows[i]["D"] < rows[i - 1]["D"]:
            problems.append("rd rows are not sorted by distortion")
        if rows[i]["R"] - rows[i - 1]["R"] > RD_TOL:
            problems.append(f"rd row {i}: rate rises with distortion")
    chords = [(rows[i + 1]["R"] - rows[i]["R"])
              / (rows[i + 1]["D"] - rows[i]["D"])
              for i in range(len(rows) - 1)
              if rows[i + 1]["D"] > rows[i]["D"]]
    for i in range(1, len(chords)):
        if chords[i] - chords[i - 1] < -RD_TOL:
            problems.append(f"rd curve is not convex at chord {i}")
    return rows


def _check_mse(tag, prior, n, eta, mse, problems):
    for name, value in _bayesian_bounds(prior, n, eta).items():
        if value is not None and mse < value - SLACK:
            problems.append(f"{tag}: mse {mse!r} below the {name} bound "
                            f"{value!r}")
    if mse > prior.variance + SLACK:
        problems.append(f"{tag}: mse {mse!r} above the prior variance "
                        f"{prior.variance!r}")


def _check_simulate(config, stdout, code, problems):
    results = _simulate_results(stdout)
    prior = _Window(config.get("prior", {"kind": "uniform"}))
    etas = config["eta"] if isinstance(config["eta"], list) else [config["eta"]]
    expected = len(config["probes"]) * len(etas)
    if len(results) != expected:
        problems.append(f"simulate gave {len(results)} results, "
                        f"expected {expected}")
    for i, res in enumerate(results):
        eta = res.get("eta", etas[i % len(etas)])
        if eta != etas[i % len(etas)]:
            problems.append(f"result {i}: eta {eta} out of order")
        n = res["probe"]["mean_photons"] if "probe" in res else None
        tag = f"result {i} (eta={eta})"
        if n is not None:
            _check_mse(tag, prior, n, eta, res["mse"], problems)
        if res["mutual_information"] < 0.0:
            problems.append(f"{tag}: negative mutual information")
        if not res["mc_stderr"] > 0.0:
            problems.append(f"{tag}: Monte Carlo error {res['mc_stderr']!r}")
        elif abs(res["mc_mean"] - res["mse"]) > 4.0 * res["mc_stderr"]:
            problems.append(f"{tag}: Monte Carlo mean {res['mc_mean']!r} more "
                            f"than 4 sigma from mse {res['mse']!r}")
    return results


def _check_bounds(config, stdout, code, problems):
    _, rows = _csv_rows(stdout)
    prior = _Window(config.get("prior", {"kind": "uniform"}))
    etas = config["eta"]
    sizes = len(config["probes"]) if config.get("probes") else \
        len(config["mean_photons"])
    if len(rows) != sizes * len(etas):
        problems.append(f"bounds gave {len(rows)} rows, expected "
                        f"{sizes * len(etas)}")
    for i, row in enumerate(rows):
        n, eta = row["N_S"], row["eta"]
        tag = f"bounds row {i} (N_S={n!r}, eta={eta!r})"
        if not _close(row["Q"], prior.entropy_power, ANALYTIC_TOL):
            problems.append(f"{tag}: Q {row['Q']!r} != {prior.entropy_power!r}")
        for name, value in _bayesian_bounds(prior, n, eta).items():
            got = row[name]
            if (got is None) != (value is None) or (
                    value is not None and not _close(got, value, ANALYTIC_TOL)):
                problems.append(f"{tag}: {name} {got!r}, closed form {value!r}")
        if row["mse_sim"] is None:
            continue
        _check_mse(tag, prior, n, eta, row["mse_sim"], problems)
        if row["chi"] < row["I_meas"] - SLACK:
            problems.append(f"{tag}: chi {row['chi']!r} below I_meas "
                            f"{row['I_meas']!r}")
        if row["I_meas"] < 0.0:
            problems.append(f"{tag}: negative I_meas")
    return rows


def _check_capacity(config, stdout, code, problems):
    _, rows = _csv_rows(stdout)
    expected = len(config["mean_photons"]) * len(config["eta"])
    if len(rows) != expected:
        problems.append(f"capacity gave {len(rows)} rows, expected {expected}")
    for i, row in enumerate(rows):
        n, eta = row["N_S"], row["eta"]
        if not _close(row["C_unrestricted"], _capacity(n), ANALYTIC_TOL):
            problems.append(f"capacity row {i}: C {row['C_unrestricted']!r}, "
                            f"closed form {_capacity(n)!r}")
        want = _lossy_capacity(n, eta) if 0.0 < eta < 1.0 else None
        got = row["C_ph_upper"]
        if (got is None) != (want is None) or (
                want is not None and not _close(got, want, ANALYTIC_TOL)):
            problems.append(f"capacity row {i}: C_ph {got!r}, closed form "
                            f"{want!r}")
    return rows


def _check_verify(config, stdout, code, problems):
    lines = stdout.splitlines()
    if not lines or lines[-1] != "verify: OK":
        problems.append(f"verify verdict {lines[-1] if lines else None!r}")
    names = []
    for line in lines[:-1]:
        if line.startswith("PASS "):
            names.append(line.split()[1])
        elif not line.startswith("  "):
            problems.append(f"verify line {line!r}")
    if code != 0:
        problems.append(f"verify exited {code}")
    return names


_CHECKERS = {"rd-curve": _check_rd, "simulate": _check_simulate,
             "bounds": _check_bounds, "capacity": _check_capacity,
             "verify": _check_verify}


def summarize(command, parsed):
    """The values of a parsed output that the reference records."""
    if command == "rd-curve":
        return [[r["slope"], r["R"] + r["slope"] * r["D"]] for r in parsed]
    if command == "simulate":
        return [{k: r[k] for k in ("mse", "mutual_information", "mc_mean",
                                   "mc_stderr", "converged")} for r in parsed]
    if command in ("bounds", "capacity"):
        return [list(r.values()) for r in parsed]
    return parsed


def _compare(command, got, ref, problems):
    if command == "verify":
        if got != ref:
            problems.append(f"verify checks {got} differ from recorded {ref}")
        return
    if len(got) != len(ref):
        problems.append(f"{len(got)} rows, recorded {len(ref)}")
        return
    for i, (g, r) in enumerate(zip(got, ref)):
        if command == "rd-curve":
            if g[0] != r[0] or g[1] > r[1] + LAGRANGIAN_TOL * (1.0 + abs(r[1])):
                problems.append(f"slope {g[0]!r}: Lagrangian {g[1]!r} above "
                                f"recorded {r[1]!r}")
        elif command == "simulate":
            for k in ("mse", "mutual_information"):
                if not _close(g[k], r[k], REL_TOL, ABS_TOL):
                    problems.append(f"result {i}: {k} {g[k]!r}, recorded "
                                    f"{r[k]!r}")
            for k in ("mc_mean", "mc_stderr"):
                if not _close(g[k], r[k], MC_REL_TOL):
                    problems.append(f"result {i}: {k} {g[k]!r}, recorded "
                                    f"{r[k]!r}")
            if r["converged"] and not g["converged"]:
                problems.append(f"result {i}: no longer converged")
        else:
            for j, (gv, rv) in enumerate(zip(g, r)):
                if (gv is None) != (rv is None) or (
                        rv is not None and not _close(gv, rv, REL_TOL,
                                                      ABS_TOL)):
                    problems.append(f"row {i} column {j}: {gv!r}, recorded "
                                    f"{rv!r}")


def check(op, code, stdout, reference=None):
    """Problems with one operation's output; empty when it passes.

    Returns (problems, summary); summary is what `record.py` stores.
    """
    problems = []
    command = op["command"]
    if code != 0 and command != "verify":
        return [f"exit code {code}"], None
    try:
        parsed = _CHECKERS[command](op["config"], stdout, code, problems)
    except (ValueError, KeyError, TypeError, StopIteration,
            ZeroDivisionError) as exc:
        return [f"unreadable {command} output: {exc!r}"], None
    summary = summarize(command, parsed)
    ref = (reference or {}).get(op_key(op))
    if ref is not None:
        _compare(command, summary, ref, problems)
    return problems, summary
