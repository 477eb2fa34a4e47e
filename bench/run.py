"""Benchmark of the phasebound command line, end to end and per layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; phasebound is imported from its src/.
The seed picks the workload's scenarios (see workloads.py). A
repetition runs every operation of the workload (one
`phasebound.cli.main` call each) once, in order, in a child interpreter
(child.py) with BLAS pinned to one thread, so `--threads` is the only
parallelism. Every output is checked (checks.py); an operation fails on
a nonzero exit or a failed check. Each call is an attempted operation,
and so is each set-up-only child; a child that crashes or times out
fails its operations and ends the run.

--trace 0 runs three set-up-only children, one cold child with one
repetition, one warm child that repeats the workload until --seconds
have passed since the run began (at least twice), less the time kept for
three more set-up-only children at the end. The warm child's malloc
keeps freed memory (WARM_HEAP); its first repetition is a warm-up and is
not timed. The end-to-end metrics:
  setup_s      interpreter start + `import phasebound` + scenario parsing
               and probe construction; median over all eight children,
               taken at both ends of the run so that one slow spell of
               the machine does not hold all of them; scaled to the
               reference speed (below)
  wall_s       time to solution of all operations of one repetition,
               after set-up; the fastest of the warm child's timed
               repetitions, scaled to the reference speed (below)
  cpu_s        user + system CPU of the child during those calls; the
               least over the same repetitions, scaled the same way
The machine's speed changes by up to a factor of two within seconds
(cores shared with other work), and that only ever adds time, so the
fastest of many repetitions is the steadiest figure of the program's own
cost. Its speed also drifts by 20-40% over minutes, which no figure
taken within one run can remove. So the warm child also times a fixed
unit of work that does not involve phasebound (child.Calibration)
before each repetition, and the three times are scaled by
CALIBRATION_REFERENCE_S / u, with u the fastest reading of that unit in
the run: the time the workload takes on a machine that runs the unit in
CALIBRATION_REFERENCE_S seconds. The raw figures are printed on the line
before the result.
  peak_rss_mb  ru_maxrss of the cold child, which runs with the default
               allocator
--trace 1 runs one warm child: a warm-up repetition, one untraced
repetition, then traced ones (tracer.py) until --seconds have passed (at
least one). It reports the per-layer metrics, medians over the traced
repetitions; trace_overhead compares traced and untraced wall time.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Without a src/phasebound package next to
this directory the benchmark exits with code 2 and prints no result.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN_DIR = BENCH.parent / ".bench_run"   # scratch space inside the checkout
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNTS, END, ID, LAYER, NAME, PARENT, START  # noqa: E402

SETUP_PROBES = 3     # set-up-only children at each end of a run
# scaled times are those of a machine whose fastest child.Calibration
# reading is this; the machine in README.md reads 0.037-0.057 s
CALIBRATION_REFERENCE_S = 0.045
DEADLINE_S = 170.0   # a run must end within 180 s
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
# glibc malloc serves every block from its heap and never gives freed
# memory back, so after one repetition the process reuses pages it has
# already touched and the kernel's page-fault time leaves the timings
WARM_HEAP = {"MALLOC_MMAP_THRESHOLD_": str(1 << 40),
             "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class ChildFailed(Exception):
    """A child timed out or crashed; the run stops there."""


class Runner:
    """Runs children of one workload and checks their outputs."""

    def __init__(self, root, ops, workdir, deadline):
        self.src = root / "src"
        self.ops = ops
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "PHASEBOUND_THREADS")
                    and not k.startswith("MALLOC_")}
        self.env.update(BLAS_PIN)
        plan = []
        for i, op in enumerate(ops):
            path = workdir / f"{i}-{op['name']}.json"
            path.write_text(json.dumps(op["config"]), encoding="utf-8")
            plan.append({"command": op["command"], "config": str(path),
                         "threads": op["threads"]})
        self.plan = workdir / "plan.json"
        self.plan.write_text(json.dumps(plan), encoding="utf-8")
        self.reference = json.loads(
            (BENCH / "reference.json").read_text(encoding="utf-8"))
        self.attempted = 0
        self.failures = []
        self.setups = []

    def child(self, *flags, warm=False):
        """Start child.py on the plan and check every output it returns.

        An operation in a repetition is one attempted operation, and so
        is a set-up-only child. `warm` gives the child the allocator
        settings of WARM_HEAP."""
        argv = [sys.executable, str(BENCH / "child.py"), str(self.src),
                str(self.plan), *flags]
        names = ["set-up"] if "--setup-only" in flags else \
            [op["name"] for op in self.ops]
        env = dict(self.env, **WARM_HEAP) if warm else self.env
        spawned = _clock()
        try:
            proc = subprocess.run(argv, env=env, capture_output=True,
                                  text=True,
                                  timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            self.attempted += len(names)
            self.failures.extend(f"{name}: timed out" for name in names)
            raise ChildFailed
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            self.attempted += len(names)
            self.failures.extend(f"{name}: child exited {proc.returncode}: "
                                 f"{tail}" for name in names)
            raise ChildFailed
        out = json.loads(lines[-1])
        self.setups.append(out["ready"] - spawned)
        self.attempted += len(names) * max(1, len(out["reps"]))
        for rep in out["reps"]:
            for op, res in zip(self.ops, rep["ops"]):
                problems, res["summary"] = checks.check(
                    op, res["code"], res["stdout"], self.reference)
                if problems:
                    self.failures.append(f"{op['name']}: "
                                         + "; ".join(problems))
        return out

    def setup_probe(self):
        """A set-up-only child; returns how long it took."""
        began = _clock()
        self.child("--setup-only")
        return _clock() - began

    def repetition(self):
        """Run every operation once in a cold child; returns the checked
        repetition."""
        return self.child()["reps"][0]


def _union_length(intervals, lo, hi):
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def layer_metrics(rep, ops, names):
    """Per-layer figures of one traced repetition; `names` start at 0."""
    m = defaultdict(float, dict.fromkeys(names, 0.0))
    spans = rep["spans"]
    kids = defaultdict(list)
    layer_of = {s[ID]: s[LAYER] for s in spans}
    for s in spans:
        kids[s[PARENT]].append((s[START], s[END]))
    # cli.main runs once per operation, in plan order
    mains = sorted((s for s in spans if s[NAME] == "cli.main"),
                   key=lambda s: s[START])
    busy = sum(end - start for s in mains for start, end in kids[s[ID]])
    capacity = sum((s[END] - s[START]) * op["threads"]
                   for s, op in zip(mains, ops))
    for s in spans:
        dur = s[END] - s[START]
        layer, name, counts = s[LAYER], s[NAME], s[COUNTS]
        m[f"{layer}.self_s"] += dur - _union_length(kids[s[ID]],
                                                    s[START], s[END])
        if name == "rate_distortion.blahut_arimoto_point":
            m["rate_distortion.ba_s"] += dur
            m["rate_distortion.ba_iters"] += counts["ba_iters"]
            m["rate_distortion.unconverged"] += counts["ba_unconverged"]
            m["rate_distortion.gap_max"] = max(
                m["rate_distortion.gap_max"], counts["ba_gap"])
        elif name in ("estimation.bayesian_mmse",
                      "estimation.measurement_mutual_information"):
            m["estimation.mmse_s"] += dur
        elif name == "estimation.monte_carlo_mse":
            m["estimation.mc_s"] += dur
        elif name == "fock.chi_decompose":
            m["fock.chi_decompose_s"] += dur
        elif name == "fock.average_state":
            m["fock.average_state_s"] += dur
        elif name == "fock.von_neumann_entropy":
            m["fock.entropy_s"] += dur
        elif name == "capacity.binomial_loss_matrix":
            m["capacity.loss_matrix_s"] += dur
            m["capacity.loss_matrix_calls"] += 1
        elif name == "bounds.build_report":
            m["bounds.report_s"] += dur
        if layer == "config" and layer_of.get(s[PARENT]) != "config":
            m["config.parse_s"] += dur
        m["estimation.grid_cells"] += counts.get("grid_cells", 0)
        m["estimation.unconverged"] += counts.get("mmse_unconverged", 0)
        if "state_dim" in counts:
            dim = counts["state_dim"]
            m["fock.states"] += 1
            m["fock.max_dim"] = max(m["fock.max_dim"], dim)
            m["fock.matrix_bytes"] += dim * dim * 16
    iters = m["rate_distortion.ba_iters"]
    m["rate_distortion.us_per_iter"] = \
        1e6 * m["rate_distortion.ba_s"] / iters if iters else 0.0
    m["cli.busy_ratio"] = busy / capacity if capacity else 0.0
    return m


def _wall(rep):
    return sum(res["end"] - res["start"] for res in rep["ops"])


def _machine_facts():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_pin": BLAS_PIN}


def measure(runner, seconds, trace, names):
    """One run of a workload; returns the metrics and the timed
    repetitions.

    --trace 0: set-up-only children, then one cold child for the peak
    RSS, then one warm child that repeats the workload until --seconds
    are used up but for the time the closing set-up-only children take;
    its first repetition warms the allocator and is not timed.
    --trace 1: one warm child whose first repetition warms up, whose
    second is the untraced reference and whose later ones are traced."""
    begin = _clock()
    end = min(begin + seconds, runner.deadline - 10.0)
    if trace:
        out = runner.child("--until", repr(end), "--min-reps", "3",
                           "--trace-after", "2", warm=True)
        untraced, reps = out["reps"][1], out["reps"][2:]
        per_rep = [layer_metrics(rep, runner.ops, names) for rep in reps]
        metrics = {n: statistics.median(r[n] for r in per_rep)
                   for n in names}
        traced = statistics.median(_wall(rep) for rep in reps)
        metrics["trace_overhead"] = traced / _wall(untraced) - 1.0
        return metrics, reps
    closing = SETUP_PROBES * max(runner.setup_probe()
                                 for _ in range(SETUP_PROBES))
    cold = runner.child()
    warm = runner.child("--until", repr(end - closing), "--min-reps", "2",
                        "--calibrate", warm=True)["reps"]
    for _ in range(SETUP_PROBES):
        runner.setup_probe()
    reps = warm[1:]
    unit = min(r for rep in warm for r in rep["calibration"])
    scale = CALIBRATION_REFERENCE_S / unit
    raw = {"setup_s": statistics.median(runner.setups),
           "wall_s": min(_wall(rep) for rep in reps),
           "cpu_s": min(sum(res["cpu"] for res in rep["ops"])
                        for rep in reps),
           "calibration_s": unit}
    print(json.dumps({"raw": raw}))
    metrics = {
        "setup_s": raw["setup_s"] * scale,
        "wall_s": raw["wall_s"] * scale,
        "cpu_s": raw["cpu_s"] * scale,
        "peak_rss_mb": cold["maxrss_kb"] / 1024.0,
    }
    return metrics, reps


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    root = BENCH.parent
    if not (root / "src" / "phasebound" / "__init__.py").is_file():
        print(f"error: no phasebound package under {root / 'src'}",
              file=sys.stderr)
        return 2
    deadline = _clock() + DEADLINE_S
    ops = workloads.generate(args.workload, args.seed)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "inputs_sha256": workloads.inputs_hash(ops),
                      "machine": _machine_facts()}))
    workdir = RUN_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(root, ops, workdir, deadline)
        try:
            metrics, reps = measure(runner, args.seconds, bool(args.trace),
                                    [m["name"] for m in wanted])
        except ChildFailed:
            metrics, reps = None, []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace and reps:
        spans = [rep["spans"] for rep in reps]
        trace_file = RUN_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(spans), encoding="utf-8")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print(json.dumps({"repetitions": len(reps),
                      "operations": runner.attempted,
                      "wall_s": [round(_wall(rep), 4) for rep in reps]}))
    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]] if metrics
                                else 0.0, "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
