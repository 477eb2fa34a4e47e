"""Repetitions of a workload in a fresh interpreter.

    python child.py SRC PLAN [--setup-only] [--until CLOCK] [--min-reps N]
                    [--trace-after K] [--calibrate]

PLAN is a JSON list of operations, each {"command", "config", "threads"}
with `config` a scenario file. The child imports phasebound from SRC and
parses every scenario (which builds the probes); that is the set-up.
Then it runs repetitions: one `phasebound.cli.main` call per operation,
in order, with stdout captured. It runs at least N repetitions (default
1) and starts another one while the last one would still end before the
monotonic clock reads CLOCK. With --trace-after K the first K
repetitions run untraced, then a Tracer is installed and each later
repetition carries the spans it recorded. With --calibrate every
repetition is preceded by readings of a fixed unit of work (see
`Calibration`), which track the speed of the machine.

It prints one JSON line: the monotonic clock when set-up finished, per
repetition and operation the clock before and after the call, the CPU
time of this process during it, the exit code and the captured output,
and the peak RSS of the process. The parent read the same clock just
before starting this process, so set-up time includes the interpreter's
own start.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time


def _clock():
    # CLOCK_MONOTONIC is system-wide, so the parent can subtract its reading
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


CALIBRATION_SHARE = 0.1    # of the last repetition's time spent calibrating


class Calibration:
    """A fixed unit of work, independent of phasebound: a pure-Python
    loop, 3000 small numpy matrix-vector steps and three 200x200
    symmetric eigendecompositions, the kinds of work the workloads do.
    Its fastest reading in a run measures the speed the machine had."""

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(0)
        self.a = rng.random((64, 64))
        self.v = rng.random(64)
        h = rng.random((200, 200))
        self.h = h + h.T

    def unit(self):
        np = self.np
        start = _clock()
        total = 0
        for i in range(400_000):
            total += i
        w = self.v
        for _ in range(3000):
            w = np.exp(-0.01 * (self.a @ w))
            w /= w.sum()
        for _ in range(3):
            np.linalg.eigh(self.h)
        return _clock() - start

    def readings(self, seconds):
        """Readings of the unit for about `seconds`, at least one."""
        began = _clock()
        out = [self.unit()]
        while _clock() - began < seconds:
            out.append(self.unit())
        return out


def _repetition(cli, plan):
    ops = []
    for op in plan:
        buf = io.StringIO()
        cpu0 = _cpu()
        start = _clock()
        with contextlib.redirect_stdout(buf):
            code = cli.main([op["command"], "--config", op["config"],
                             "--threads", str(op["threads"])])
        end = _clock()
        ops.append({"start": start, "end": end, "cpu": _cpu() - cpu0,
                    "code": code, "stdout": buf.getvalue()})
    return {"ops": ops}


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("src")
    parser.add_argument("plan")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--until", type=float, default=0.0)
    parser.add_argument("--min-reps", type=int, default=1)
    parser.add_argument("--trace-after", type=int, default=None)
    parser.add_argument("--calibrate", action="store_true")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import phasebound
    import phasebound.cli
    from phasebound.config import ScenarioConfig
    if not os.path.abspath(phasebound.__file__).startswith(src + os.sep):
        raise SystemExit(f"phasebound was imported from {phasebound.__file__}, "
                         f"not from {src}")
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    for op in plan:
        ScenarioConfig.from_file(op["config"])
    out = {"ready": _clock(), "reps": []}
    tracer = None
    calibration = Calibration() if args.calibrate else None
    last = step = 0.0
    while not args.setup_only and (len(out["reps"]) < args.min_reps
                                   or _clock() + step <= args.until):
        if len(out["reps"]) == args.trace_after:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer
            tracer = Tracer()
            tracer.install(phasebound)
        began = _clock()
        if calibration is not None:
            readings = calibration.readings(CALIBRATION_SHARE * last)
        ran = _clock()
        rep = _repetition(phasebound.cli, plan)
        last, step = _clock() - ran, _clock() - began
        if calibration is not None:
            rep["calibration"] = readings
        if tracer is not None:
            rep["spans"], tracer.spans = tracer.spans, []
        out["reps"].append(rep)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
