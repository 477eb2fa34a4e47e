import argparse
import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import phasebound
import phasebound.bounds
import phasebound.estimation
import phasebound.fock
import phasebound.cli as cli
from phasebound.cli import main
from phasebound.config import ScenarioConfig
from phasebound.errors import NumericalError, ValidationError
from phasebound.verification import DEFAULT_BATTERY


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SMALL = {
    "probes": [{"family": "amplitudes", "amplitudes": [0.70710678118654752,
                                                       0.70710678118654752]}],
    "eta": [1.0],
    "grid": {"phi_points": 256, "theta_points": 256},
    "rd": {"grid_size": 16, "slopes": [0.0, 0.25]},
    "samples": 10000,
}


def test_capacity_table(tmp_path, capsys):
    cfg = write_config(tmp_path, {"mean_photons": [1.0], "eta": [1.0, 0.5]})
    assert main(["capacity", "--config", cfg]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "N_S,eta,C_unrestricted,C_ph_upper"
    assert out[1] == "1.0,1.0,1.3862943611198906,"
    assert out[2].startswith("1.0,0.5,1.3862943611198906,1.562779569")


def test_capacity_needs_targets(capsys):
    assert main(["capacity"]) == 2
    assert "mean_photons" in capsys.readouterr().err


def test_bounds_analytic_rows(tmp_path, capsys):
    cfg = write_config(tmp_path, {"mean_photons": [0.0], "eta": [1.0]})
    assert main(["bounds", "--config", cfg]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("N_S,eta,Q,h_limit,hall_wiseman,lossy_sql,escher,"
                      "iti_C,chi,I_meas,mse_sim")
    cells = out[1].split(",")
    assert cells[0] == "0.0"
    assert float(cells[3]) == pytest.approx(0.3128213764565083, rel=1e-12)
    # no probe in the scenario: the simulator columns stay empty
    assert cells[8] == "" and cells[9] == "" and cells[10] == ""


def test_bounds_iti_c_stays_a_bound_at_large_photon_numbers(tmp_path,
                                                            capsys):
    cfg = write_config(tmp_path, {"mean_photons": [1e16], "eta": [0.5]})
    assert main(["bounds", "--config", cfg]) == 0
    cells = capsys.readouterr().out.splitlines()[1].split(",")
    q, iti_c = float(cells[2]), float(cells[7])
    assert iti_c < q
    # Q e^{-2C} with C = ln(1e16) + 1 + 5e-17
    assert iti_c == pytest.approx(q * math.exp(-2.0) / 1e32, rel=1e-12)


def test_bounds_probe_rows(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SMALL))
    assert main(["bounds", "--config", cfg]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    cells = out[1].split(",")
    # lossless two-level probe: the phase-averaged state is maximally
    # mixed on two levels, so chi is exactly ln 2
    assert float(cells[8]) == pytest.approx(0.6931471805599453, abs=1e-9)
    assert float(cells[10]) == pytest.approx(2.789868133696453, abs=1e-2)
    assert float(cells[10]) >= float(cells[3])


def test_bounds_evaluates_each_scenario_once(tmp_path, capsys,
                                             monkeypatch):
    calls, scenarios = {}, []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(phasebound.fock, "chi_decompose")
    counted(phasebound.estimation, "_window")
    real_all = phasebound.fock.chi_decompose_all

    def decompose_all(probes, etas):
        calls["chi_decompose_all"] = calls.get("chi_decompose_all", 0) + 1
        scenarios.extend((p.descriptor()["family"], eta) for p in probes
                         for eta in etas)
        return real_all(probes, etas)

    monkeypatch.setattr(phasebound.fock, "chi_decompose_all", decompose_all)
    probes = SMALL["probes"] + [{"family": "coherent", "alpha": 1.0}]
    cfg = write_config(tmp_path, dict(SMALL, probes=probes,
                                      eta=[1.0, 0.5, 0.0]))
    assert main(["bounds", "--config", cfg]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 3
    # one call decomposes every scenario, each shared by chi and the
    # MMSE run, with one window each
    assert calls == {"chi_decompose_all": 1, "_window": 6}
    assert scenarios == [(family, eta) for family in ("amplitudes", "coherent")
                         for eta in (1.0, 0.5, 0.0)]


def test_bounds_builds_no_guide_table(tmp_path, capsys, monkeypatch):
    # bounds never draws, so neither the masses' guide table nor a
    # window's is built
    tables = []

    def counted_table(p, *args):
        tables.append(p.size)
        return real_table(p, *args)

    real_table = phasebound.estimation._GuideTable
    monkeypatch.setattr(phasebound.estimation, "_GuideTable", counted_table)
    cfg = write_config(tmp_path, dict(SMALL, eta=[1.0, 0.5]))
    assert main(["bounds", "--config", cfg]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert tables == []


def test_bounds_flags_unconverged_mse_sim(tmp_path, capsys):
    # on 256^2 halving the grid moves the two-level MSE by ~2e-4, past the
    # 1e-4 convergence tolerance; on 2048^2 it converges
    coarse = write_config(tmp_path, dict(SMALL, eta=[1.0, 0.5]))
    for threads in ("1", "2"):
        assert main(["bounds", "--config", coarse, "--threads", threads]) == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 3
        lines = err.splitlines()
        assert len(lines) == 2
        for line, eta in zip(lines, ("1.0", "0.5")):
            assert line.startswith("warning: bounds mse_sim for ProbeSpec(")
            assert f"at eta {eta} is not converged" in line
    fine = write_config(tmp_path, dict(SMALL, grid={"phi_points": 2048,
                                                    "theta_points": 2048}),
                        name="fine.json")
    assert main(["bounds", "--config", fine]) == 0
    assert capsys.readouterr().err == ""


def test_eta_prints_as_the_config_gives_it(tmp_path, capsys):
    # an int eta stays an int in the bounds warnings, which print each
    # decomposition's eta; simulate's JSON prints every eta as a float
    cfg = write_config(tmp_path, dict(SMALL, eta=[1, 0.5]))
    assert main(["bounds", "--config", cfg]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert " at eta 1 is not converged: " in lines[0]
    assert " at eta 0.5 is not converged: " in lines[1]
    assert main(["simulate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert '      "eta": 1.0,\n' in out and '      "eta": 0.5,\n' in out


@pytest.mark.parametrize("command", ["bounds", "capacity", "rd-curve",
                                     "simulate", "verify"])
def test_commands_never_import_scipy(tmp_path, command):
    cfg = write_config(tmp_path, dict(SMALL))
    script = ("import json, sys\n"
              "from phasebound.cli import main\n"
              f"code = main([{command!r}, '--config', {cfg!r}, "
              f"'--out', {str(tmp_path / 'out.txt')!r}])\n"
              "print(json.dumps([code, sorted(m for m in sys.modules "
              "if m.split('.')[0] == 'scipy')]))\n")
    src = os.path.dirname(os.path.dirname(phasebound.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]


def test_cli_import_leaves_the_thread_pool_unloaded():
    # --threads starts plain threads: importing the CLI loads neither
    # concurrent.futures nor the logging it pulls in. Only Monte Carlo and
    # the entropy-gain check draw random numbers, inside calls, so the CLI
    # leaves numpy.random unloaded too, where numpy itself does (numpy 2
    # loads it lazily, numpy 1.x on import)
    script = ("import json, sys, numpy\n"
              "bare = 'numpy.random' in sys.modules\n"
              "import phasebound.cli\n"
              "print(json.dumps([m in sys.modules for m in "
              "('concurrent.futures', 'logging', 'numpy.random')] + [bare]))\n")
    src = os.path.dirname(os.path.dirname(phasebound.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    *loaded, bare = json.loads(proc.stdout)
    assert loaded == [False, False, bare]


def test_simulate_builds_the_prior_side_once(tmp_path, capsys, monkeypatch):
    # every (probe, eta) scenario shares the prior's masses and spectra:
    # one build on the fine grid, one on the half grid
    calls = []
    real = phasebound.estimation.discretize_prior

    def counted(prior, grid_size):
        calls.append(grid_size)
        return real(prior, grid_size)

    monkeypatch.setattr(phasebound.estimation, "discretize_prior", counted)
    probes = SMALL["probes"] + [{"family": "coherent", "alpha": 1.0}]
    cfg = write_config(tmp_path, dict(SMALL, probes=probes,
                                      eta=[1.0, 0.5, 0.0]))
    assert main(["simulate", "--config", cfg]) == 0
    assert len(json.loads(capsys.readouterr().out)["results"]) == 6
    assert sorted(calls) == [128, 256]


def count_prior_builds(monkeypatch):
    """The grid sizes discretized and the masses' guide tables built."""
    calls, tables = [], []
    real = phasebound.estimation.discretize_prior
    real_table = phasebound.estimation._GuideTable

    def counted(prior, grid_size):
        calls.append(grid_size)
        time.sleep(0.05)
        return real(prior, grid_size)

    def counted_table(p, *args):
        if not args:   # the masses' table; a window's passes a bucket floor
            tables.append(p.size)
            time.sleep(0.05)
        return real_table(p, *args)

    monkeypatch.setattr(phasebound.estimation, "discretize_prior", counted)
    monkeypatch.setattr(phasebound.estimation, "_GuideTable", counted_table)
    return calls, tables


def test_simulate_builds_the_prior_side_once_on_two_threads(tmp_path, capsys,
                                                           monkeypatch):
    # the calling thread builds the fine and the half-grid prior part and
    # the masses' table before the worker starts, and both slices share
    # them. Each build sleeps, so builds on two threads would overlap.
    calls, tables = count_prior_builds(monkeypatch)
    probes = SMALL["probes"] + [{"family": "coherent", "alpha": 1.0}]
    cfg = write_config(tmp_path, dict(SMALL, probes=probes,
                                      eta=[1.0, 0.5, 0.0]))
    assert main(["simulate", "--config", cfg, "--threads", "2"]) == 0
    assert len(json.loads(capsys.readouterr().out)["results"]) == 6
    assert sorted(calls) == [128, 256]
    assert tables == [256]


def test_bounds_builds_the_prior_side_once_on_two_threads(tmp_path, capsys,
                                                         monkeypatch):
    # as for simulate, but bounds never draws and runs on the calling
    # thread at any --threads: no guide table
    calls, tables = count_prior_builds(monkeypatch)
    probes = SMALL["probes"] + [{"family": "coherent", "alpha": 1.0}]
    cfg = write_config(tmp_path, dict(SMALL, probes=probes,
                                      eta=[1.0, 0.5, 0.0]))
    assert main(["bounds", "--config", cfg, "--threads", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 6
    assert sorted(calls) == [128, 256]
    assert tables == []


@pytest.mark.parametrize("command", ["bounds", "simulate"])
@pytest.mark.parametrize("error,code,prefix", [
    (NumericalError, 3, "numerical error: "), (ValidationError, 2, "error: ")])
def test_worker_failure_exits_with_its_code(command, error, code, prefix,
                                            tmp_path, capsys, monkeypatch):
    # a fault raised only in the second scenario reaches main with its
    # exit code and message. simulate raises it in the second slice, on
    # the worker thread; bounds runs every scenario on the calling thread
    raised = []
    cfg = write_config(tmp_path, dict(SMALL, eta=[1.0, 0.5], seed=7))
    if command == "simulate":
        module, name = phasebound.estimation, "monte_carlo_mse"
        real = module.monte_carlo_mse

        def fault(sim, samples=100000, seed=0):
            if seed == 8:   # the scenario at index 1
                raised.append(threading.current_thread())
                raise error("second slice failed")
            return real(sim, samples=samples, seed=seed)
    else:
        module, name = phasebound.fock, "holevo_quantity"
        real = module.holevo_quantity

        def fault(decomp, prior):
            if decomp.eta == 0.5:
                raised.append(threading.current_thread())
                raise error("second slice failed")
            return real(decomp, prior)

    monkeypatch.setattr(module, name, fault)
    assert main([command, "--config", cfg, "--threads", "1"]) == code
    assert raised == [threading.main_thread()]
    assert capsys.readouterr() == ("", f"{prefix}second slice failed\n")
    raised.clear()
    assert main([command, "--config", cfg, "--threads", "2"]) == code
    assert len(raised) == 1
    assert (raised[0] is threading.main_thread()) == (command == "bounds")
    assert capsys.readouterr() == ("", f"{prefix}second slice failed\n")


def test_threads_beyond_the_scenarios_start_one_worker_each(tmp_path,
                                                             monkeypatch):
    # 2 scenarios at --threads 64 make 2 slices: the calling thread runs
    # the first and one worker the second. The counter refuses a second
    # worker, so this test never starts more than one thread.
    started = []
    real_start = threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        assert len(started) == 1, "a second worker thread was started"
        real_start(thread)

    cfg = write_config(tmp_path, dict(SMALL, eta=[1.0, 0.5]))
    one, many = (str(tmp_path / name) for name in ("one.json", "many.json"))
    assert main(["simulate", "--config", cfg, "--out", one]) == 0
    monkeypatch.setattr(threading.Thread, "start", counted_start)
    assert main(["simulate", "--config", cfg, "--out", many,
                 "--threads", "64"]) == 0
    assert len(started) == 1
    assert open(one, "rb").read() == open(many, "rb").read()


def test_analytic_bounds_start_no_thread(tmp_path, monkeypatch):
    # rows without probes are build_report in Python, which holds the GIL
    def refuse(thread):
        raise AssertionError("bounds started a thread")

    cfg = write_config(tmp_path, {"mean_photons": [0.5, 1.0, 4.0],
                                  "eta": [1.0, 0.5]})
    one, two = (str(tmp_path / name) for name in ("one.csv", "two.csv"))
    assert main(["bounds", "--config", cfg, "--out", one]) == 0
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert main(["bounds", "--config", cfg, "--out", two,
                 "--threads", "2"]) == 0
    assert open(one, "rb").read() == open(two, "rb").read()


def test_probe_bounds_start_no_thread(tmp_path, monkeypatch):
    # probe rows share one MMSE pass on the calling thread at any --threads
    def refuse(thread):
        raise AssertionError("bounds started a thread")

    probes = SMALL["probes"] + [{"family": "coherent", "alpha": 1.0}]
    cfg = write_config(tmp_path, dict(SMALL, probes=probes, eta=[1.0, 0.5]))
    one, four = (str(tmp_path / name) for name in ("one.csv", "four.csv"))
    assert main(["bounds", "--config", cfg, "--out", one]) == 0
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert main(["bounds", "--config", cfg, "--out", four,
                 "--threads", "4"]) == 0
    assert open(one, "rb").read() == open(four, "rb").read()
    assert len(open(one).read().splitlines()) == 1 + 4


def test_rd_curve_sorted(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SMALL))
    assert main(["rd-curve", "--config", cfg]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "D,R,slope,converged"
    rows = [line.split(",") for line in out[1:]]
    dists = [float(r[0]) for r in rows]
    assert dists == sorted(dists)
    assert all(r[3] in ("true", "false") for r in rows)


def test_rd_curve_warns_of_uncertified_slopes(tmp_path, capsys,
                                             monkeypatch):
    # one solver step leaves a window prior's point short of its
    # certificate, and above the zero-rate point in D; slope 0 needs none
    monkeypatch.setattr(phasebound.rate_distortion, "BA_MAX_ITER", 1)
    cfg = write_config(tmp_path, dict(
        SMALL, prior={"kind": "uniform", "center": 3.0, "width": 1.0},
        rd={"grid_size": 32, "slopes": [0.0, 0.5]}))
    assert main(["rd-curve", "--config", cfg]) == 0
    out, err = capsys.readouterr()
    assert [line.split(",")[2:] for line in out.splitlines()[1:]] == [
        ["0.0", "true"], ["0.5", "false"]]
    assert err == ("warning: rd-curve slopes [0.5] did not reach the "
                   "certified gap 1e-09 within 1 iterations\n")


def test_simulate_single_scenario_json(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SMALL))
    assert main(["simulate", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"mse", "mutual_information", "converged",
                            "mc_mean", "mc_stderr"}
    assert payload["mse"] == pytest.approx(2.789868133696453, abs=1e-2)
    assert abs(payload["mc_mean"] - payload["mse"]) \
        <= 4.0 * payload["mc_stderr"]


def test_simulate_grid_of_scenarios(tmp_path, capsys):
    raw = dict(SMALL)
    raw["eta"] = [1.0, 0.5]
    cfg = write_config(tmp_path, raw)
    assert main(["simulate", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["results"]) == 2
    assert payload["results"][1]["eta"] == 0.5
    assert payload["results"][1]["probe"]["family"] == "amplitudes"


def test_simulate_seed_override(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SMALL))
    main(["simulate", "--config", cfg, "--seed", "1"])
    first = json.loads(capsys.readouterr().out)
    main(["simulate", "--config", cfg, "--seed", "2"])
    second = json.loads(capsys.readouterr().out)
    main(["simulate", "--config", cfg, "--seed", "1"])
    again = json.loads(capsys.readouterr().out)
    assert first["mc_mean"] != second["mc_mean"]
    assert first == again
    assert first["mse"] == second["mse"]  # quadrature ignores the seed


def test_outputs_byte_identical(tmp_path):
    cfg = write_config(tmp_path, dict(SMALL))
    a, b, c = (str(tmp_path / name) for name in ("a.csv", "b.csv", "c.csv"))
    assert main(["bounds", "--config", cfg, "--out", a]) == 0
    assert main(["bounds", "--config", cfg, "--out", b]) == 0
    assert main(["bounds", "--config", cfg, "--out", c, "--threads", "4"]) == 0
    blob = open(a, "rb").read()
    assert blob == open(b, "rb").read()
    assert blob == open(c, "rb").read()  # worker count cannot leak in


@pytest.mark.parametrize("command", ["bounds", "capacity"])
def test_tables_bytes_independent_of_threads(command, tmp_path, capsys):
    # five (probe, eta) scenarios, which neither command slices across
    # threads; the unconverged warnings on stderr match too
    cfg = write_config(tmp_path, dict(
        SMALL, probes=[{"family": "coherent", "alpha": 1.0}],
        eta=[1.0, 0.75, 0.5, 0.25, 0.0]))
    blobs = []
    for threads in "123":
        out = str(tmp_path / f"{command}{threads}.csv")
        assert main([command, "--config", cfg, "--out", out,
                     "--threads", threads]) == 0
        blobs.append((open(out, "rb").read(), capsys.readouterr()))
    assert len(blobs[0][0].splitlines()) == 1 + 5
    assert blobs[0] == blobs[1] == blobs[2]


def test_simulate_bytes_independent_of_threads(tmp_path):
    # phase grid finer than the outcome grid: the snapped Monte Carlo path.
    # 4 scenarios run as slices of 2 + 2 on 2 and on 3 threads, 5 as 3 + 2
    # on 2 threads and 2 + 2 + 1 on 3. At 2^15 x 256 an MMSE pass holds
    # one scenario (STACK_POINTS), so each slice runs several passes
    probes = [{"family": "coherent", "alpha": 1.0},
              {"family": "flat-superposition", "d": 4}]
    for probes, etas, phi_points in [
            (probes, [1.0, 0.5], 4096),
            (probes[:1], [1.0, 0.75, 0.5, 0.25, 0.0], 4096),
            (probes, [1.0, 0.5], 2 ** 15)]:
        cfg = write_config(tmp_path, dict(
            SMALL, probes=probes, eta=etas,
            grid={"phi_points": phi_points, "theta_points": 256}))
        blobs = []
        for threads in "123":
            out = str(tmp_path / f"sim{threads}.json")
            assert main(["simulate", "--config", cfg, "--out", out,
                         "--threads", threads]) == 0
            blobs.append(open(out, "rb").read())
        assert len(json.loads(blobs[0])["results"]) == len(probes) * len(etas)
        assert blobs[0] == blobs[1] == blobs[2]


def test_verify_default_battery(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SMALL))
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "verify: OK"
    assert "FAIL" not in out


def test_verify_seed_applies_to_the_default_battery(tmp_path, capsys):
    def verify(*args):
        assert main(["verify", *args]) == 0
        return capsys.readouterr().out

    battery = write_config(tmp_path, dict(DEFAULT_BATTERY, seed=3))
    seeded = verify("--seed", "3")
    assert seeded == verify("--config", battery)
    assert seeded != verify()


def test_prior_on_odd_grid_points_is_unconverged(tmp_path, capsys):
    # all the prior's mass sits on phase point 3 of 256, so the half grid
    # holds none of it: the fine values stand, unconfirmed
    raw = dict(SMALL, prior={"kind": "uniform",
                             "center": 2.0 * math.pi * 3 / 256,
                             "width": 1e-4})
    cfg = write_config(tmp_path, raw)
    assert main(["simulate", "--config", cfg]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["converged"] is False
    assert err == ""
    assert main(["bounds", "--config", cfg]) == 0
    (line,) = capsys.readouterr().err.splitlines()
    assert line.endswith("is not converged: the half grid holds none of "
                         "the prior's mass")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a tabulated prior has two "
                   "readings: point masses for chi, a linear interpolant "
                   "for the simulator (ROADMAP item 9)")
def test_verify_passes_a_two_point_tabulated_prior(tmp_path, capsys):
    # the reading the simulator draws from measures 0.68 nats of
    # information where chi, read off the node masses, is 0
    cfg = write_config(tmp_path, {
        "prior": {"kind": "tabulated", "values": [0.3183098861837907, 0.0]},
        "grid": {"phi_points": 256, "theta_points": 256},
        "rd": {"grid_size": 16, "slopes": [0.0, 0.5]},
        "samples": 10000})
    assert main(["verify", "--config", cfg]) == 0


def test_verify_flags_corrupted_bound(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(phasebound.bounds, "h_limit_bound",
                        lambda q, n: 1000.0)
    cfg = write_config(tmp_path, dict(SMALL))
    assert main(["verify", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "FAIL simulated-mse-between-bounds-and-prior" in out
    assert "h_limit" in out


@pytest.mark.parametrize("payload, reason", [
    (b'\xff\xfe{"eta": 1}', "'utf-8' codec can't decode byte 0xff in "
                             "position 0: invalid start byte"),
    (b"[" * 100000, "maximum recursion depth exceeded")],
    ids=["not-utf8", "nested-100000-deep"])
def test_undecodable_config_exits_2(tmp_path, capsys, payload, reason):
    # a file json cannot decode is invalid input, not a crash with exit 1,
    # which is verify's code for a violated inequality
    path = tmp_path / "cfg.json"
    path.write_bytes(payload)
    assert main(["capacity", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err, = captured.err.splitlines()
    assert err.startswith("error: config cannot be decoded: " + reason)
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("payload, start", [
    ({"seed": list(range(100000))},
     "error: seed must be a nonnegative integer, got [0, 1, 2, "),
    ({"grid": {f"key{k}": 1 for k in range(20000)}},
     "error: unknown grid keys: ['key0', 'key1', 'key10', "),
    ({"eta": [[0.5] * 50000]}, "error: eta must lie in [0, 1], got [0.5, ")],
    ids=["seed-list-100000", "grid-keys-20000", "nested-eta-50000"])
def test_oversized_config_value_prints_one_clipped_line(tmp_path, capsys,
                                                        payload, start):
    # each message quotes its value in full, hundreds of kilobytes of it
    cfg = write_config(tmp_path, payload)
    assert main(["capacity", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err, = captured.err.splitlines()
    assert len(err) == cli.MAX_ERROR_LINE
    assert err.startswith(start) and err.endswith("...")


@pytest.mark.parametrize("error, prefix, code", [
    (ValidationError, "error: ", 2), (NumericalError, "numerical error: ", 3)])
def test_error_lines_are_clipped_past_the_cap(monkeypatch, capsys, error,
                                              prefix, code):
    # a line of exactly MAX_ERROR_LINE characters is printed as it is;
    # one character more and it keeps MAX_ERROR_LINE - 3 and "..."
    cap = cli.MAX_ERROR_LINE
    for size, line in ((cap, prefix + "x" * (cap - len(prefix))),
                       (cap + 1, prefix + "x" * (cap - 3 - len(prefix))
                        + "...")):
        def fail(raw, size=size):
            raise error("x" * (size - len(prefix)))

        monkeypatch.setattr(ScenarioConfig, "from_dict", fail)
        assert main(["capacity"]) == code
        assert capsys.readouterr() == ("", line + "\n")


@pytest.mark.parametrize("threads", ["65", str(10 ** 9)])
def test_threads_past_the_cap_exit_2_before_any_thread(monkeypatch, capsys,
                                                       threads):
    # rejected before the config is read, so no thread is ever built: a
    # refused OS thread would escape as a traceback with exit 1
    class NoThread:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a thread was constructed")

    monkeypatch.setattr(threading, "Thread", NoThread)
    assert main(["simulate", "--config", "missing.json",
                 "--threads", threads]) == 2
    assert capsys.readouterr() == (
        "", f"error: threads must be in [1, 64], got {threads}\n")


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"prior": {"kind": }}')
    assert main(["bounds", "--config", str(bad)]) == 2
    assert "line 1 column 20" in capsys.readouterr().err

    unknown = write_config(tmp_path, {"probes": [{"family": "laser"}]},
                           name="unknown.json")
    assert main(["bounds", "--config", unknown]) == 2

    missing = str(tmp_path / "missing.json")
    assert main(["bounds", "--config", missing]) == 2

    # Python's json module reads Infinity, which is no photon number
    infinite = tmp_path / "infinite.json"
    infinite.write_text('{"mean_photons": [Infinity], "eta": [0.5]}')
    assert main(["capacity", "--config", str(infinite)]) == 2
    assert "finite" in capsys.readouterr().err

    # --out names a directory, or a file in a missing directory
    table = write_config(tmp_path, {"mean_photons": [1.0], "eta": [1.0]},
                         name="table.json")
    for out in (tmp_path, tmp_path / "missing" / "out.csv"):
        assert main(["capacity", "--config", table, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    # a width the prior's working grid cannot resolve
    narrow = write_config(tmp_path, {
        "prior": {"kind": "wrapped_gaussian", "mean": 0.000767,
                  "sigma": 1e-4},
        "mean_photons": [1.0], "eta": [1.0]}, name="narrow.json")
    assert main(["bounds", "--config", narrow]) == 2
    assert "sigma in [0.002, 4.4]" in capsys.readouterr().err

    assert main(["bounds"]) == 2  # neither probes nor a mean_photons list
    assert capsys.readouterr().err == \
        "error: bounds table needs probes or a mean_photons list\n"
    # Python's json module reads NaN, which is no amplitude
    nan_amps = tmp_path / "nan_amps.json"
    nan_amps.write_text('{"probes": [{"family": "amplitudes", '
                        '"amplitudes": [NaN, 1.0]}]}')
    assert main(["bounds", "--config", str(nan_amps)]) == 2
    assert capsys.readouterr().err == "error: amplitudes must be finite\n"

    assert main(["simulate"]) == 2  # no probes configured
    assert main(["capacity", "--threads", "0"]) == 2
    assert main(["capacity", "--seed", "-1"]) == 2

    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_prior_missing_every_grid_point_exits_2(tmp_path, capsys):
    raw = dict(SMALL, rd={"grid_size": 64, "slopes": [0.0, 0.25]})
    raw["prior"] = {"kind": "uniform", "center": 1.0, "width": 1e-6}
    cfg = write_config(tmp_path, raw)
    # the simulator's phase grid has 256 points, the rate-distortion one 64
    for command, size in (("simulate", 256), ("bounds", 256),
                          ("rd-curve", 64), ("verify", 64)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"prior puts no mass on the {size}-point phase grid" in err
        assert "RuntimeWarning" not in err
        assert [w for w in caught if w.category is RuntimeWarning] == []


def test_float_overflows_exit_cleanly(tmp_path, capsys):
    # |alpha|^2 would overflow: rejected as a probe past the cutoff cap
    cfg = write_config(tmp_path, {"probes": [{"family": "coherent",
                                              "alpha": 1e200}],
                                  "eta": [0.5]})
    assert main(["bounds", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err == "error: coherent alpha=1e+200 needs cutoff beyond 128\n"
    # (N_S + 1)^2 in h_limit and hall_wiseman overflows; both floors
    # divide by N_S + 1 twice there and print a row
    cfg = write_config(tmp_path, {"mean_photons": [1e200], "eta": [0.5]})
    assert main(["bounds", "--config", cfg]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    row = dict(zip(out.splitlines()[0].split(","),
                   out.splitlines()[1].split(",")))
    for name in ("h_limit", "hall_wiseman"):
        value = float(row[name])
        assert math.isfinite(value) and value >= 0.0, (name, value)


@pytest.mark.parametrize("family", ["flat-superposition", "binomial-phase"])
def test_ladder_size_overflow_exits_2(tmp_path, capsys, family):
    # 2 * N_S + 1 is inf from a finite N_S ~ 9e307 on: past the cap, so a
    # validation error, not a numerical one
    cfg = write_config(tmp_path, {"mean_photons": [9e307], "eta": [0.5],
                                  "probes": [{"family": family}]})
    assert main(["bounds", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {family} level count must be finite, got inf\n"


def test_overflow_error_exits_3(tmp_path, capsys, monkeypatch):
    # an OverflowError anywhere is a numerical error, not a traceback
    def overflow(*args):
        raise OverflowError("math range error")

    monkeypatch.setattr(phasebound.bounds, "h_limit_bound", overflow)
    cfg = write_config(tmp_path, {"mean_photons": [1.0], "eta": [0.5]})
    assert main(["bounds", "--config", cfg]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numerical error: math range error\n"


def test_numerical_errors_map_to_exit_3(tmp_path, capsys, monkeypatch):
    def explode(decomps, parts):
        raise NumericalError("negative eigenvalue -1e-3")

    monkeypatch.setattr(phasebound.estimation, "bayesian_mmse_all", explode)
    cfg = write_config(tmp_path, dict(SMALL))
    assert main(["simulate", "--config", cfg]) == 3
    assert "negative eigenvalue" in capsys.readouterr().err


def test_negative_window_exits_3(tmp_path, capsys, monkeypatch):
    # a window transform that dips below zero is not a state's density
    monkeypatch.setattr(np.fft, "hfft", lambda half, n: np.full(n, -1.0))
    cfg = write_config(tmp_path, dict(SMALL))
    assert main(["simulate", "--config", cfg]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numerical error: outcome density dips to " \
        f"{-1.0 / (2.0 * math.pi)}; not a valid state\n"


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: phasebound ")
    for line in ("  bounds    tabulate every analytic MSE bound as CSV",
                 "  capacity  tabulate channel capacities as CSV",
                 "  rd-curve  sweep the rate-distortion curve as CSV",
                 "  simulate  run the measurement simulator, JSON output",
                 "  verify    cross-check bounds against the simulator"):
        assert line in out.splitlines()


def test_help_wraps_at_the_width_of_each_call(capsys, monkeypatch):
    # the parser is built at import, but its help is formatted when printed
    texts = []
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit):
            main(["--help"])
        texts.append(capsys.readouterr().out)
    narrow, wide = texts
    assert narrow != wide
    assert max(len(line) for line in narrow.splitlines()[:3]) <= 60
    assert "[--threads THREADS]" not in narrow.splitlines()[0]
    assert "[--threads THREADS]" in wide.splitlines()[0]


def test_main_does_not_build_a_parser(tmp_path, capsys, monkeypatch):
    # the parser is built once, at import: calls made after any further
    # ArgumentParser would raise print the same bytes as before
    calls = [["capacity", "--config", write_config(
                 tmp_path, {"mean_photons": [1.0, 4.0], "eta": [1.0, 0.5]},
                 "capacity.json")],
             ["bounds", "--config", write_config(tmp_path, SMALL)]]
    before = []
    for argv in calls:
        assert main(argv) == 0
        before.append(capsys.readouterr())

    def refuse(self, *args, **kwargs):
        raise AssertionError("main built an ArgumentParser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    for argv, printed in zip(calls, before):
        assert main(argv) == 0
        assert capsys.readouterr() == printed


@pytest.mark.parametrize("argv,message", [
    ([], "the following arguments are required: command"),
    (["tabulate"], "argument command: invalid choice: 'tabulate'"),
    (["verify", "--threads", "abc"], "argument --threads: invalid int value"),
    (["--seed", "x", "verify"], "argument --seed: invalid int value")])
def test_bad_command_lines_exit_2(argv, message, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: phasebound ")
    assert message in captured.err


def test_options_may_precede_the_command(tmp_path, capsys):
    assert main(["--seed", "3", "verify"]) == 0
    before = capsys.readouterr().out
    assert main(["verify", "--seed", "3"]) == 0
    assert before == capsys.readouterr().out
    cfg = write_config(tmp_path, {"mean_photons": [1.0], "eta": [0.5]})
    out = str(tmp_path / "table.csv")
    assert main(["--config", cfg, "--out", out, "capacity"]) == 0
    assert capsys.readouterr().out == ""
    assert open(out).read().startswith("N_S,eta,C_unrestricted,C_ph_upper\n")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_bounds_above_the_stack_cap_runs_one_scenario_per_pass(
        threads, tmp_path, capsys, monkeypatch):
    # under `simulate` each thread runs one contiguous slice of the
    # scenarios as stacked passes; `bounds` runs them all on the calling
    # thread, at any --threads
    stacks = []
    real = phasebound.estimation._core

    def counted(spec, part, g_theta):
        stacks.append(spec.shape[:-2])
        return real(spec, part, g_theta)

    monkeypatch.setattr(phasebound.estimation, "_core", counted)
    probes = SMALL["probes"] + [{"family": "coherent", "alpha": 1.0}]
    for command in ("bounds", "simulate"):
        slices = int(threads) if command == "simulate" else 1
        for points, expected in [(256, [(4 // slices,)] * 2 * slices),
                                 (2 * phasebound.estimation.STACK_POINTS,
                                  [(1,)] * 8)]:
            cfg = write_config(tmp_path, dict(
                SMALL, probes=probes, eta=[1.0, 0.5],
                grid={"phi_points": points, "theta_points": 256}))
            assert main([command, "--config", cfg]) == 0
            lone = capsys.readouterr().out
            stacks.clear()
            assert main([command, "--config", cfg, "--threads", threads]) == 0
            assert capsys.readouterr().out == lone
            rows = lone.splitlines()[1:] if command == "bounds" else \
                json.loads(lone)["results"]
            assert len(rows) == 4
            assert stacks == expected
            stacks.clear()
