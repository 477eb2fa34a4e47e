import argparse
import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings

import pytest

import phasebound
import phasebound.bounds
import phasebound.estimation
import phasebound.fock
from phasebound.cli import main
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
    # concurrent.futures nor the logging it pulls in
    script = ("import json, sys, phasebound.cli\n"
              "print(json.dumps([m in sys.modules for m in "
              "('concurrent.futures', 'logging')]))\n")
    src = os.path.dirname(os.path.dirname(phasebound.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, False]


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
    # as for simulate, but bounds never draws: no guide table
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
    # a fault raised only in the second slice, on the worker thread,
    # reaches main on the calling thread with its exit code and message
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
    assert len(raised) == 1 and raised[0] is not threading.main_thread()
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


def test_rd_curve_sorted(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SMALL))
    assert main(["rd-curve", "--config", cfg]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "D,R,slope,converged"
    rows = [line.split(",") for line in out[1:]]
    dists = [float(r[0]) for r in rows]
    assert dists == sorted(dists)
    assert all(r[3] in ("true", "false") for r in rows)


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
    # five (probe, eta) scenarios: slices of 3 + 2 on 2 threads and
    # 2 + 2 + 1 on 3; the unconverged warnings on stderr match too
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
    # on 2 threads and 2 + 2 + 1 on 3
    probes = [{"family": "coherent", "alpha": 1.0},
              {"family": "flat-superposition", "d": 4}]
    for probes, etas in [(probes, [1.0, 0.5]),
                         (probes[:1], [1.0, 0.75, 0.5, 0.25, 0.0])]:
        cfg = write_config(tmp_path, dict(
            SMALL, probes=probes, eta=etas,
            grid={"phi_points": 4096, "theta_points": 256}))
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


def test_verify_flags_corrupted_bound(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(phasebound.bounds, "h_limit_bound",
                        lambda q, n: 1000.0)
    cfg = write_config(tmp_path, dict(SMALL))
    assert main(["verify", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "FAIL simulated-mse-between-bounds-and-prior" in out
    assert "h_limit" in out


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
    # each thread runs one contiguous slice of the scenarios as stacked
    # passes, under `bounds` and under `simulate`
    stacks = []
    real = phasebound.estimation._core

    def counted(spec, part, g_theta):
        stacks.append(spec.shape[:-2])
        return real(spec, part, g_theta)

    monkeypatch.setattr(phasebound.estimation, "_core", counted)
    probes = SMALL["probes"] + [{"family": "coherent", "alpha": 1.0}]
    per_thread = 4 // int(threads)
    for command in ("bounds", "simulate"):
        for points, expected in [(256, [(per_thread,)] * 2 * int(threads)),
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
