"""Scenario configuration for the command line tools.

A scenario is JSON: a prior, a probe list, a transmittance list, grid
sizes, and sampling controls. Probe families may fix their own size
(coherent alpha, number n, superposition d) or leave it out and let a
mean_photons list materialize one probe per target size.
"""

import json
import math

from .errors import ValidationError
from .estimation import SAMPLES_CAP, SimGrid
from .fock import ProbeSpec
from .priors import PhasePrior
from .rate_distortion import RD_GRID_CAP

__all__ = ["ScenarioConfig"]

_PRIOR_KINDS = {"uniform", "wrapped_gaussian", "tabulated"}
_FAMILIES = {"coherent", "number", "flat-superposition", "binomial-phase",
             "amplitudes"}


def _require(cond, template, *args):
    # format the message only when it is raised: a valid config builds none
    if not cond:
        raise ValidationError(template.format(*args))


def _is_number(value, kinds=(int, float)):
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, kinds) and not isinstance(value, bool)


def _build_prior(spec):
    _require(isinstance(spec, dict) and "kind" in spec,
             "prior must be an object with a 'kind'")
    kind = spec["kind"]
    # a JSON list or object is unhashable: test for a string first
    _require(isinstance(kind, str) and kind in _PRIOR_KINDS,
             "unknown prior kind {!r}", kind)
    if kind == "uniform":
        return PhasePrior.uniform(
            center=_prior_number(spec.get("center", math.pi), "center"),
            width=_prior_number(spec.get("width", 2.0 * math.pi), "width"))
    if kind == "wrapped_gaussian":
        _require("mean" in spec and "sigma" in spec,
                 "wrapped_gaussian prior needs 'mean' and 'sigma'")
        return PhasePrior.wrapped_gaussian(_prior_number(spec["mean"], "mean"),
                                           _prior_number(spec["sigma"], "sigma"))
    _require("values" in spec, "tabulated prior needs 'values'")
    values = spec["values"]
    _require(isinstance(values, list),
             "tabulated prior values must be a list, got {!r}", values)
    return PhasePrior.tabulated([_prior_number(v, "value") for v in values])


def _prior_number(value, what):
    _require(_is_number(value),
             "prior {} must be a number, got {!r}", what, value)
    return value


def _amplitudes(raw):
    _require(isinstance(raw, list), "amplitudes must be a list, got {!r}", raw)
    out = []
    for entry in raw:
        pair = entry if isinstance(entry, list) else [entry, 0.0]
        _require(len(pair) == 2 and all(_is_number(x) for x in pair),
                 "each amplitude must be a number or a [re, im] pair of "
                 "numbers, got {!r}", entry)
        out.append(complex(pair[0], pair[1]))
    return out


def _size(spec, key):
    value = spec.get(key)
    _require(value is None or _is_number(value),
             "probe {} must be a number, got {!r}", key, value)
    return value


def _int_like(x, what):
    # 2 * mean_photons + 1 overflows to inf from mean_photons ~ 9e307 on
    _require(math.isfinite(x), "{} must be finite, got {}", what, x)
    _require(abs(x - round(x)) < 1e-9, "{} must be an integer, got {}", what, x)
    return int(round(x))


def _build_probe(spec, mean_photons=None):
    _require(isinstance(spec, dict) and "family" in spec,
             "each probe must be an object with a 'family'")
    family = spec["family"]
    _require(isinstance(family, str) and family in _FAMILIES,
             "unknown probe family {!r}", family)
    if family == "amplitudes":
        _require("amplitudes" in spec, "amplitude probes need 'amplitudes'")
        return ProbeSpec(_amplitudes(spec["amplitudes"]))
    if family == "coherent":
        alpha = _size(spec, "alpha")
        if alpha is not None:
            return ProbeSpec.coherent(alpha)
        _require(mean_photons is not None,
                 "coherent probe needs 'alpha' or a mean_photons list")
        return ProbeSpec.coherent(math.sqrt(mean_photons))
    if family == "number":
        n = _size(spec, "n")
        if n is None:
            _require(mean_photons is not None,
                     "number probe needs 'n' or a mean_photons list")
            n = _int_like(mean_photons, "number probe size")
        return ProbeSpec.number(n)
    # the flat and binomial ladders both average (d - 1) / 2 photons
    d = _size(spec, "d")
    if d is None:
        _require(mean_photons is not None,
                 "{} probe needs 'd' or a mean_photons list", family)
        d = _int_like(2.0 * mean_photons + 1.0, f"{family} level count")
    if family == "flat-superposition":
        return ProbeSpec.flat_superposition(d)
    return ProbeSpec.binomial_phase(d)


class ScenarioConfig:
    """Validated scenario: prior, probes, transmittances, grids, sampling."""

    def __init__(self, prior, probes, etas, grid, rd_grid_size, rd_slopes,
                 seed, samples, mean_photons):
        self.prior = prior
        self.probes = probes
        self.etas = etas
        self.grid = grid
        self.rd_grid_size = rd_grid_size
        self.rd_slopes = rd_slopes
        self.seed = seed
        self.samples = samples
        self.mean_photons = mean_photons

    @classmethod
    def from_dict(cls, raw):
        _require(isinstance(raw, dict), "config must be a JSON object")
        known = {"prior", "probes", "eta", "mean_photons", "grid", "rd",
                 "seed", "samples"}
        extra = set(raw) - known
        if extra:
            raise ValidationError(f"unknown config keys: {sorted(extra)}")

        prior = _build_prior(raw.get("prior", {"kind": "uniform"}))

        etas = raw.get("eta", [1.0])
        if not isinstance(etas, list):
            etas = [etas]
        _require(len(etas) > 0, "eta list must be non-empty")
        for eta in etas:
            _require(_is_number(eta) and 0.0 <= eta <= 1.0,
                     "eta must lie in [0, 1], got {}", eta)

        ns_list = raw.get("mean_photons")
        if ns_list is not None:
            if not isinstance(ns_list, list):
                ns_list = [ns_list]
            _require(len(ns_list) > 0, "mean_photons list must be non-empty")
            for n in ns_list:
                _require(_is_number(n) and 0.0 <= n < math.inf,
                         "mean_photons entries must be finite and >= 0, "
                         "got {}", n)

        specs = raw.get("probes", [])
        _require(isinstance(specs, list), "probes must be a list, got {!r}",
                 specs)
        probes = []
        for spec in specs:
            sized = isinstance(spec, dict) and (
                "alpha" in spec or "n" in spec or "d" in spec
                or spec.get("family") == "amplitudes")
            if sized or ns_list is None:
                probes.append(_build_probe(spec))
            else:
                probes.extend(_build_probe(spec, mean_photons=n)
                              for n in ns_list)

        grid_spec = raw.get("grid", {})
        _require(isinstance(grid_spec, dict), "grid must be an object")
        points = [grid_spec.get(key, 2048)
                  for key in ("phi_points", "theta_points")]
        _require(all(_is_number(n, int) for n in points),
                 "grid points must be integers, got {!r}", grid_spec)
        grid = SimGrid(*points)

        rd = raw.get("rd", {})
        _require(isinstance(rd, dict), "rd must be an object")
        rd_grid_size = rd.get("grid_size", 128)
        _require(_is_number(rd_grid_size, int)
                 and 16 <= rd_grid_size <= RD_GRID_CAP,
                 "rd grid_size must be an integer in [16, {}], got {!r}",
                 RD_GRID_CAP, rd_grid_size)
        rd_slopes = rd.get("slopes", [0.0, 0.25, 0.5])
        _require(isinstance(rd_slopes, list) and len(rd_slopes) > 0,
                 "rd slopes must be a non-empty list")
        for s in rd_slopes:
            _require(_is_number(s) and math.isfinite(s)
                     and s >= 0.0,
                     "rd slopes must be finite and >= 0, got {!r}", s)

        seed = raw.get("seed", 0)
        _require(_is_number(seed, int) and seed >= 0,
                 "seed must be a nonnegative integer, got {}", seed)
        samples = raw.get("samples", 100000)
        _require(_is_number(samples, int) and 10000 <= samples <= SAMPLES_CAP,
                 "samples must be an integer in [10000, {}], got {}",
                 SAMPLES_CAP, samples)

        return cls(prior=prior, probes=probes, etas=list(etas), grid=grid,
                   rd_grid_size=rd_grid_size, rd_slopes=list(rd_slopes),
                   seed=seed, samples=samples, mean_photons=ns_list)

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"malformed config JSON at line {exc.lineno} column {exc.colno}: "
                f"{exc.msg}") from exc
        return cls.from_dict(raw)

    def photon_targets(self):
        """Mean photon numbers for analytic tables: explicit list if given,
        otherwise whatever the probes average."""
        if self.mean_photons is not None:
            return list(self.mean_photons)
        return [probe.mean_photons for probe in self.probes]
