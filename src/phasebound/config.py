"""Scenario configuration for the command line tools.

A scenario is JSON: a prior, a probe list, a transmittance list, grid
sizes, and sampling controls. The keys of every object are in one table
(`_SECTIONS`, `_PRIORS`, `_PROBES`); any other key, at any depth, is an
error. Probe families may fix their own size (coherent alpha, number n,
superposition d) or leave it out, or null, and let a mean_photons list
materialize one probe per target size.
"""

import json
import math

from .errors import ValidationError
from .estimation import SAMPLES_CAP, SimGrid
from .fock import ProbeSpec
from .priors import PhasePrior
from .rate_distortion import RD_GRID_CAP

__all__ = ["ScenarioConfig"]

# each section's keys and their defaults
_SECTIONS = {
    "config": {"prior": {"kind": "uniform"}, "probes": [], "eta": [1.0],
               "mean_photons": None, "grid": {}, "rd": {}, "seed": 0,
               "samples": 100000},
    "grid": {"phi_points": 2048, "theta_points": 2048},
    "rd": {"grid_size": 128, "slopes": [0.0, 0.25, 0.5]},
}
# each prior kind's number keys and defaults; None marks a required key
_PRIORS = {
    "uniform": {"center": math.pi, "width": 2.0 * math.pi},
    "wrapped_gaussian": {"mean": None, "sigma": None},
    "tabulated": {"values": None},   # a list of numbers
}


def _require(cond, template, *args):
    # format the message only when it is raised: a valid config builds none
    if not cond:
        raise ValidationError(template.format(*args))


def _known(spec, keys, where):
    extra = sorted(spec.keys() - keys)
    _require(not extra, "unknown {} keys: {}", where, extra)


def _section(spec, name):
    _require(isinstance(spec, dict), "{} must be an object", name)
    _known(spec, _SECTIONS[name], name)
    return {**_SECTIONS[name], **spec}


def _is_number(value, kinds=(int, float)):
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, kinds) and not isinstance(value, bool)


def _build_prior(spec):
    _require(isinstance(spec, dict) and "kind" in spec,
             "prior must be an object with a 'kind'")
    kind = spec["kind"]
    # a JSON list or object is unhashable: test for a string first
    _require(isinstance(kind, str) and kind in _PRIORS,
             "unknown prior kind {!r}", kind)
    defaults = _PRIORS[kind]
    _known(spec, defaults.keys() | {"kind"}, f"{kind} prior")
    required = [key for key, value in defaults.items() if value is None]
    if not all(key in spec for key in required):
        raise ValidationError(f"{kind} prior needs "
                              + " and ".join(map(repr, required)))
    if kind == "tabulated":
        values = spec["values"]
        _require(isinstance(values, list),
                 "tabulated prior values must be a list, got {!r}", values)
        return PhasePrior.tabulated([_prior_number(v, "value") for v in values])
    return getattr(PhasePrior, kind)(**{
        key: _prior_number(spec.get(key, default), key)
        for key, default in defaults.items()})


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
    return ProbeSpec(out)


def _int_like(x, what):
    # 2 * mean_photons + 1 overflows to inf from mean_photons ~ 9e307 on
    _require(math.isfinite(x), "{} must be finite, got {}", what, x)
    _require(abs(x - round(x)) < 1e-9, "{} must be an integer, got {}", what, x)
    return int(round(x))


# each probe family: its size key, its constructor, and its size for a
# mean photon number n (None: the size key is required)
_PROBES = {
    "coherent": ("alpha", ProbeSpec.coherent, math.sqrt),
    "number": ("n", ProbeSpec.number,
               lambda n: _int_like(n, "number probe size")),
    # the flat and binomial ladders both average (d - 1) / 2 photons
    "flat-superposition": ("d", ProbeSpec.flat_superposition, lambda n:
                           _int_like(2.0 * n + 1.0,
                                     "flat-superposition level count")),
    "binomial-phase": ("d", ProbeSpec.binomial_phase, lambda n:
                       _int_like(2.0 * n + 1.0, "binomial-phase level count")),
    "amplitudes": ("amplitudes", _amplitudes, None),
}


def _build_probes(spec, ns_list):
    """One probe, or one per mean_photons entry if its size is left out."""
    _require(isinstance(spec, dict) and "family" in spec,
             "each probe must be an object with a 'family'")
    family = spec["family"]
    _require(isinstance(family, str) and family in _PROBES,
             "unknown probe family {!r}", family)
    key, make, rule = _PROBES[family]
    _known(spec, {"family", key}, f"{family} probe")
    if rule is None:
        _require(key in spec, "amplitude probes need 'amplitudes'")
        return [make(spec[key])]
    size = spec.get(key)
    if size is None:
        _require(ns_list is not None,
                 "{} probe needs {!r} or a mean_photons list", family, key)
        return [make(rule(n)) for n in ns_list]
    _require(_is_number(size),
             "probe {} must be a number, got {!r}", key, size)
    return [make(size)]


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
        raw = _section(raw, "config")
        prior = _build_prior(raw["prior"])

        etas = raw["eta"] if isinstance(raw["eta"], list) else [raw["eta"]]
        _require(len(etas) > 0, "eta list must be non-empty")
        for eta in etas:
            _require(_is_number(eta) and 0.0 <= eta <= 1.0,
                     "eta must lie in [0, 1], got {}", eta)

        # of the top-level keys, only mean_photons reads null as absent
        ns_list = raw["mean_photons"]
        if ns_list is not None:
            ns_list = ns_list if isinstance(ns_list, list) else [ns_list]
            _require(len(ns_list) > 0, "mean_photons list must be non-empty")
            for n in ns_list:
                _require(_is_number(n) and 0.0 <= n < math.inf,
                         "mean_photons entries must be finite and >= 0, "
                         "got {}", n)

        _require(isinstance(raw["probes"], list),
                 "probes must be a list, got {!r}", raw["probes"])
        probes = [probe for spec in raw["probes"]
                  for probe in _build_probes(spec, ns_list)]

        grid = SimGrid(**_section(raw["grid"], "grid"))

        rd = _section(raw["rd"], "rd")
        rd_grid_size = rd["grid_size"]
        _require(_is_number(rd_grid_size, int)
                 and 16 <= rd_grid_size <= RD_GRID_CAP,
                 "rd grid_size must be an integer in [16, {}], got {!r}",
                 RD_GRID_CAP, rd_grid_size)
        rd_slopes = rd["slopes"]
        _require(isinstance(rd_slopes, list) and len(rd_slopes) > 0,
                 "rd slopes must be a non-empty list")
        for s in rd_slopes:
            _require(_is_number(s) and 0.0 <= s < math.inf,
                     "rd slopes must be finite and >= 0, got {!r}", s)

        seed = raw["seed"]
        _require(_is_number(seed, int) and seed >= 0,
                 "seed must be a nonnegative integer, got {}", seed)
        samples = raw["samples"]
        _require(_is_number(samples, int) and 10000 <= samples <= SAMPLES_CAP,
                 "samples must be an integer in [10000, {}], got {}",
                 SAMPLES_CAP, samples)

        return cls(prior=prior, probes=probes, etas=list(etas), grid=grid,
                   rd_grid_size=rd_grid_size, rd_slopes=list(rd_slopes),
                   seed=seed, samples=samples, mean_photons=ns_list)

    @classmethod
    def from_file(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (UnicodeDecodeError, RecursionError) as exc:
            raise ValidationError(f"config cannot be decoded: {exc}") from exc
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
