"""Flat INI experiment configuration.

The on-disk format is diff-friendly key = value text with section headers
(see the grammar in the README); no nesting, no interpolation.  Parsing
produces one frozen ExperimentConfig whose validator names the offending
field and constraint on failure, which the CLI maps to exit code 2.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError

EXPERIMENT_KINDS = (
    "roots",
    "simulate-homogeneous",
    "simulate-forced",
    "gap-scan",
    "diagram",
    "counterexample",
    "verify",
    "acceptance",
)

FORCING_KINDS = ("none", "constant", "uniform-constant", "resonant", "random", "periodic-square")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str = "simulate-homogeneous"
    seed: int = 0
    threads: int = 1
    out_dir: str = "out"
    recipe: str = ""

    sigma: float = 1.0
    delta: float = 1.0
    sigmas: tuple = ()  # diagram runs scan several exponents

    spectrum_kind: str = "geometric"
    modes: int = 16
    base: float = 2.0
    scale: float = 1.0
    floor: float = 0.0
    spectrum_path: str = ""

    u0: str = "zeros"
    u1: str = "zeros"

    forcing_kind: str = "none"
    amplitude: float = 1.0
    eta: float = 1.0
    target_time: float = 1.0
    period: float = 2.0
    ramp: float = 0.1

    t_start: float = 0.0
    t_stop: float = 1.0
    t_points: int = 33
    t_scale: str = "linear"
    alpha_grid: tuple = (0.0, 0.5, 1.0)
    gaps: tuple = ()

    statement: int = 3
    targets: tuple = (0.5, 1.0)
    n_max: int = 4

    converged_ratio: float = 0.9
    diverge_slack: float = 0.98
    fit_r2_min: float = 0.99

    def validate(self) -> "ExperimentConfig":
        def fail(name, constraint):
            raise ValidationError(f"config field '{name}': {constraint}")

        if self.kind not in EXPERIMENT_KINDS:
            fail("experiment.kind", f"must be one of {EXPERIMENT_KINDS}, got {self.kind!r}")
        if self.kind == "acceptance" and not self.recipe:
            fail("experiment.recipe", "acceptance runs need a recipe name")
        if self.seed < 0:
            fail("experiment.seed", "must be >= 0")
        if self.threads < 1:
            fail("experiment.threads", "must be >= 1")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            fail("damping.sigma", "must be finite and >= 0")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            fail("damping.delta", "must be finite and > 0")
        if self.spectrum_kind not in ("geometric", "csv"):
            fail("spectrum.kind", "must be 'geometric' or 'csv'")
        if self.spectrum_kind == "geometric":
            if self.modes < 1:
                fail("spectrum.modes", "must be >= 1")
            if not self.base > 1.0:
                fail("spectrum.base", "must be > 1")
            if not self.scale > 0.0:
                fail("spectrum.scale", "must be > 0")
        else:
            import os

            if not self.spectrum_path:
                fail("spectrum.path", "required when kind = csv")
            if not os.path.exists(self.spectrum_path):
                fail("spectrum.path", f"file does not exist: {self.spectrum_path}")
        if self.forcing_kind not in FORCING_KINDS:
            fail("forcing.kind", f"must be one of {FORCING_KINDS}")
        if self.t_points < 1:
            fail("grids.t_points", "must be >= 1")
        if self.t_scale not in ("linear", "log"):
            fail("grids.t_scale", "must be 'linear' or 'log'")
        if self.t_scale == "log" and not self.t_start > 0.0:
            fail("grids.t_start", "must be > 0 for log-scaled grids")
        if self.t_stop < self.t_start:
            fail("grids.t_stop", "must be >= t_start")
        if len(self.alpha_grid) == 0:
            fail("grids.alpha_grid", "must be nonempty")
        if self.statement not in (1, 2, 3, 4):
            fail("counterexample.statement", "must be 1, 2, 3, or 4")
        for name in ("converged_ratio", "fit_r2_min"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                fail(f"probe.{name}", "must lie strictly between 0 and 1")
        if not 0.0 < self.diverge_slack <= 1.0:
            fail("probe.diverge_slack", "must lie in (0, 1]")
        return self

    def t_grid(self) -> np.ndarray:
        if self.t_points == 1:
            return np.array([self.t_stop])
        if self.t_scale == "log":
            return np.logspace(math.log10(self.t_start), math.log10(self.t_stop), self.t_points)
        return np.linspace(self.t_start, self.t_stop, self.t_points)


_SECTIONS = {
    "experiment": ("kind", "seed", "threads", "out_dir", "recipe"),
    "damping": ("sigma", "delta", "sigmas"),
    "spectrum": ("spectrum_kind", "modes", "base", "scale", "floor", "spectrum_path"),
    "initial": ("u0", "u1"),
    "forcing": ("forcing_kind", "amplitude", "eta", "target_time", "period", "ramp"),
    "grids": ("t_start", "t_stop", "t_points", "t_scale", "alpha_grid", "gaps"),
    "counterexample": ("statement", "targets", "n_max"),
    "probe": ("converged_ratio", "diverge_slack", "fit_r2_min"),
}

# keys whose INI spelling drops the section prefix
_KEY_ALIASES = {"spectrum_kind": "kind", "forcing_kind": "kind", "spectrum_path": "path"}

_TUPLE_FIELDS = ("alpha_grid", "gaps", "targets", "sigmas")


def _field_types():
    return {f.name: f.type for f in fields(ExperimentConfig)}


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise ValidationError(f"config file not found or unreadable: {path}")
    values = {}
    known = {f.name for f in fields(ExperimentConfig)}
    for section, keys in _SECTIONS.items():
        if not parser.has_section(section):
            continue
        seen = set()
        for key in keys:
            ini_key = _KEY_ALIASES.get(key, key)
            seen.add(ini_key)
            if parser.has_option(section, ini_key):
                values[key] = _parse_value(key, parser.get(section, ini_key))
        for opt in parser.options(section):
            if opt not in seen:
                raise ValidationError(f"config field '{section}.{opt}': unknown key")
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValidationError(f"config section '[{section}]': unknown section")
    assert set(values) <= known
    return ExperimentConfig(**values).validate()


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in _TUPLE_FIELDS:
        if not raw:
            return ()
        try:
            vals = tuple(float(tok) for tok in raw.split())
        except ValueError as exc:
            raise ValidationError(f"config field '{key}': expected whitespace-separated reals ({exc})")
        return vals
    target = _field_types()[key]
    try:
        if target in ("int", int):
            return int(raw)
        if target in ("float", float):
            return float(raw)
    except ValueError as exc:
        raise ValidationError(f"config field '{key}': {exc}")
    return raw


def dump_config(cfg: ExperimentConfig, path) -> None:
    parser = configparser.ConfigParser(interpolation=None)
    defaults = ExperimentConfig()
    for section, keys in _SECTIONS.items():
        entries = {}
        for key in keys:
            val = getattr(cfg, key)
            if val == getattr(defaults, key):
                continue
            ini_key = _KEY_ALIASES.get(key, key)
            if key in _TUPLE_FIELDS:
                entries[ini_key] = " ".join(repr(float(v)) for v in val)
            else:
                entries[ini_key] = str(val)
        if entries:
            parser[section] = entries
    with open(path, "w", encoding="ascii") as fh:
        parser.write(fh)
