"""Sectioned key=value run configuration.

Grammar (one construct per line):

    # comment          (also ';')
    [section]
    key = value

Values never span lines and there are no inline comments.  Recognised
sections are [run], [noise], [spde], [levy], [ambit]; every key is typed
and range-checked against the module precondition it feeds, and unknown
sections or keys are rejected.  All errors carry the file/line they came
from.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass

from .besov import MAX_ORDER

__all__ = [
    "ConfigError",
    "Config",
    "EXPERIMENTS",
    "SCHEMA",
    "parse_config",
    "load_config",
    "resolve_config",
]

EXPERIMENTS = (
    "spde-exponents",
    "spde-density",
    "ambit-decay",
    "ambit-density",
    "besov-stat",
)


class ConfigError(ValueError):
    """Invalid configuration; message is '<path>:<line>: <reason>'."""

    def __init__(self, msg, path=None, line=None):
        where = ""
        if path is not None:
            where = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(where + msg)


def _positive(v):
    return v > 0


def _nonneg(v):
    return v >= 0


def _power_of_two(v):
    return v >= 2 and (v & (v - 1)) == 0


def _order(v):
    return 0 <= v <= MAX_ORDER  # as besov.criterion_statistic requires


@dataclass(frozen=True)
class _Field:
    kind: str                # int | float | str | choice
    default: object = None   # None and required=False -> optional key
    choices: tuple = ()
    check: object = None
    describe: str = ""
    required: bool = False


# every numeric range mirrors the precondition of the module parameter the
# key is handed to (factories re-validate, but here the message has a line)
SCHEMA = {
    "run": {
        "experiment": _Field("choice", choices=EXPERIMENTS, required=True),
        "seed": _Field("int", 0, check=_nonneg, describe=">= 0"),
        "n_paths": _Field("int", 2000, check=_positive, describe=">= 1"),
        "workers": _Field("int", 1, check=_positive, describe=">= 1"),
        "outdir": _Field("str", "out"),
        "order": _Field("int", 1, check=_order,
                        describe=f"in [0, {MAX_ORDER}] (besov-stat order)"),
        "holder": _Field("float", 0.5,
                         check=lambda v: 0 < v <= 1,
                         describe="in (0, 1]"),
        "scale": _Field("float", 0.25, check=_positive,
                        describe="> 0 (besov-stat sample scale)"),
    },
    "noise": {
        "kind": _Field("choice", "white",
                       choices=("white", "riesz", "exponential")),
        "d": _Field("int", 1, check=lambda v: 1 <= v <= 3,
                    describe="in {1, 2, 3}"),
        "L": _Field("float", 8.0, check=_positive, describe="> 0"),
        "m": _Field("int", 512, check=_power_of_two,
                    describe="a power of two >= 2"),
        "beta": _Field("float", None, check=_positive, describe="> 0"),
        "ell": _Field("float", None, check=_positive, describe="> 0"),
    },
    "spde": {
        "operator": _Field("choice", "heat", choices=("heat", "wave")),
        "coefficients": _Field("choice", "constant",
                               choices=("constant", "anderson")),
        "sigma0": _Field("float", 1.0),
        "b0": _Field("float", 0.0),
        "anderson_lam": _Field("float", 1.0),
        "u0": _Field("float", 1.0),
        "t": _Field("float", 0.25, check=_positive, describe="> 0"),
        "dt": _Field("float", None, check=_positive, describe="> 0"),
        "eps_min": _Field("float", 1e-4, check=_positive, describe="> 0"),
        "eps_max": _Field("float", 1e-1, check=_positive, describe="> 0"),
        "eps_points": _Field("int", 12, check=lambda v: v >= 4,
                             describe=">= 4"),
        "n_lags": _Field("int", 8, check=lambda v: v >= 4, describe=">= 4"),
        "n": _Field("int", 1, check=_order, describe=f"in [0, {MAX_ORDER}]"),
        "holder": _Field("float", 0.5, check=lambda v: 0 < v <= 1,
                         describe="in (0, 1]"),
    },
    "levy": {
        "alpha": _Field("float", 1.2, check=lambda v: 0 < v < 2,
                        describe="in (0, 2)"),
        "c_plus": _Field("float", 0.5, check=_nonneg, describe=">= 0"),
        "c_minus": _Field("float", 0.5, check=_nonneg, describe=">= 0"),
        "tau": _Field("float", None, check=_positive, describe="> 0"),
    },
    "ambit": {
        "c": _Field("float", 1.0, check=_nonneg, describe=">= 0"),
        "zeta": _Field("float", 1.0, check=_nonneg, describe=">= 0"),
        "kernel_g": _Field("choice", "constant",
                           choices=("constant", "power", "bump")),
        "value_g": _Field("float", 1.0),
        "theta_g": _Field("float", 0.5, check=_positive, describe="> 0"),
        "width_g": _Field("float", 1.0, check=_positive, describe="> 0"),
        "kernel_h": _Field("choice", "constant",
                           choices=("constant", "power", "bump")),
        "value_h": _Field("float", 1.0),
        "theta_h": _Field("float", 0.5, check=_positive, describe="> 0"),
        "width_h": _Field("float", 1.0, check=_positive, describe="> 0"),
        "sigma_field": _Field("choice", "constant",
                              choices=("constant", "weierstrass")),
        "sigma0": _Field("float", 1.0),
        "sigma_base": _Field("float", 1.0),
        "sigma_amp": _Field("float", 0.25),
        "sigma_delta1": _Field("float", 0.5,
                               check=lambda v: 0 < v < 1,
                               describe="in (0, 1)"),
        "sigma_delta2": _Field("float", 0.5,
                               check=lambda v: 0 < v < 1,
                               describe="in (0, 1)"),
        "b_field": _Field("choice", "constant",
                          choices=("constant", "weierstrass")),
        "b0": _Field("float", 0.0),
        "b_base": _Field("float", 0.0),
        "b_amp": _Field("float", 0.25),
        "b_delta1": _Field("float", 0.5, check=lambda v: 0 < v < 1,
                           describe="in (0, 1)"),
        "b_delta2": _Field("float", 0.5, check=lambda v: 0 < v < 1,
                           describe="in (0, 1)"),
        "x0": _Field("float", 0.0),
        "t": _Field("float", 1.0, check=_positive, describe="> 0"),
        "x": _Field("float", 0.0),
        "beta": _Field("float", None, check=_positive, describe="> 0"),
        "gamma": _Field("float", None, check=lambda v: 0 < v <= 2,
                        describe="in (0, 2]"),
        "eps_min": _Field("float", 0.02, check=_positive, describe="> 0"),
        "eps_max": _Field("float", 0.5, check=_positive, describe="> 0"),
        "eps_points": _Field("int", 8, check=lambda v: v >= 4,
                             describe=">= 4"),
        "n": _Field("int", 1, check=_order, describe=f"in [0, {MAX_ORDER}]"),
        "holder": _Field("float", 0.5, check=lambda v: 0 < v <= 1,
                         describe="in (0, 1]"),
        "nt": _Field("int", 64, check=_positive, describe=">= 1"),
        "nx": _Field("int", 64, check=_positive, describe=">= 1"),
    },
}

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_-]+)\]$")
_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def parse_config(text, path="<config>"):
    """Parse the raw grammar into {section: {key: (value, line)}}."""
    raw = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            continue
        m = _SECTION_RE.match(stripped)
        if m:
            section = m.group(1)
            raw.setdefault(section, {})
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}",
                              path, lineno)
        if section is None:
            raise ConfigError("key outside any [section]", path, lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"malformed key {key!r}", path, lineno)
        if key in raw[section]:
            raise ConfigError(f"duplicate key {key!r} in [{section}]",
                              path, lineno)
        raw[section][key] = (value.strip(), lineno)
    return raw


def _convert(section, key, value, field, path, line):
    try:
        if field.kind == "int":
            out = int(value)
        elif field.kind == "float":
            out = float(value)
            if not math.isfinite(out):
                raise ValueError
        else:
            out = value
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: expected {field.kind}, got {value!r}",
            path, line) from None
    if field.kind == "choice" and out not in field.choices:
        raise ConfigError(
            f"[{section}] {key}: must be one of "
            f"{', '.join(field.choices)}; got {value!r}", path, line)
    if field.check is not None and out is not None and not field.check(out):
        raise ConfigError(
            f"[{section}] {key}: value {value!r} out of range "
            f"({field.describe})", path, line)
    return out


@dataclass(frozen=True)
class Config:
    sections: dict           # {section: {key: typed value}}
    path: str

    def get(self, section, key):
        return self.sections[section][key]

    @property
    def experiment(self):
        return self.sections["run"]["experiment"]

    def canonical(self) -> str:
        """Deterministic text form of everything that defines the results.

        Worker count and output directory are execution details and are
        excluded, so runs that must be byte-identical hash identically.
        """
        lines = []
        for section in sorted(self.sections):
            for key in sorted(self.sections[section]):
                if section == "run" and key in ("workers", "outdir"):
                    continue
                value = self.sections[section][key]
                if value is None:
                    continue
                if isinstance(value, float):
                    value = repr(value)
                lines.append(f"{section}.{key}={value}")
        return "\n".join(lines) + "\n"

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()


def _resolve_override(expr, path):
    key, sep, value = expr.partition("=")
    if not sep:
        raise ConfigError(f"override {expr!r} is not KEY=VALUE", path)
    key = key.strip()
    value = value.strip()
    if "." in key:
        section, _, bare = key.partition(".")
        if section not in SCHEMA:
            raise ConfigError(f"override {expr!r}: unknown section "
                              f"[{section}]", path)
        return section, bare, value
    owners = [s for s, fields in SCHEMA.items() if key in fields]
    if not owners:
        raise ConfigError(f"override {expr!r}: unknown key {key!r}", path)
    if len(owners) > 1:
        raise ConfigError(
            f"override {expr!r}: key {key!r} exists in sections "
            f"{', '.join(sorted(owners))}; qualify it as section.key", path)
    return owners[0], key, value


def resolve_config(raw, path="<config>", overrides=()) -> Config:
    """Validate a parsed mapping against the schema and fill defaults."""
    for section in raw:
        if section not in SCHEMA:
            line = min((ln for _, ln in raw[section].values()), default=None)
            raise ConfigError(f"unknown section [{section}]", path, line)
        for key, (_, line) in raw[section].items():
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]",
                                  path, line)

    merged = {s: dict(kv) for s, kv in raw.items()}
    for expr in overrides:
        section, key, value = _resolve_override(expr, path)
        if key not in SCHEMA[section]:
            raise ConfigError(f"override: unknown key {key!r} in "
                              f"[{section}]", path)
        merged.setdefault(section, {})[key] = (value, None)

    sections = {}
    for section, fields in SCHEMA.items():
        out = {}
        given = merged.get(section, {})
        for key, field in fields.items():
            if key in given:
                value, line = given[key]
                out[key] = _convert(section, key, value, field, path, line)
            else:
                if field.required:
                    raise ConfigError(
                        f"missing required key {key!r} in [{section}]", path)
                out[key] = field.default
        sections[section] = out

    _cross_checks(sections, path)
    return Config(sections, path)


def _cross_checks(sections, path):
    noise = sections["noise"]
    if noise["kind"] == "riesz":
        if noise["beta"] is None or not (0 < noise["beta"] < noise["d"]):
            raise ConfigError("[noise] riesz kind needs 0 < beta < d", path)
    if noise["kind"] == "exponential" and noise["ell"] is None:
        raise ConfigError("[noise] exponential kind needs ell", path)
    for section in ("spde", "ambit"):
        s = sections[section]
        if s["eps_min"] >= s["eps_max"]:
            raise ConfigError(f"[{section}] needs eps_min < eps_max", path)
        # every frequency slope is n - O(h^2): no path count decides it
        if s["holder"] == s["n"]:
            raise ConfigError(f"[{section}] needs holder != n: at holder = n "
                              f"the density verdict is undecidable", path)
    levy = sections["levy"]
    if levy["c_plus"] + levy["c_minus"] == 0:
        raise ConfigError("[levy] c_plus + c_minus must be positive", path)
    ambit = sections["ambit"]
    if ambit["eps_max"] > ambit["t"]:
        raise ConfigError("[ambit] needs eps_max <= t", path)
    if ambit["beta"] is not None and not (ambit["beta"] < levy["alpha"]):
        raise ConfigError("[ambit] needs beta < [levy] alpha", path)
    if ambit["gamma"] is not None and not (ambit["gamma"] > levy["alpha"]):
        raise ConfigError("[ambit] needs gamma > [levy] alpha", path)


def load_config(path, overrides=()) -> Config:
    """Read, parse, and validate a config file (path may be None to start
    from pure defaults plus overrides)."""
    if path is None:
        raw = {}
        name = "<defaults>"
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}", str(path)) \
                from None
        name = str(path)
        raw = parse_config(text, name)
    return resolve_config(raw, name, overrides)
