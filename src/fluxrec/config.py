"""Structured-text configuration with per-subcommand schemas.

Config files are plain ``key = value`` lines; ``#`` starts a comment.
Every key is validated against the schema of the target subcommand
(type plus domain), unknown keys are rejected, and absent keys fall
back to the documented defaults.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import MalformedFileError, SchemaError, UnknownKeyError
from .geometry import read_lines, read_records

DEFAULT_DELTA_GRID = tuple(float(d) for d in np.geomspace(1e-2, 1e-6, 9))


@dataclass(frozen=True)
class Key:
    """One schema entry: parser plus optional domain validator."""

    parse: Callable[[str], Any]
    default: Any
    check: Callable[[Any], str | None] = lambda v: None


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip())


def _float_or_path(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _positive(v) -> str | None:
    return None if isinstance(v, str) or v > 0 else "must be > 0"


def _open_unit(v) -> str | None:
    return None if 0.0 < v < 1.0 else "must lie in (0, 1)"


def _half_open_s(v) -> str | None:
    return None if 0.0 < v <= 0.5 else "must lie in (0, 1/2]"


def _tau(v) -> str | None:
    return None if v > 1.0 else "must be > 1"


def _noise_levels(v) -> str | None:
    if len(v) == 0 or not all(b < a for a, b in zip(v, v[1:])):
        return "must be a non-empty strictly decreasing list"
    if not v[-1] > 0.0:
        return "entries must be positive"
    # the rate fit's log(log(1/delta)) needs delta < 1; parse_config reports inf as not finite
    return "entries must be below 1" if 1.0 <= v[0] < math.inf else None


def _positive_entries(v) -> str | None:
    return None if all(0.0 < x < math.inf for x in v) else "entries must be positive and finite"


def _rho_rule(v) -> str | None:
    return None if v in ("discrepancy", "fixed") else "must be 'discrepancy' or 'fixed'"


PROBLEM_KEYS: dict[str, Key] = {
    "r_inner": Key(float, 0.5, _positive),
    "r_outer": Key(float, 1.0, _positive),
    "h": Key(float, 0.1, _positive),
    "alpha": Key(_float_or_path, 1.0, _positive),
    "k": Key(_float_or_path, 1.0, _positive),
    "f": Key(_float_or_path, 0.0),
    "u_a": Key(_float_or_path, 0.0),
    "kappa": Key(float, 0.9, _open_unit),
    "s": Key(float, 0.5, _half_open_s),
    "eps": Key(float, 0.01, _positive),
    "tau_d": Key(float, 1.5, _tau),
    "m0": Key(float, 10.0, _positive),
}

# the rate study builds its fields from constants, so no field file is accepted
RATES_KEYS: dict[str, Key] = {
    **PROBLEM_KEYS,
    "alpha": Key(float, 1.0, _positive),
    "k": Key(float, 1.0, _positive),
    "f": Key(float, 0.0),
    "u_a": Key(float, 0.0),
    "refine_level": Key(int, 1, lambda v: None if v >= 1 else "must be >= 1"),
    "delta_grid": Key(_float_list, DEFAULT_DELTA_GRID, _noise_levels),
    "seeds_per_delta": Key(int, 5, _positive),
    "base_seed": Key(int, 0, lambda v: None if v >= 0 else "must be >= 0"),
    "flux_seed": Key(int, 42, lambda v: None if v >= 0 else "must be >= 0"),
    "rho_rule": Key(str, "discrepancy", _rho_rule),
    "fixed_rho_schedule": Key(_float_list, (), _positive_entries),
}


def _only(*names: str) -> dict[str, Key]:
    return {name: PROBLEM_KEYS[name] for name in names}


# each subcommand accepts exactly the keys it reads
_FIELDS = ("alpha", "k", "f", "u_a")
SCHEMAS: dict[str, dict[str, Key]] = {
    "forward": _only(*_FIELDS),
    "invert": _only(*_FIELDS, "tau_d"),
    "vsc-check": _only(*_FIELDS, "s", "kappa", "eps", "m0"),
    "stability-probe": _only("alpha", "k", "kappa"),
    "rates": RATES_KEYS,
}


def parse_config(path: str | None, schema: dict[str, Key]) -> dict[str, Any]:
    """Parse and validate one config file against a schema.

    A missing path or empty file yields all defaults.  Raises
    SchemaError (bad value), UnknownKeyError, or MalformedFileError.
    """
    values: dict[str, Any] = {name: key.default for name, key in schema.items()}
    if path is None:
        return values
    if not os.path.exists(path):
        raise MalformedFileError(f"config file not found: {path}")
    raw = read_lines(path)
    for ln, line in enumerate(raw, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise MalformedFileError(f"expected 'key = value', got {line!r}", ln)
        name, _, text = stripped.partition("=")
        name, text = name.strip(), text.strip()
        if name not in schema:
            raise UnknownKeyError(name)
        key = schema[name]
        try:
            value = key.parse(text)
        except ValueError:
            raise SchemaError(name, f"cannot parse {text!r} as {key.parse.__name__.lstrip('_')}") from None
        problem = key.check(value)
        if problem is None and _non_finite(value):
            problem = "must be finite"
        if problem is not None:
            raise SchemaError(name, problem)
        values[name] = value
    return values


def _non_finite(value) -> bool:
    """True when a parsed value is, or lists, a NaN or infinite float."""
    items = value if isinstance(value, tuple) else (value,)
    return any(isinstance(v, float) and not math.isfinite(v) for v in items)


def resolve_field(value, n_expected: int, key: str) -> np.ndarray:
    """Turn a config constant or one-column file into an array of length n.

    A file's values get the finiteness and domain checks of a constant.
    """
    if isinstance(value, str):
        try:
            raw = read_lines(value)
        except OSError as exc:
            raise MalformedFileError(f"cannot read field file for {key}: {exc}") from exc
        # blank lines and '#' comments carry no value, as in a config file
        kept = [(ln, text) for ln, line in enumerate(raw, 1)
                if (text := line.split("#", 1)[0]).strip()]
        arr = read_records([text for _, text in kept], (float,)).view(np.float64)
        if len(arr) < len(kept):
            ln = kept[len(arr)][0]
            raise MalformedFileError(
                f"malformed record {raw[ln - 1]!r} in field file for {key}", ln)
        if arr.shape != (n_expected,):
            raise SchemaError(key, f"field file has {arr.shape[0]} values, expected {n_expected}")
        if not np.isfinite(arr).all():
            raise SchemaError(key, "field file values must be finite")
        # every key domain is an interval, so checking both ends checks every value
        for end in (arr.min(), arr.max()):
            problem = PROBLEM_KEYS[key].check(float(end))
            if problem is not None:
                raise SchemaError(key, f"field file value {float(end)!r} {problem}")
        return arr
    return np.full(n_expected, float(value))
