"""Canonical input schema and deterministic report rendering.

Input documents are JSON objects with the keys

    {"K": [[..]], "n": [..], "tau": [re, im], "xi": [[re, im], ..]}

where only "K" is required; unknown keys are rejected (strict mode).
Plain-text documents are also accepted: whitespace-separated integer rows
of K, one row per line.  Complex numbers are serialized as [re, im] pairs
and exact rationals as "p/q" strings throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

ALLOWED_KEYS = {"K", "n", "tau", "xi"}


class SchemaError(ValueError):
    pass


@dataclass(frozen=True)
class InputDocument:
    K: tuple[tuple[int, ...], ...]
    n: tuple[int, ...] | None = None
    tau: complex | None = None
    xi: tuple[complex, ...] | None = None


def pair_to_complex(value: Any, what: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and math.isfinite(v) for v in value)
    ):
        raise SchemaError(f"{what} must be a [re, im] pair of finite numbers, got {value!r}")
    return complex(value[0], value[1])


def complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def parse_document(obj: Any) -> InputDocument:
    if not isinstance(obj, dict):
        raise SchemaError("input document must be a JSON object")
    unknown = set(obj) - ALLOWED_KEYS
    if unknown:
        raise SchemaError(f"unknown keys {sorted(unknown)}; allowed: {sorted(ALLOWED_KEYS)}")
    if "K" not in obj:
        raise SchemaError('input document must contain "K"')
    kraw = obj["K"]
    if not isinstance(kraw, list) or not all(isinstance(r, list) for r in kraw):
        raise SchemaError('"K" must be a list of integer rows')
    for row in kraw:
        for x in row:
            if isinstance(x, bool) or not isinstance(x, int):
                raise SchemaError(f'"K" entries must be integers, got {x!r}')
    kmat = tuple(tuple(int(x) for x in row) for row in kraw)
    n = None
    if "n" in obj:
        if not isinstance(obj["n"], list) or any(
            isinstance(x, bool) or not isinstance(x, int) for x in obj["n"]
        ):
            raise SchemaError('"n" must be a list of integers')
        n = tuple(int(x) for x in obj["n"])
    tau = pair_to_complex(obj["tau"], '"tau"') if "tau" in obj else None
    xi = None
    if "xi" in obj:
        if not isinstance(obj["xi"], list):
            raise SchemaError('"xi" must be a list of [re, im] pairs')
        xi = tuple(pair_to_complex(v, '"xi" entry') for v in obj["xi"])
    return InputDocument(K=kmat, n=n, tau=tau, xi=xi)


def load_input(path: str | Path) -> InputDocument:
    """Parse a JSON document, or a plain-text row-major integer matrix."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
        return parse_document(obj)
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise SchemaError(f"non-integer entry in matrix line {line!r}") from exc
    if not rows:
        raise SchemaError("empty matrix document")
    return parse_document({"K": rows})


def render_json(report: dict) -> str:
    """Deterministic JSON: sorted keys, native float repr."""
    return json.dumps(report, sort_keys=True, indent=2)


def render_checks_human(checks: list[dict]) -> str:
    lines = []
    for c in checks:
        lines.append(
            f"[{c['verdict']}] {c['name']}: measured {c['measured']:.3e}"
            f" (threshold {c['threshold']:.1e}) -- {c['law']}"
        )
    return "\n".join(lines)
