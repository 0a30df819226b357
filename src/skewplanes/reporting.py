"""Report records shared by the verification, counting, and height modules,
plus deterministic JSON/CSV serialization.

Determinism contract: two runs with identical configuration and seed produce
byte-identical serialized reports once timing fields are dropped; JSON output
uses sorted keys and stable record order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass


TIMING_FIELDS = ("elapsed_ms",)


class BudgetExceeded(Exception):
    """Raised when an enumeration or symbolic expansion exceeds its budget."""


def abbreviate(n):
    """An int as its digits, or as ~m.me<exponent> when it has more than 20
    digits, so that budget messages stay short for any size."""
    if abs(n) < 10 ** 20:
        return str(n)
    m = abs(n)
    e = int(math.log10(m))
    e += (10 ** (e + 1) <= m) - (10 ** e > m)
    mant = round(m / 10 ** e, 1)
    if mant >= 10:
        mant, e = 1.0, e + 1
    return f"~{'-' if n < 0 else ''}{mant}e{e}"


@dataclass
class VerificationResult:
    check: str
    params: dict
    passed: bool
    witness: dict | None = None
    elapsed_ms: float = 0.0
    mode: str = "symbolic"

    def __post_init__(self):
        # invariant: pass exactly when there is no witness
        if self.passed and self.witness is not None:
            raise ValueError("passing result must not carry a witness")
        if not self.passed and self.witness is None:
            self.witness = {"reason": "unspecified failure"}

    def as_dict(self):
        out = {
            "check": self.check,
            "params": self.params,
            "pass": self.passed,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "mode": self.mode,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        ptxt = " ".join(f"{k}={v}" for k, v in sorted(self.params.items(), key=lambda kv: kv[0]))
        return f"[{status}] {self.check} {ptxt} ({self.mode}, {self.elapsed_ms:.1f} ms)"


@dataclass
class CountReport:
    family: str
    params: dict
    field_spec: dict
    brute: int
    formula: int | None
    match: bool | None          # None when no formula applies
    formula_alt: int | None = None
    engine: str = "scan"        # "blocks" or "scan": the engine that counted
    elapsed_ms: float = 0.0

    def as_dict(self):
        out = {
            "family": self.family,
            "params": self.params,
            "field": self.field_spec,
            "brute": self.brute,
            "formula": self.formula,
            "match": self.match,
            "engine": self.engine,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.formula_alt is not None:
            out["formula_alt"] = self.formula_alt
        return out

    def line(self):
        if self.match is None:
            status = "N/A "
        else:
            status = "PASS" if self.match else "FAIL"
        return (f"[{status}] count {self.family} {self.params} q={self.field_spec.get('q')}"
                f" brute={self.brute} formula={self.formula} engine={self.engine}")


@dataclass
class HeightReport:
    params: dict
    bound: int
    direct: int | None
    parametrized: int | None
    lower_ref: float
    lower_ref_n1: float | None
    upper_ref: float
    skips: int = 0
    elapsed_ms: float = 0.0

    def as_dict(self):
        return {
            "params": self.params,
            "bound": self.bound,
            "direct": self.direct,
            "parametrized": self.parametrized,
            "lower_ref": self.lower_ref,
            "lower_ref_n1": self.lower_ref_n1,
            "upper_ref": self.upper_ref,
            "skips": self.skips,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }

    def line(self):
        return (f"B={self.bound} direct={self.direct} param={self.parametrized} "
                f"lower~{self.lower_ref:.2f} lower_n1~{self.lower_ref_n1:.2f} "
                f"upper~{self.upper_ref:.0f}")


def strip_timing(obj):
    """Recursively drop timing fields; used to compare reports for determinism."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k not in TIMING_FIELDS}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def to_json(records, config=None):
    """Serialize a report: resolved config header plus record list, sorted keys."""
    doc = {"version": 1}
    if config is not None:
        doc["config"] = config
    doc["records"] = [r.as_dict() if hasattr(r, "as_dict") else r for r in records]
    return json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n"


def to_csv(records):
    rows = [r.as_dict() if hasattr(r, "as_dict") else dict(r) for r in records]
    if not rows:
        return ""
    keys = sorted({k for row in rows for k in row})
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=keys)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: json.dumps(row[k], sort_keys=True, default=str)
                         if isinstance(row.get(k), (dict, list)) else row.get(k, "")
                         for k in keys})
    return buf.getvalue()
