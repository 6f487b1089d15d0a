"""Verification reports: per-instance comparisons with both sides recorded."""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction


def json_value(v):
    """JSON-ready scalar; exact rationals are rendered as 'p/q' strings."""
    if isinstance(v, Fraction):
        return str(v)
    return v


class Comparison(namedtuple("Comparison", "where lhs rhs relation ok")):
    """One checked instance: where it lives (a dict), both sides, the relation
    ("==", "<=", ">=" or "in") and the outcome."""

    __slots__ = ()

    def to_dict(self) -> dict:
        out = {k: json_value(v) for k, v in self.where.items()}
        out["lhs"] = json_value(self.lhs)
        out["rhs"] = json_value(self.rhs)
        out["relation"] = self.relation
        out["ok"] = self.ok
        return out


class VerificationReport(namedtuple(
        "VerificationReport", "name low high checks checked skipped", defaults=(0,))):
    """Outcome of one identity or scan over the index range low..high.

    Counting verifiers record every comparison in `checks`; geometry scans
    record failures only and report the scan size through `checked`.
    `skipped` counts instances that would have left the ball.
    """

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "fails"

    @property
    def failures(self) -> tuple[Comparison, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def to_dict(self) -> dict:
        return {
            "lemma": self.name,
            "range": [self.low, self.high],
            "verdict": self.verdict,
            "checked": self.checked,
            "skipped": self.skipped,
            "failures": [c.to_dict() for c in self.failures],
            "checks": [c.to_dict() for c in self.checks],
        }

    def summary(self) -> str:
        extra = f", {self.skipped} skipped" if self.skipped else ""
        if self.holds:
            return f"{self.name}: holds ({self.checked} checked{extra})"
        return f"{self.name}: FAILS ({len(self.failures)} of {self.checked} checked{extra})"
