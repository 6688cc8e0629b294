"""Cost arithmetic for per-document certificates.

Two questions, two models:

* Runtime: issuing a certificate per signature adds one key generation to
  every signing operation. ``overhead_percent`` expresses key-generation
  time as a percentage of signing time; ``run_local_bench`` measures both
  on this machine, and ``reference_timings`` recomputes a fixed reference
  series of published keygen/sign measurements for comparison.

* Money: a one-time-certificate deployment buys shared infrastructure once
  (cost S plus a setup delta), while per-user certificates cost S plus a
  per-user fee times the user count. ``deployment_cost`` compares the two.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Optional, Sequence

from .crypto import AlgorithmSuite, DocumentDigest, EphemeralKeyPair

__all__ = [
    "BenchRecord",
    "CostModel",
    "CostComparison",
    "overhead_percent",
    "reference_timings",
    "run_local_bench",
    "deployment_cost",
    "format_table",
    "to_csv",
]


def overhead_percent(keygen_seconds: float, sign_seconds: float) -> int:
    """Key-generation time as a whole percentage of signing time, rounded
    half-up. Zero signing time makes the ratio meaningless and is refused."""
    if keygen_seconds < 0 or sign_seconds < 0:
        raise ValueError("times cannot be negative")
    if sign_seconds == 0:
        raise ValueError("zero signature time: overhead is undefined")
    ratio = Decimal(str(keygen_seconds)) * 100 / Decimal(str(sign_seconds))
    return int(ratio.quantize(Decimal("1"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark row: a labelled key size with its measured times."""

    label: str
    keygen_seconds: float
    sign_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.keygen_seconds + self.sign_seconds

    @property
    def overhead_pct(self) -> int:
        return overhead_percent(self.keygen_seconds, self.sign_seconds)


# Published keygen/sign timings (seconds) by key size; totals and overhead
# columns are recomputed, not transcribed, so the arithmetic stays honest.
_REFERENCE_RSA = (
    (1024, "0.16", "0.01"),
    (2240, "7.47", "0.15"),
    (3072, "9.80", "0.21"),
    (7680, "133.90", "1.53"),
    (15360, "679.06", "9.20"),
)
_REFERENCE_ECDSA = (
    (163, "0.08", "0.15"),
    (233, "0.18", "0.34"),
    (283, "0.27", "0.59"),
    (409, "0.64", "1.18"),
    (571, "1.44", "3.07"),
)


def _reference_rows(family: str, rows) -> list:
    return [BenchRecord(f"{family}-{bits}", float(keygen), float(sign))
            for bits, keygen, sign in rows]


def reference_timings() -> "tuple[list, list]":
    """The published RSA and ECDSA timing series as (rsa_rows, ecdsa_rows)."""
    return (
        _reference_rows("RSA", _REFERENCE_RSA),
        _reference_rows("ECDSA", _REFERENCE_ECDSA),
    )


def run_local_bench(
    suites: Sequence[AlgorithmSuite],
    iterations: int = 5,
) -> list:
    """Measure keygen and sign time per suite on this machine.

    Each suite gets one warmup round, then ``iterations`` timed rounds; the
    record keeps the median of each phase, which shrugs off scheduler
    noise. At least 3 iterations are required for the median to mean
    anything.
    """
    if iterations < 3:
        raise ValueError("need at least 3 iterations")
    for suite in suites:
        if not isinstance(suite, AlgorithmSuite):
            raise ValueError(f"not a suite: {suite!r}")
    records = []
    for suite in suites:
        digest = DocumentDigest(
            suite.digest, bytes(range(suite.digest.digest_length))
        )
        warmup = EphemeralKeyPair.generate(suite)
        warmup.sign_digest(digest)
        warmup.destroy()
        keygen_times = []
        sign_times = []
        for _ in range(iterations):
            begin = time.perf_counter()
            keypair = EphemeralKeyPair.generate(suite)
            keygen_times.append(time.perf_counter() - begin)
            begin = time.perf_counter()
            keypair.sign_digest(digest)
            sign_times.append(time.perf_counter() - begin)
            keypair.destroy()
        records.append(
            BenchRecord(
                suite.label,
                statistics.median(keygen_times),
                statistics.median(sign_times),
            )
        )
    return records


# ---------------------------------------------------------------------------
# Deployment economics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostModel:
    """Inputs to the deployment comparison: shared infrastructure cost S,
    a per-user certificate fee, the user count, and the one-off extra a
    one-time-certificate deployment needs on top of S."""

    shared_cost: float
    per_user_cost: float
    user_count: int
    issuance_overhead: float = 0.0

    def __post_init__(self):
        if self.shared_cost < 0 or self.per_user_cost < 0 or self.issuance_overhead < 0:
            raise ValueError("costs cannot be negative")
        if self.user_count < 0:
            raise ValueError("user count cannot be negative")


@dataclass(frozen=True)
class CostComparison:
    otc_total: float
    traditional_total: float

    @property
    def savings(self) -> float:
        return self.traditional_total - self.otc_total


def deployment_cost(model: CostModel) -> CostComparison:
    """Total cost each way: shared + delta for one-time certificates,
    shared + per-user fee x users for the traditional scheme."""
    return CostComparison(
        otc_total=model.shared_cost + model.issuance_overhead,
        traditional_total=model.shared_cost + model.per_user_cost * model.user_count,
    )


# ---------------------------------------------------------------------------
# Presentation
# ---------------------------------------------------------------------------

_CSV_HEADER = "suite,keygen_s,sign_s,total_s,overhead_pct"


def _fmt(value: float) -> str:
    # Published rows are all two-decimal; machine timings can be far below
    # a hundredth of a second and need the extra digits.
    return f"{value:.2f}" if value >= 0.005 else f"{value:.6g}"


def format_table(records: Sequence[BenchRecord], title: Optional[str] = None) -> str:
    headers = ("", "keygen (s)", "sign (s)", "total (s)", "overhead")
    rows = [
        (
            record.label,
            _fmt(record.keygen_seconds),
            _fmt(record.sign_seconds),
            _fmt(record.total_seconds),
            f"{record.overhead_pct}%",
        )
        for record in records
    ]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in rows))
        for col in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells.extend(cell.rjust(w) for cell, w in zip(row[1:], widths[1:]))
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def to_csv(records: Sequence[BenchRecord]) -> str:
    lines = [_CSV_HEADER]
    for record in records:
        lines.append(
            f"{record.label},{record.keygen_seconds!r},{record.sign_seconds!r},"
            f"{record.total_seconds!r},{record.overhead_pct}"
        )
    return "\n".join(lines)
