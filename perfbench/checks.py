"""Output checks.  Each checker returns None when the output is right and a
one-line description of the mismatch otherwise.  Callers run them outside
the timed region and count a mismatch as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# The default-seed `quintic report` output (ROADMAP invariant).
REPORT_BYTES = 3808
REPORT_SHA256 = "5f979bfa9435ca32da6d8178b2983ef454a26277d0201703ab73818375b359eb"

SWEEP_FIELDS = ("effective", "h1_positive", "max_h0")

# point_queries answers are tabulated for this seed; other seeds get the
# structural checks only.
TABLE_SEED = 1


def load_expected(name: str) -> dict:
    with open(EXPECTED_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_report(out: bytes) -> str | None:
    if len(out) != REPORT_BYTES:
        return f"report is {len(out)} bytes, expected {REPORT_BYTES}"
    digest = sha256(out)
    if digest != REPORT_SHA256:
        return f"report sha256 {digest}, expected {REPORT_SHA256}"
    return None


def check_sweep_summary(info: dict, expected: list[int]) -> str | None:
    """expected is [effective, h1_positive, max_h0] for info's type and bound."""
    got = [info[field] for field in SWEEP_FIELDS]
    if got != list(expected):
        return f"sweep {info['type']} bound {info['bound']}: {got} != {list(expected)}"
    return None


def check_sweep_row(coeffs, row: tuple, scalar: tuple, label: str) -> str | None:
    """A row (h0, h1, h2) of a sweep against the scalar h_all answer."""
    if tuple(row) != tuple(scalar):
        return f"sweep row {list(coeffs)} on {label}: {list(row)} != scalar {list(scalar)}"
    return None


def check_h_all(coeffs, answer, chi: int, dual_answer, expected=None) -> str | None:
    """Riemann-Roch, Serre duality h^i(D) = h^(2-i)(K-D), and the table."""
    h0, h1, h2 = answer
    if h0 - h1 + h2 != chi:
        return f"h_all {list(coeffs)}: {list(answer)} breaks Riemann-Roch, chi = {chi}"
    if tuple(dual_answer) != (h2, h1, h0):
        return f"h_all {list(coeffs)}: {list(answer)} but K-D gives {list(dual_answer)}"
    if expected is not None and list(answer) != list(expected):
        return f"h_all {list(coeffs)}: {list(answer)} != expected {list(expected)}"
    return None


def bott_serre_dual(weight) -> tuple[int, ...]:
    """-w - 2 rho: the weight whose cohomology is Serre dual to that of w."""
    n = len(weight)
    return tuple(-w - 2 * (n - 1 - i) for i, w in enumerate(weight))


def check_bott(weight, answer, dual_answer, expected=None) -> str | None:
    """answer and dual_answer are None or [degree, dim, dominant weight]."""
    n = len(weight)
    top = n * (n - 1) // 2
    if (answer is None) != (dual_answer is None) or (
        answer is not None
        and (dual_answer[0] != top - answer[0] or dual_answer[1] != answer[1])
    ):
        return f"bott {list(weight)}: {answer} is not Serre dual to {dual_answer}"
    if expected is not None and answer != expected:
        return f"bott {list(weight)}: {answer} != expected {expected}"
    return None


def check_rhom(labels: tuple[str, str], answer: dict, expected: dict) -> str | None:
    if answer != expected:
        return f"rhom{labels}: {answer} != expected {expected}"
    return None
