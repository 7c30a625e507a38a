"""Co-design flow orchestration, full-chip roll-up, reports, claims."""

from .claims import HeadlineClaims, PAPER_CLAIMS, compute_claims
from .flow import DesignResult, MonolithicResult, run_design, run_monolithic
from .fullchip import FullChipSummary, full_chip_summary
from .report import format_comparison, format_table
from .signoff import SignoffCheck, SignoffReport, run_signoff

__all__ = [
    "DesignResult", "FullChipSummary", "HeadlineClaims",
    "MonolithicResult", "PAPER_CLAIMS", "compute_claims",
    "SignoffCheck", "SignoffReport", "format_comparison",
    "format_table", "full_chip_summary", "run_signoff",
    "run_design", "run_monolithic",
]
