"""citecheck: bibliography verification and repair for paper-like projects.

Scan a workspace, pick the paper artifact, extract and normalize its
references, verify them against PubMed / Crossref / arXiv / Semantic
Scholar, and emit structured verdicts, curation worklists, and
policy-gated rewrite patches. Available as a library, a CLI
(``citecheck``), and an MCP stdio server (``citecheck serve``).
"""

__version__ = "0.5.0"

from .errors import CitecheckError  # noqa: E402
from .workspace import ScanReport, scan_workspace, select_primary_artifact  # noqa: E402
from .extraction import ExtractionResult, extract_references  # noqa: E402
from .matching import EntryVerdict, verify_entries, verify_entry  # noqa: E402
from .policy import PRESETS, evaluate_policy, summarize_batch  # noqa: E402
from .rewrite import apply_rewrite, plan_rewrite, render_bibliography  # noqa: E402
from .pipeline import RunOptions, report_json, run_repair  # noqa: E402

__all__ = [
    "__version__", "CitecheckError",
    "scan_workspace", "select_primary_artifact", "ScanReport",
    "extract_references", "ExtractionResult",
    "verify_entry", "verify_entries", "EntryVerdict",
    "summarize_batch", "evaluate_policy", "PRESETS",
    "plan_rewrite", "apply_rewrite", "render_bibliography",
    "RunOptions", "run_repair", "report_json",
]
