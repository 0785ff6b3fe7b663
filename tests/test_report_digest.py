"""The report digest of ``tools/report_digest.py``, pinned.

A change that alters any report of the digest's corpus changes this
value; such a change updates it here and gives its reason, as it would
for a golden file.  The budgets of 50 and 2,000 drive the separating-set
search across its budget boundary.
"""

import importlib.util
from pathlib import Path

DIGEST = "39da230cd33bba332cd17050d5a4f1ef20a75ae6a3e900527ca8f3a1ecfe13c6  486 reports"


def test_report_digest_is_pinned():
    path = Path(__file__).resolve().parent.parent / "tools" / "report_digest.py"
    spec = importlib.util.spec_from_file_location("report_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.digest_line() == DIGEST
