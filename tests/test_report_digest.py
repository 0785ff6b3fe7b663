"""The report digest of ``tools/report_digest.py``, pinned.

A change that alters any report of the digest's corpus changes this
value; such a change updates it here and gives its reason, as it would
for a golden file.  The budgets of 50 and 2,000 drive the searches above
the trace table's gate across their budget boundary, and the instances
inside it show that nothing there is refused.
"""

import importlib.util
from pathlib import Path

DIGEST = "d52f460e93f5cd688276cb873ef64afa51b985ee5f17eec21ccb5f8c4edf10f1  486 reports"


def test_report_digest_is_pinned():
    path = Path(__file__).resolve().parent.parent / "tools" / "report_digest.py"
    spec = importlib.util.spec_from_file_location("report_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.digest_line() == DIGEST
