"""CI's trace-cache key and the local trace cache hash the same code.

``tests/conftest.py`` names the local trace-cache directory after a
digest of ``TRACE_CODE``; CI's "Restore trace cache" step keys
``~/.cache/repro/traces`` on the files its ``hashFiles`` call names.
Both say that a change to one list belongs in the other.  A path missing
from either would let a run replay traces that other code wrote.
"""

import re
from pathlib import Path

from .conftest import TRACE_CODE

ROOT = Path(__file__).resolve().parent.parent
KEY = re.compile(r"key: repro-traces-v1-\$\{\{ hashFiles\(([^)]*)\) \}\}")


def test_ci_trace_cache_key_hashes_the_trace_code():
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    keys = KEY.findall(workflow)
    assert len(keys) == 1, keys
    hashed = set(re.findall(r"'([^']*)'", keys[0]))
    assert all((ROOT / entry).exists() for entry in TRACE_CODE)
    expected = {
        entry + "/**" if (ROOT / entry).is_dir() else entry for entry in TRACE_CODE
    }
    assert hashed == expected
