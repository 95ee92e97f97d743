"""Write tests/golden_cli.json: the exact stdout and exit code of every
golden CLI case, produced by the intervaldyn on the import path.

    PYTHONPATH=src python3 tests/make_golden_cli.py

Regenerate only for an intended output change, and review the diff.
"""

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from test_acceptance import GOLDEN_PATH, golden_argvs  # noqa: E402

from intervaldyn.cli import main  # noqa: E402

cases = []
for argv in golden_argvs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    cases.append({"argv": argv, "code": code, "stdout": out.getvalue()})
with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
    json.dump(cases, handle, indent=1)
    handle.write("\n")
print(f"wrote {len(cases)} cases to {GOLDEN_PATH}")
