"""Write tests/golden_cli.json: the exact exit code, stdout and stderr of
every golden CLI case (help screens and usage errors included), produced
by the intervaldyn on the import path.

    PYTHONPATH=src python3 tests/make_golden_cli.py
    PYTHONPATH=src python3 tests/make_golden_cli.py --check

Regenerate only for an intended output change, and review the diff.
With --check nothing is written: every argv whose exit code, stdout or
stderr differs from the stored file is printed, and the exit status is 1 if
any does (or if the stored argv list differs), 0 otherwise.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from test_acceptance import GOLDEN_PATH, golden_argvs, run_golden  # noqa: E402


def generate() -> list[dict]:
    cases = []
    for argv in golden_argvs():
        code, stdout, stderr = run_golden(argv)
        cases.append({"argv": argv, "code": code, "stdout": stdout, "stderr": stderr})
    return cases


def check(cases: list[dict]) -> int:
    stored = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    if [case["argv"] for case in stored] != [case["argv"] for case in cases]:
        print(f"the argv list differs from {GOLDEN_PATH}")
        return 1
    drifted = [new["argv"] for old, new in zip(stored, cases)
               if (old["code"], old["stdout"], old["stderr"])
               != (new["code"], new["stdout"], new["stderr"])]
    for argv in drifted:
        print("differs: " + " ".join(argv))
    print(f"{len(drifted)} of {len(cases)} cases differ from {GOLDEN_PATH}")
    return 1 if drifted else 0


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit("usage: make_golden_cli.py [--check]")
    cases = generate()
    if sys.argv[1:] == ["--check"]:
        sys.exit(check(cases))
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(cases, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}")
