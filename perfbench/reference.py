"""Expected outputs of every request, and the check of one result against them.

``reference.json`` was generated once by ``make_reference.py`` and is
never regenerated by a change that claims a speed-up: the benchmark's
checks must not get weaker as the program gets faster.
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads

PATH = Path(__file__).with_name("reference.json")


def load(path=PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def failure(request: dict, result: dict, reference: dict) -> str | None:
    """Why a request failed, or None when its output is correct.

    A request fails when it raised, exited non-zero, or produced output
    other than the reference.  ``verify`` passes only when every CHECK line
    of the reference is present and no line reports FAIL.
    """
    if "error" in result:
        return result["error"]
    if result["rc"] != 0:
        return f"exit code {result['rc']}"
    key = workloads.key(request)
    if request["kind"] == "call":
        expected = reference["calls"][key]
        if result["value"] != expected:
            return f"result {result['value']!r} differs from the reference {expected!r}"
        return None
    if request["argv"][0] == "verify":
        lines = result["text"].splitlines()
        missing = sorted(set(reference["verify"][key]) - set(lines))
        if missing:
            return f"{len(missing)} CHECK lines missing, first: {missing[0]}"
        failed = [line for line in lines if line.endswith(" FAIL")]
        if failed:
            return f"{len(failed)} CHECK lines FAIL, first: {failed[0]}"
        return None
    if result["sha256"] != reference["outputs"][key]:
        return "output differs from the reference"
    return None
