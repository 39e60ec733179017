"""Workload definitions: what each pass asks of chordenum, and why.

A request is a dict. ``{"kind": "cli", "argv": [...]}`` runs
``chordenum.cli.main(argv)`` with stdout captured; ``{"kind": "call",
"name": ...}`` runs one of the cross-check functions below and returns
its small JSON-able result.  Every pass of every workload runs in a fresh
interpreter started by ``run.py``, one child at a time.
"""

from __future__ import annotations

import hashlib
import math
import random

FAMILIES = (
    "loopless-linear",
    "loopless-chord",
    "loopless-cyclic",
    "loopless-dihedral",
    "simple-linear",
    "simple-chord",
    "simple-cyclic",
    "simple-dihedral",
    "all",
)
TRIANGLES = ("a_nk", "a_nkl", "ahat_nl")
SERIES = ("b", "phi", "chi", "psi", "W", "U", "wz", "wx", "wzx")
# Markers each series must have assigned on the command line.
SERIES_MARKERS = {"wz": ("z",), "wx": ("x",), "wzx": ("z", "x")}

# Parameter ranges of the interactive mix; the reference data covers every
# request these ranges can produce.
SEQ_MAX = (10, 60)
FIXED_N = (1, 80)
TRIANGLE_MAX = (4, 10)
SERIES_ORDER = (8, 20)
SEQ_PER_FAMILY = 11
FIXED_REQUESTS = 44
SERIES_PER_NAME = 4

# Why each workload exists.  ``run.py`` prints these and BENCHMARK.json
# repeats them in one line each.  BENCHMARK.json lists every workload but
# rows-200: its passes take 7-11 s, so a run holds only a few, and slow
# spells of the shared host that last a minute or two made its ten-run
# spread wider than the 25% bound.  Run it by name to measure the roadmap's
# 1 s target; interactive still covers its layers (symmetry, reflection).
WHY = {
    "rows-200": (
        "Rows 1..200 of all nine families, one fresh interpreter per pass as a user "
        "asks for the tables once. Large single requests into the recurrence layers "
        "(symmetry, reflection); no oracle, no series. Measures the 1 s roadmap target."
    ),
    "interactive": (
        "About 200 small seeded CLI requests (seq, fixed, triangle, series) in one "
        "process, like a library or REPL session. Many small overlapping calls, so any "
        "per-call fixed cost (tables built too far, validation repeated) shows in the "
        "latency percentiles even when rows-200 gets faster; the only workload where "
        "cli parse and render time matters."
    ),
    "oracle-sweep": (
        "verify --max 6 in a fresh interpreter: oracle and diagram do almost all the "
        "work. This is the budget the 'n = 9 inside the n <= 6 budget' target refers to."
    ),
    "crosscheck": (
        "The two independent routes verify does not run, each checked against the "
        "recurrences: generating functions (U, psi, the wzx classifier, the PDE "
        "residual) and the octahedron bijection at n = 5. Without it series and "
        "octahedron are unmeasured."
    ),
}

NAMES = tuple(WHY)


def cli(*argv) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv]}


def key(request: dict) -> str:
    """The reference-data key of a request."""
    if request["kind"] == "cli":
        return " ".join(request["argv"])
    return request["name"]


def _spread(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` values covering lo..hi evenly, each jittered inside its stratum.

    Stratifying keeps the mix of cheap and expensive requests nearly the
    same for every seed, so the latency percentiles compare across seeds.
    """
    width = hi - lo + 1
    return [lo + int(width * (i + rng.random()) / count) for i in range(count)]


def interactive_requests(seed: int) -> list[dict]:
    rng = random.Random(seed)
    requests = []
    for family in FAMILIES:
        requests += [cli("seq", family, "--max", m) for m in _spread(rng, *SEQ_MAX, SEQ_PER_FAMILY)]
    requests += [cli("fixed", "--n", n) for n in _spread(rng, *FIXED_N, FIXED_REQUESTS)]
    requests += [
        cli("triangle", name, "--max", m)
        for name in TRIANGLES
        for m in range(TRIANGLE_MAX[0], TRIANGLE_MAX[1] + 1)
    ]
    for name in SERIES:
        for order in _spread(rng, *SERIES_ORDER, SERIES_PER_NAME):
            markers = []
            for marker in SERIES_MARKERS.get(name, ()):
                markers += [f"--{marker}", rng.randint(0, 1)]
            requests.append(cli("series", name, "--order", order, *markers))
    rng.shuffle(requests)
    return requests


def interactive_space() -> list[dict]:
    """Every request ``interactive_requests`` can produce, for the reference data."""
    space = [
        cli("seq", family, "--max", m)
        for family in FAMILIES
        for m in range(SEQ_MAX[0], SEQ_MAX[1] + 1)
    ]
    space += [cli("fixed", "--n", n) for n in range(FIXED_N[0], FIXED_N[1] + 1)]
    space += [
        cli("triangle", name, "--max", m)
        for name in TRIANGLES
        for m in range(TRIANGLE_MAX[0], TRIANGLE_MAX[1] + 1)
    ]
    for name in SERIES:
        assignments = [[]]
        for marker in SERIES_MARKERS.get(name, ()):
            assignments = [a + [f"--{marker}", v] for a in assignments for v in (0, 1)]
        space += [
            cli("series", name, "--order", order, *a)
            for order in range(SERIES_ORDER[0], SERIES_ORDER[1] + 1)
            for a in assignments
        ]
    return space


CROSSCHECKS = ("series-U-150", "series-psi-60", "series-wzx-20", "series-pde-12", "octahedron-5")


def requests(workload: str, seed: int) -> list[dict]:
    """The requests of one pass.  Only ``interactive`` depends on the seed."""
    if workload == "rows-200":
        return [cli("seq", family, "--max", 200) for family in FAMILIES]
    if workload == "interactive":
        return interactive_requests(seed)
    if workload == "oracle-sweep":
        return [cli("verify", "--max", 6)]
    if workload == "crosscheck":
        return [{"kind": "call", "name": name} for name in CROSSCHECKS]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Cross-check calls.  Each runs the independent route and the recurrence it
# must agree with; both are part of the timed request.  Library functions are
# reached through their module so that a traced run sees the calls.


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _series_vs_sequence(name: str, order: int, table) -> dict:
    from chordenum import series

    coeffs = series.integer_coeffs(series.named_series(name, order))
    return {"agree": coeffs == list(table.values), "digest": digest(coeffs)}


def crosscheck(name: str) -> dict:
    from chordenum import labelled, octahedron, reflection, series

    if name == "series-U-150":
        return _series_vs_sequence("U", 150, labelled.simple_chord(150))
    if name == "series-psi-60":
        return _series_vs_sequence("psi", 60, labelled.loopless_chord(60))
    if name == "series-wzx-20":
        cells = series.marker_triangle(series.named_series("wzx", 20))
        entries = labelled.loop_parallel_triangle(20).entries
        agree = all(cells.get(k, 0) == entries.get(k, 0) for k in set(cells) | set(entries))
        return {"agree": agree, "digest": digest(sorted(cells.items()))}
    if name == "series-pde-12":
        return {"agree": series.full_pde_residual(12).is_zero()}
    if name == "octahedron-5":
        n = 5
        cycles, orbits = octahedron.count_cycles(n)
        b = labelled.loopless_chord(n)[n]
        return {
            "agree": cycles * 4 * n == b * 2**n * math.factorial(n)
            and orbits == reflection.loopless_dihedral(n)[n],
            "cycles": cycles,
            "orbits": orbits,
        }
    raise ValueError(f"unknown cross-check {name!r}")
