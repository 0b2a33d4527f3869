"""Golden report digests: `run_map` reports pinned byte for byte.

A change that must keep behaviour (a refactor, a speed-up) proves it here:
the sha256 of `render_json(run_map(...))` for a few fixed instances must not
move. One case uses fractional cost parameters, so the order in which float
costs are summed is pinned too, not only the chosen assignments.

Python 3.12 made the built-in float `sum()` compensated, which changes the
last digit of some rendered totals, so each case has one digest for
Python < 3.12 and one for >= 3.12.

Without pytest: `PYTHONPATH=src python tests/test_golden.py` prints each
case's digest and whether it matches its table.
"""
from __future__ import annotations

import hashlib
import sys

from dqcmap.bench import gen_adder, gen_qaoa, gen_qft
from dqcmap.cost import CostParams
from dqcmap.hardware import gen_topology
from dqcmap.harness import render_json, run_map

FRACTIONAL = CostParams(swap_cost=0.3, remote_op_cost=2.7, teleport_cost=2.7)


def _line():
    return gen_topology("line", [6, 6, 8], seed=7)


def _ring():
    return gen_topology("ring", [5, 5, 6, 6], seed=3)


# name -> (circuit, cluster, seed, cost params)
CASES = {
    "adder16-line": (lambda: gen_adder(16), _line, 7, None),
    "qft16-line": (lambda: gen_qft(16), _line, 7, None),
    "qaoa16-line": (lambda: gen_qaoa(16, 2, 7), _line, 7, None),
    "qft12-ring-fractional": (lambda: gen_qft(12), _ring, 11, FRACTIONAL),
}

# name -> sha256 of the rendered report
DIGESTS_BEFORE_3_12 = {
    "adder16-line": "d02b3ec56d44d011ba3f9b192eb8ec627db7bce9a33c5e8b94f3591fc9de796b",
    "qft16-line": "7b9a842a97dffe9be477402c56851ca7ea7de0076e0c11be11ecda6d31de0b30",
    "qaoa16-line": "746244821fde606d46d2db5c3de9dd2f6e87d0116363e440981e54a7031ffa5f",
    "qft12-ring-fractional": "9ad37c7a9d9a00e15b7c8b3e8288dd7432cce2925305e21efa54515071f89695",
}
DIGESTS_FROM_3_12 = {
    "adder16-line": "07696d4643bc33667655dc1fcca993e32d4c6e203ae2ed090e8d3ff73e7b0645",
    "qft16-line": "f3d70efafce1280d203f743ed776ddff253030aa4c13e78be4a7e0a187c3fd08",
    "qaoa16-line": "e3b8f29733d2684c3debe7c160f9b0ff6bdf7da216c904ad6f2f12917a2daa47",
    "qft12-ring-fractional": "9ad37c7a9d9a00e15b7c8b3e8288dd7432cce2925305e21efa54515071f89695",
}


def expected_digests() -> dict[str, str]:
    return DIGESTS_FROM_3_12 if sys.version_info >= (3, 12) else DIGESTS_BEFORE_3_12


def report_digest(name: str) -> str:
    circuit, cluster, seed, cp = CASES[name]
    report = run_map(circuit(), cluster(), seed=seed, cost_params=cp)
    return hashlib.sha256(render_json(report).encode()).hexdigest()


def test_report_digests_unchanged():
    expected = expected_digests()
    got = {name: report_digest(name) for name in CASES}
    assert got == expected


if __name__ == "__main__":
    expected = expected_digests()
    print(f"python {sys.version.split()[0]}")
    bad = 0
    for name in CASES:
        digest = report_digest(name)
        ok = digest == expected[name]
        bad += not ok
        print(f"{name:24s} {digest} {'ok' if ok else 'MISMATCH'}")
    sys.exit(1 if bad else 0)
