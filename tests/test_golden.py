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


def _ring3():
    return gen_topology("ring", [11, 11, 11], seed=3)


# name -> (circuit, cluster, seed, cost params)
CASES = {
    "adder16-line": (lambda: gen_adder(16), _line, 7, None),
    "qft16-line": (lambda: gen_qft(16), _line, 7, None),
    "qaoa16-line": (lambda: gen_qaoa(16, 2, 7), _line, 7, None),
    "qft12-ring-fractional": (lambda: gen_qft(12), _ring, 11, FRACTIONAL),
    # Clustering forces a merge past the largest capacity, and repair then
    # evicts 5 qubits.
    "adder32-ring-repair": (lambda: gen_adder(32), _ring3, 5, None),
}

# name -> sha256 of the rendered report
DIGESTS_BEFORE_3_12 = {
    "adder16-line": "75f010204f18fc6b592ddeaccc02f2ce438a8ed56f2927011e6ed49e4d8042a0",
    "qft16-line": "518a170fda5f821438bb403176037bb26350058c2982afb5d9d1b246b28e0965",
    "qaoa16-line": "93935a8e04728ca1669e9714a7c140b97396442658463e24ae89d8a546b8f4c0",
    "qft12-ring-fractional": "ec8082ae4f219131161c7d68c455786e654c88c07cce8a5eb355df14caa3eb5e",
    "adder32-ring-repair": "a6947ad85e2287908327d5b029393f162d776d610f87e1669c84ea8d36e143a9",
}
DIGESTS_FROM_3_12 = {
    "adder16-line": "352b9e0e7d22726d5eeafe13e80266c56f15b2daefed0ee9c8b1939d1dbfe1d6",
    "qft16-line": "a5fc574ca3414a4ac5da62148a8e748dbe3d4504d69ace91f7803da720151d0e",
    "qaoa16-line": "9fcdd5b559c600485dca0e74edaf587a9d30a54be9178902dec6d81ea8a7cfc0",
    "qft12-ring-fractional": "ec8082ae4f219131161c7d68c455786e654c88c07cce8a5eb355df14caa3eb5e",
    "adder32-ring-repair": "a6947ad85e2287908327d5b029393f162d776d610f87e1669c84ea8d36e143a9",
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
