"""Golden report digests: `run_map` reports pinned byte for byte.

A change that must keep behaviour (a refactor, a speed-up) proves it here:
the sha256 of `render_json(run_map(...))` for a few fixed instances must not
move. One case uses fractional cost parameters, so the order in which float
costs are summed is pinned too, not only the chosen assignments. One table
holds on every supported Python because no float total goes through the
built-in sum(), which Python 3.12 made compensated; a guard test below
checks that.

Without pytest: `PYTHONPATH=src python tests/test_golden.py` prints each
case's digest and whether it matches its table.
"""
from __future__ import annotations

import builtins
import hashlib
import importlib
import pkgutil
import sys

import dqcmap
from dqcmap.bench import gen_adder, gen_qaoa, gen_qft
from dqcmap.cost import CostParams
from dqcmap.hardware import gen_topology
from dqcmap.harness import render_json, run_map
from dqcmap.placement import Assignment, InteractionGraph, edge_cut

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
DIGESTS = {
    "adder16-line": "75f010204f18fc6b592ddeaccc02f2ce438a8ed56f2927011e6ed49e4d8042a0",
    "qft16-line": "518a170fda5f821438bb403176037bb26350058c2982afb5d9d1b246b28e0965",
    "qaoa16-line": "93935a8e04728ca1669e9714a7c140b97396442658463e24ae89d8a546b8f4c0",
    "qft12-ring-fractional": "ec8082ae4f219131161c7d68c455786e654c88c07cce8a5eb355df14caa3eb5e",
    "adder32-ring-repair": "a6947ad85e2287908327d5b029393f162d776d610f87e1669c84ea8d36e143a9",
}


def report_digest(name: str) -> str:
    circuit, cluster, seed, cp = CASES[name]
    report = run_map(circuit(), cluster(), seed=seed, cost_params=cp)
    return hashlib.sha256(render_json(report).encode()).hexdigest()


def test_report_digests_unchanged():
    got = {name: report_digest(name) for name in CASES}
    assert got == DIGESTS


def test_no_float_goes_through_builtin_sum(monkeypatch):
    # sum() is patched as a global of each dqcmap module only, so the
    # standard library and pytest keep the built-in.
    seen = set()

    def checked_sum(values, start=0):
        values = list(values)
        if any(isinstance(v, float) for v in (start, *values)):
            caller = sys._getframe(1)
            seen.add(f"{caller.f_code.co_filename.rsplit('/', 1)[-1]}:{caller.f_lineno}")
        return builtins.sum(values, start)

    for info in pkgutil.iter_modules(dqcmap.__path__):
        module = importlib.import_module(f"dqcmap.{info.name}")
        monkeypatch.setattr(module, "sum", checked_sum, raising=False)
    for name in CASES:
        report_digest(name)
    g = InteractionGraph(n_qubits=4, weights={(0, 1): 0.1, (1, 2): 0.2, (2, 3): 0.7})
    assert edge_cut(g, Assignment((1, 1, 2, 2))) == 0.2
    assert sorted(seen) == []


if __name__ == "__main__":
    print(f"python {sys.version.split()[0]}")
    bad = 0
    for name in CASES:
        digest = report_digest(name)
        ok = digest == DIGESTS[name]
        bad += not ok
        print(f"{name:24s} {digest} {'ok' if ok else 'MISMATCH'}")
    sys.exit(1 if bad else 0)
