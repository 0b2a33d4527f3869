"""Command line behavior, exercised in process through main(argv)."""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqcmap import circuit, cli, harness
from dqcmap.anneal import AnnealParams
from dqcmap.bench import gen_adder, gen_qft
from dqcmap.circuit import parse_qasm
from dqcmap.cli import EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK, main
from dqcmap.cost import CostParams
from dqcmap.hardware import gen_topology, load_cluster, serialize_cluster
from dqcmap.harness import render_json, run_map
from dqcmap.segmentation import SegmentationParams


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def topo_file(tmp_path):
    path = tmp_path / "topo.json"
    code = main(["gen-topology", "--gen", "line", "--sizes", "4,4",
                 "--seed", "0", "--out", str(path)])
    assert code == EXIT_OK
    return str(path)


class TestGenBench:
    def test_qft_roundtrips_through_qasm(self, capsys):
        code, out, _ = run_cli(capsys, "gen-bench", "--bench", "qft", "--size", "4")
        assert code == EXIT_OK
        circ = parse_qasm(out)
        assert circ.n_qubits == 4
        assert len(circ.gates) == 12

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "adder.qasm"
        code, out, _ = run_cli(capsys, "gen-bench", "--bench", "adder",
                               "--size", "8", "--out", str(path))
        assert code == EXIT_OK and out == ""
        circ = parse_qasm(path.read_text())
        assert circ.n_qubits == 8

    def test_qaoa_seed_changes_output(self, capsys):
        _, one, _ = run_cli(capsys, "gen-bench", "--bench", "qaoa",
                            "--size", "8", "--seed", "1")
        _, two, _ = run_cli(capsys, "gen-bench", "--bench", "qaoa",
                            "--size", "8", "--seed", "2")
        assert one != two

    def test_missing_size(self, capsys):
        code, _, err = run_cli(capsys, "map", "--bench", "qft",
                               "--gen", "line", "--sizes", "4,4")
        assert code == EXIT_INPUT
        assert "--size" in err

    def test_bad_size_is_input_error(self, capsys):
        code, _, _ = run_cli(capsys, "gen-bench", "--bench", "qft", "--size", "1")
        assert code == EXIT_INPUT


class TestGenTopology:
    def test_capacities_respected(self, capsys):
        code, out, _ = run_cli(capsys, "gen-topology", "--gen", "line",
                               "--sizes", "27,27,14,20", "--seed", "0")
        assert code == EXIT_OK
        ct = load_cluster(out)
        assert [p.comp_capacity for p in ct.qpus] == [27, 27, 14, 20]
        assert ct.n_qpus == 4

    def test_all_kinds_load_back(self, capsys):
        for kind in ("line", "ring", "grid", "heavy_hex_like"):
            code, out, _ = run_cli(capsys, "gen-topology", "--gen", kind,
                                   "--sizes", "4,4,4,4", "--seed", "1")
            assert code == EXIT_OK
            assert load_cluster(out).n_qpus == 4

    def test_bad_sizes(self, capsys):
        code, _, err = run_cli(capsys, "gen-topology", "--gen", "line",
                               "--sizes", "4,x")
        assert code == EXIT_INPUT
        assert "comma-separated" in err

    @pytest.mark.parametrize("sizes", ["6,,8", "6,8,", " "])
    def test_blank_size_refused(self, capsys, sizes):
        # a blank item is refused, not dropped: 6,,8 is not a 2-QPU cluster
        code, out, err = run_cli(capsys, "gen-topology", "--gen", "line", "--sizes", sizes)
        assert code == EXIT_INPUT
        assert out == ""
        assert "--sizes must be comma-separated integers" in err


class TestMap:
    def test_json_report(self, topo_file, capsys):
        code, out, _ = run_cli(capsys, "map", "--bench", "qft", "--size", "6",
                               "--topology", topo_file, "--seed", "3",
                               "--iters", "300")
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["schema_version"] == 1
        assert rep["run"]["seed"] == 3
        assert rep["totals"]["e_total"] > 0

    def test_same_seed_byte_identical(self, topo_file, capsys):
        args = ("map", "--bench", "qft", "--size", "6", "--topology", topo_file,
                "--seed", "5", "--iters", "300")
        _, one, _ = run_cli(capsys, *args)
        _, two, _ = run_cli(capsys, *args)
        assert one == two

    def test_seed_env_fallback(self, topo_file, capsys, monkeypatch):
        monkeypatch.setenv("DQCMAP_SEED", "17")
        _, out, _ = run_cli(capsys, "map", "--bench", "qft", "--size", "6",
                            "--topology", topo_file, "--iters", "300")
        assert json.loads(out)["run"]["seed"] == 17

    def test_bad_seed_env(self, topo_file, capsys, monkeypatch):
        monkeypatch.setenv("DQCMAP_SEED", "lots")
        code, _, err = run_cli(capsys, "map", "--bench", "qft", "--size", "6",
                               "--topology", topo_file)
        assert code == EXIT_INPUT
        assert "DQCMAP_SEED" in err

    def test_circuit_file_input(self, topo_file, tmp_path, capsys):
        qasm = tmp_path / "mine.qasm"
        qasm.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
            "cx q[0], q[1];\ncx q[1], q[2];\n")
        code, out, _ = run_cli(capsys, "map", "--circuit", str(qasm),
                               "--topology", topo_file, "--iters", "200")
        assert code == EXIT_OK
        assert json.loads(out)["circuit"]["name"] == "mine"

    def test_missing_circuit_file(self, topo_file, capsys):
        code, _, err = run_cli(capsys, "map", "--circuit", "/nope/missing.qasm",
                               "--topology", topo_file)
        assert code == EXIT_INPUT
        assert "cannot read circuit file" in err

    def test_infeasible_instance(self, capsys):
        code, _, err = run_cli(capsys, "map", "--bench", "qft", "--size", "12",
                               "--gen", "line", "--sizes", "4,4", "--seed", "0")
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in err

    @pytest.mark.parametrize("command", ["map", "ablate", "sweep-ratio"])
    def test_wide_circuit_refused_before_preparation(self, command, tmp_path, capsys,
                                                    monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("prepared a circuit that cannot fit")

        monkeypatch.setattr(harness, "prepare", fail)
        qasm = tmp_path / "wide.qasm"
        qasm.write_text("OPENQASM 2.0;\nqreg q[3000000];\ncx q[0],q[1];\n")
        code, _, err = run_cli(capsys, command, "--circuit", str(qasm),
                               "--gen", "line", "--sizes", "2,2")
        assert code == EXIT_INFEASIBLE
        assert "3000000 qubits" in err

    def test_wide_register_refused_before_broadcast(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("built a gate of a circuit that cannot fit")

        monkeypatch.setattr(circuit, "GateOp", fail)
        qasm = tmp_path / "bcast.qasm"
        qasm.write_text("OPENQASM 2.0;\nqreg q[5];\nh q;\n")
        code, _, err = run_cli(capsys, "map", "--circuit", str(qasm),
                               "--gen", "line", "--sizes", "2,2")
        assert code == EXIT_INFEASIBLE
        assert "5 qubits exceed total capacity 4" in err

    @pytest.mark.parametrize("command", ["map", "ablate", "sweep-ratio"])
    @pytest.mark.parametrize("bench", ["qft", "qaoa", "adder"])
    def test_wide_bench_refused_before_generation(self, command, bench, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("generated a circuit that cannot fit")

        for name in ("gen_qft", "gen_qaoa", "gen_adder"):
            monkeypatch.setattr(cli, name, fail)
        code, _, err = run_cli(capsys, command, "--bench", bench, "--size", "100000",
                               "--gen", "line", "--sizes", "2,2")
        assert code == EXIT_INFEASIBLE
        assert "100000 qubits" in err

    def test_deeply_signed_angle_is_input_error(self, tmp_path, capsys):
        qasm = tmp_path / "deep.qasm"
        qasm.write_text("OPENQASM 2.0;\nqreg q[1];\nrx(" + "-" * 2000 + "1) q[0];\n")
        code, _, err = run_cli(capsys, "map", "--circuit", str(qasm),
                               "--gen", "line", "--sizes", "2,2")
        assert code == EXIT_INPUT
        assert "nested deeper" in err

    def test_overflowing_angle_is_input_error(self, tmp_path, capsys):
        qasm = tmp_path / "inf.qasm"
        qasm.write_text("OPENQASM 2.0;\nqreg q[2];\nrz(1e999) q[0];\ncx q[0],q[1];\n")
        code, _, err = run_cli(capsys, "map", "--circuit", str(qasm),
                               "--gen", "line", "--sizes", "2,2")
        assert code == EXIT_INPUT
        assert "not a finite number" in err

    def test_partial_seg_params_rejected(self, topo_file, capsys):
        code, _, err = run_cli(capsys, "map", "--bench", "qft", "--size", "6",
                               "--topology", topo_file, "--window", "2")
        assert code == EXIT_INPUT
        assert "together" in err

    @pytest.mark.parametrize("command", ["map", "ablate"])
    def test_csv_format_rejected(self, command, capsys):
        # map and ablate report JSON only and take no --format, not even json
        for fmt in ("csv", "json"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--bench", "qft", "--size", "6",
                      "--gen", "line", "--sizes", "4,4", "--format", fmt])
            assert exc.value.code == EXIT_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "unrecognized arguments: --format" in captured.err

    @pytest.mark.parametrize("command", ["map", "ablate", "sweep-ratio"])
    def test_top_k_above_qubit_count_rejected(self, command, capsys):
        code, out, err = run_cli(capsys, command, "--bench", "qft", "--size", "6",
                                 "--gen", "ring", "--sizes", "4,4", "--window", "1",
                                 "--top-k", "9", "--theta", "0.5")
        assert code == EXIT_INPUT
        assert out == ""
        assert "--top-k 9" in err

    def test_lambda_reaches_clustering(self, capsys):
        args = ("map", "--bench", "adder", "--size", "16", "--gen", "line",
                "--sizes", "6,6,8", "--iters", "300")
        code, flat, _ = run_cli(capsys, *args, "--lambda", "0")
        assert code == EXIT_OK
        want = run_map(gen_adder(16), gen_topology("line", [6, 6, 8], 0), seed=0,
                       cost_params=CostParams().with_ratio(5.0),
                       anneal_params=AnnealParams(iters_per_segment=300), decay=0.0)
        assert flat == render_json(want)
        _, default, _ = run_cli(capsys, *args)
        assert flat != default

    @pytest.mark.parametrize("flag,value", [
        ("--lambda", "-1"), ("--lambda", "nan"),
        ("--ratio", "nan"), ("--ratio", "inf"), ("--gamma2", "nan"),
        ("--t0", "nan"), ("--cooling-rate", "inf"),
    ])
    def test_non_finite_or_negative_param_rejected(self, flag, value, capsys):
        code, out, err = run_cli(capsys, "map", "--bench", "qft", "--size", "6",
                                 "--gen", "line", "--sizes", "4,4", "--iters", "50",
                                 flag, value)
        assert code == EXIT_INPUT
        assert out == ""
        assert "finite" in err

    def test_bool_link_endpoint_rejected(self, topo_file, tmp_path, capsys):
        # JSON true would otherwise pass as QPU 1 and name the link "True-2"
        with open(topo_file, encoding="utf-8") as f:
            topo = json.load(f)
        topo["links"][0]["a"] = True
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(topo))
        code, out, err = run_cli(capsys, "map", "--bench", "qft", "--size", "6",
                                 "--topology", str(path), "--iters", "20")
        assert code == EXIT_INPUT
        assert out == ""
        assert "integer" in err

    def test_huge_capacity_refused_before_allocation(self, tmp_path):
        # One edge cannot connect 10^20 qubits. That is checked before any
        # table of comp_capacity entries is built; without the check the run
        # grows without bound, so it runs in a child process under a 2 GB
        # address-space limit, which times itself.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"qpus": [{"name": "a", "comp_capacity": 10 ** 20,
                                              "coupling": [[0, 1]], "comm_qubits": 1}]}))
        script = ("import resource, sys, time\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                  "from dqcmap.cli import main\n"
                  "t = time.perf_counter()\n"
                  "code = main(['map', '--bench', 'qft', '--size', '6', '--topology', sys.argv[1]])\n"
                  "print(code, time.perf_counter() - t)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        done = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                              capture_output=True, text=True, timeout=60)
        code, seconds = done.stdout.split()
        assert int(code) == EXIT_INPUT
        assert float(seconds) < 0.1
        assert "coupling graph is not connected" in done.stderr

    @pytest.mark.parametrize("links", [
        '[{"a": 1, "b": 2, "cost_factor": NaN}]',
        '[{"a": 1, "b": 2, "cost_factor": Infinity}]',
        '[{"a": 1, "b": 2, "cost_factor": 1e308}, {"a": 2, "b": 3, "cost_factor": 1e308}]',
    ], ids=["nan", "infinity", "path_overflow"])
    def test_non_finite_link_cost_rejected(self, links, tmp_path, capsys):
        # the message blames the topology, not the cost flags
        qpus = [{"name": n, "comp_capacity": 3, "coupling": [[0, 1], [1, 2]],
                 "comm_qubits": 1} for n in "abc"]
        path = tmp_path / "topo.json"
        path.write_text(f'{{"qpus": {json.dumps(qpus)}, "links": {links}}}')
        code, out, err = run_cli(capsys, "map", "--bench", "qft", "--size", "6",
                                 "--topology", str(path), "--iters", "20")
        assert code == EXIT_INPUT
        assert out == ""
        assert "topology" in err and "--ratio" not in err

    @pytest.mark.parametrize("command,flag,value", [
        ("map", "--ratio", "1e308"), ("map", "--gamma1", "1e308"),
        ("ablate", "--ratio", "1e308"), ("sweep-ratio", "--ratios", "1e308"),
    ])
    def test_overflowing_totals_rejected(self, command, flag, value, capsys):
        # finite but huge cost parameters overflow the totals to inf
        code, out, err = run_cli(capsys, command, "--bench", "qft", "--size", "6",
                                 "--gen", "ring", "--sizes", "3,3", "--iters", "20",
                                 flag, value)
        assert code == EXIT_INPUT
        assert out == ""
        assert "not finite" in err and "--gamma1" in err

    @pytest.mark.parametrize("args", [
        ("--bench", "adder", "--cooling-rate", "1e308"),
        ("--bench", "adder", "--t0", "5e-324"),
        ("--bench", "qft", "--gamma1", "0", "--gamma2", "5e-324", "--gamma3", "0"),
    ], ids=["cooling_rate", "t0", "subnormal_calibrated_t0"])
    def test_temperature_underflow_to_zero(self, args, capsys):
        # the temperature reaches 0.0, where every uphill move is rejected
        code, out, err = run_cli(capsys, "map", *args, "--size", "8", "--gen", "line",
                                 "--sizes", "4,4", "--seed", "3")
        assert code == EXIT_OK, err
        assert json.loads(out)

    def test_argparse_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["map", "--bench", "nosuch", "--size", "4",
                  "--gen", "line", "--sizes", "4,4"])
        assert exc.value.code == 2


class TestAblateAndSweep:
    def test_ablate_smoke(self, topo_file, capsys):
        code, out, _ = run_cli(capsys, "ablate", "--bench", "qft", "--size", "6",
                               "--topology", topo_file, "--seed", "1",
                               "--iters", "300")
        assert code == EXIT_OK
        rep = json.loads(out)
        assert set(rep["reductions"]) == {"L1", "L2", "L3"}

    def test_sweep_csv_default(self, topo_file, capsys):
        code, out, _ = run_cli(capsys, "sweep-ratio", "--bench", "qft",
                               "--size", "6", "--topology", topo_file,
                               "--ratios", "3,1", "--iters", "200")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("ratio,")
        assert len(lines) == 3

    def test_sweep_ratio_colon_form(self, topo_file, capsys):
        code, out, _ = run_cli(capsys, "sweep-ratio", "--bench", "qft",
                               "--size", "6", "--topology", topo_file,
                               "--ratios", "3:1", "--iters", "200",
                               "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["schema_version"] == harness.SCHEMA_VERSION
        assert doc["rows"][0]["ratio"] == 3.0

    def test_sweep_gammas_reach_rows(self, topo_file, capsys):
        # a sweep row is the map run at its ratio, gammas included
        common = ("--bench", "qft", "--size", "6", "--topology", topo_file,
                  "--seed", "2", "--iters", "200")

        def row_total(*extra):
            code, out, _ = run_cli(capsys, "sweep-ratio", *common, "--ratios", "3",
                                   "--format", "json", *extra)
            assert code == EXIT_OK
            return json.loads(out)["rows"][0]["total"]

        code, out, _ = run_cli(capsys, "map", *common, "--ratio", "3", "--gamma2", "0.5")
        assert code == EXIT_OK
        want = json.loads(out)["totals"]["e_total"]
        assert row_total("--gamma2", "0.5") == want
        assert row_total() != want

    def test_bad_ratio(self, topo_file, capsys):
        code, _, err = run_cli(capsys, "sweep-ratio", "--bench", "qft",
                               "--size", "6", "--topology", topo_file,
                               "--ratios", "0")
        assert code == EXIT_INPUT
        assert "ratio" in err

    @pytest.mark.parametrize("ratios", ["5,,2", ",5", "5, "])
    def test_blank_ratio_refused(self, topo_file, capsys, ratios):
        code, out, err = run_cli(capsys, "sweep-ratio", "--bench", "qft",
                                 "--size", "6", "--topology", topo_file,
                                 "--ratios", ratios)
        assert code == EXIT_INPUT
        assert out == ""
        assert "--ratios has a blank item" in err

    def test_sweep_ratio_refuses_ratio(self, topo_file, capsys):
        # each --ratios entry sets the inter-QPU costs, so --ratio would be
        # ignored; nor may it pass as an abbreviation of --ratios
        with pytest.raises(SystemExit) as exc:
            main(["sweep-ratio", "--bench", "qft", "--size", "6", "--topology", topo_file,
                  "--ratios", "5,2", "--iters", "20", "--ratio", "2"])
        assert exc.value.code == EXIT_INPUT
        assert "--ratio" in capsys.readouterr().err

    @pytest.mark.parametrize("ratios", ["nan", "3,inf"])
    def test_non_finite_ratio(self, topo_file, capsys, ratios):
        code, _, err = run_cli(capsys, "sweep-ratio", "--bench", "qft",
                               "--size", "6", "--topology", topo_file,
                               "--ratios", ratios)
        assert code == EXIT_INPUT
        assert "finite" in err


# every shared parameter flag, each away from its default
SHARED_FLAGS = ("--window", "2", "--top-k", "3", "--theta", "0.4", "--lambda", "0.7",
                "--gamma1", "1.5", "--gamma2", "0.5", "--gamma3", "2",
                "--iters", "40", "--t0", "0.8", "--cooling-rate", "0.2", "--seed", "4")
SHARED_SETTINGS = dict(seed=4, seg_params=SegmentationParams(window=2, top_k=3, threshold=0.4),
                       anneal_params=AnnealParams(t0=0.8, cooling_rate=0.2,
                                                  iters_per_segment=40),
                       decay=0.7)
SHARED_COSTS = CostParams(gamma1=1.5, gamma2=0.5, gamma3=2.0)


class TestCommandPath:
    """map, ablate and sweep-ratio read their flags through one path."""

    @pytest.mark.parametrize("command,extra", [
        ("map", ("--ratio", "3")),
        ("ablate", ("--ratio", "3")),
        ("sweep-ratio", ("--ratios", "4,3:2")),
        ("sweep-ratio", ("--ratios", "4,3:2", "--format", "json")),
    ], ids=["map", "ablate", "sweep-csv", "sweep-json"])
    def test_every_shared_flag_reaches_the_runner(self, command, extra, capsys):
        code, out, err = run_cli(capsys, command, "--bench", "qft", "--size", "10",
                                 "--gen", "ring", "--sizes", "4,4,4", *SHARED_FLAGS, *extra)
        assert code == EXIT_OK, err
        # the generated topology takes the top-level seed
        instance = (gen_qft(10), gen_topology("ring", [4, 4, 4], 4))
        if command == "sweep-ratio":
            rows = harness.run_sweep_ratio(*instance, [4.0, 1.5], cost_params=SHARED_COSTS,
                                           **SHARED_SETTINGS)
            want = (render_json({"schema_version": harness.SCHEMA_VERSION, "rows": rows})
                    if "json" in extra else harness.render_sweep_csv(rows))
        else:
            runner = run_map if command == "map" else harness.run_ablate
            want = render_json(runner(*instance, cost_params=SHARED_COSTS.with_ratio(3.0),
                                      **SHARED_SETTINGS))
        assert out == want

    @pytest.mark.parametrize("argv", [
        ("map", "--bench", "qft", "--size", "6", "--gen", "line", "--sizes", "4,4",
         "--iters", "20"),
        ("ablate", "--bench", "qft", "--size", "6", "--gen", "line", "--sizes", "4,4",
         "--iters", "20"),
        ("sweep-ratio", "--bench", "qft", "--size", "6", "--gen", "line", "--sizes", "4,4",
         "--iters", "20", "--ratios", "2"),
        ("gen-bench", "--bench", "qft", "--size", "4"),
        ("gen-topology", "--gen", "line", "--sizes", "4,4"),
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("where", ["directory", "missing_parent"])
    def test_unwritable_out_is_input_error(self, argv, where, tmp_path, capsys):
        out = tmp_path if where == "directory" else tmp_path / "missing" / "report.txt"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == EXIT_INPUT
        assert stdout == ""
        assert "cannot write" in err and "Traceback" not in err


FUZZ_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[6];
creg c[6];
h q;
cx q[0],q[1];
rz(pi/4) q[2];
u3(0.1,-0.2,2*pi) q[3];
cx q[3],q[4];
barrier q;
cp(-pi/8) q[4],q[5];
measure q -> c;
"""
# Each token keeps its leading whitespace, so joining the tokens gives the text back.
_TOKEN = re.compile(r'\s*(?:->|"[^"]*"|[\w.]+|\S)')
FUZZ_STATEMENTS = [_TOKEN.findall(stmt + ";") for stmt in FUZZ_QASM.split(";")[:-1]]
FUZZ_TOKENS = ["qreg", " creg", " q", "c", "[", "]", "(", ")", ",", ";", "\n", " cx", "h ",
               "measure", "->", "barrier", "pi", "-", "/", "*", "0", "7", "999999", "1e308",
               "nan", "inf", "OPENQASM 3.0", "gate", "{", "}", "//", "ccx"]
FUZZ_TOPOLOGY = json.loads(serialize_cluster(gen_topology("ring", [3, 3, 4], seed=0)))
FUZZ_VALUES = st.one_of(
    st.sampled_from([0, 1, -1, 2, 3, 4, 10, 2 ** 31, 2 ** 63, -(2 ** 63), 10 ** 20]),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 0.5, -0.0, 5e-324]),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.integers(-1, 12), max_size=3),
    st.dictionaries(st.sampled_from(["a", "b", "cost_factor", "name", "comp_capacity",
                                     "coupling", "comm_qubits", "qpus", "links"]),
                    st.integers(-1, 4), max_size=3),
)


def _json_slots(node, path=()):
    """Every (container path, key or index) in a JSON value, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path, key
        if isinstance(child, (dict, list)):
            yield from _json_slots(child, (*path, key))


class TestCliFuzz:
    """Mutated QASM and topology inputs end in exit 0, 2 or 3, never in a
    traceback (exit 4), and each finishes quickly."""

    @settings(max_examples=300, deadline=None)
    @given(qasm_edits=st.lists(st.tuples(st.sampled_from(["drop", "copy", "splice",
                                                          "insert", "delete"]),
                                         st.integers(0, 99), st.integers(0, 99),
                                         st.integers(0, 99), st.sampled_from(FUZZ_TOKENS)),
                               max_size=4),
           topo_edits=st.lists(st.tuples(st.sampled_from(["set", "delete", "append"]),
                                         st.integers(0, 999), FUZZ_VALUES), max_size=3))
    def test_mutated_inputs_exit_cleanly(self, qasm_edits, topo_edits):
        stmts = [list(s) for s in FUZZ_STATEMENTS]
        for op, i, j, k, token in qasm_edits:
            if not stmts:
                break
            i, j = i % len(stmts), j % len(stmts)
            if op == "drop":
                del stmts[i]
            elif op == "copy":
                stmts.insert(i, list(stmts[j]))
            elif op == "splice":
                stmts[i] = stmts[i][:k % (len(stmts[i]) + 1)] + stmts[j][k % (len(stmts[j]) + 1):]
            elif op == "insert":
                stmts[i].insert(k % (len(stmts[i]) + 1), token)
            elif stmts[i]:
                del stmts[i][k % len(stmts[i])]
        topo = json.loads(json.dumps(FUZZ_TOPOLOGY))
        for op, slot, value in topo_edits:
            slots = list(_json_slots(topo))
            if not slots:
                break
            path, key = slots[slot % len(slots)]
            parent = topo
            for step in path:
                parent = parent[step]
            if op == "set":
                parent[key] = value
            elif op == "delete":
                del parent[key]
            elif isinstance(parent, list):
                parent.append(value)
            else:
                parent[f"extra{slot}"] = value
        with tempfile.TemporaryDirectory() as tmp:
            qasm, topology = os.path.join(tmp, "c.qasm"), os.path.join(tmp, "t.json")
            with open(qasm, "w") as f:
                f.write("".join(tok for s in stmts for tok in s))
            with open(topology, "w") as f:
                json.dump(topo, f)
            err = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["map", "--circuit", qasm, "--topology", topology,
                             "--iters", "20"])
            seconds = time.perf_counter() - start
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_INFEASIBLE), err.getvalue()
        assert seconds < 2.0
