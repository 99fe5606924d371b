"""The benchmark's own tests: every workload end to end on a tiny input.

    python3 -m pytest perfbench -q

Each workload runs in ``--smoke`` mode (one set-up, 100 timed operations)
as a separate process, exactly as the benchmark command is run; its output
checks must pass and it must print exactly the metric names of
``BENCHMARK.json``.  The fleet must be gone after a normal exit and after
``SIGTERM``, and outside a checkout the benchmark must fail before measuring.
"""

import json
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(workload, trace, cwd=ROOT, seed=7):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def result_of(completed):
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_checks_outputs_and_prints_end_to_end_metrics(workload):
    result = result_of(run_benchmark(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    # The only failure any workload shows is the coordinator's dropped
    # certificate flag: one cold probe per fleet round.
    expected_failed = result["attempted"] // 10 if workload == "fleet-mixed" else 0
    assert result["failed"] == expected_failed
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_per_layer_metrics_and_a_timeline(workload):
    completed = run_benchmark(workload, trace=1)
    result = result_of(completed)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    timeline = ROOT / ".perfbench" / f"{workload}-seed7.perfetto.json"
    events = json.loads(timeline.read_text())["traceEvents"]
    assert any(event["ph"] == "X" for event in events)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if workload == "fleet-mixed":
        assert metrics["backend.http_ms.p50"] > 0
        assert metrics["keyspace.service_ms.p50"] > 0
        assert metrics["coordinator.forward_ms.p50"] > 0
        assert metrics["engine.configs_explored"] > 0
        assert metrics["certify.build_ms.p50"] > 0
    else:
        assert metrics["certify.validate_ms.p50"] > 0
        assert metrics["simulate.calls"] > 0


def _ports_refuse(ports):
    for port in ports:
        with socket.socket() as probe:
            probe.settimeout(1.0)
            if probe.connect_ex(("127.0.0.1", port)) == 0:
                return False
    return True


def test_sigterm_stops_the_whole_fleet():
    before = set((ROOT / ".perfbench").glob("fleet-*"))
    process = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-mixed", "--seed", "3",
         "--seconds", "30", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    ports = []
    deadline = time.monotonic() + 120
    while len(ports) < 4 and time.monotonic() < deadline:
        workdirs = set((ROOT / ".perfbench").glob("fleet-*")) - before
        port_files = [f for d in workdirs for f in d.glob("*.port")]
        ports = [int(f.read_text()) for f in port_files if f.read_text().strip()]
        time.sleep(0.1)
    assert len(ports) == 4, "the fleet did not come up"
    process.send_signal(signal.SIGTERM)
    stdout, _ = process.communicate(timeout=120)
    assert process.returncode != 0
    assert not stdout.strip(), "an interrupted run printed a result"
    assert _ports_refuse(ports)


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    completed = run_benchmark(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_only_the_cold_probe_is_the_known_certificate_fault():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench
    import checks
    import inputs

    probe = inputs.probe_job(0)
    answer = {"fingerprint": probe.fingerprint, "served_from": "store",
              "result": {"nonempty": True, "exhausted": True, "has_certificate": False}}
    cold = bench.Record(inputs.Op("cold-probe", probe), 0.1, answer)
    warm = bench.Record(inputs.Op("warm", probe, cold=False), 0.1, answer)
    bench._check_fleet([cold, warm], checks.VerdictChecker())
    assert cold.failure == bench.KNOWN_FAULT
    assert warm.failure is not None and warm.failure != bench.KNOWN_FAULT
