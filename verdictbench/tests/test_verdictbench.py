"""Tests of the benchmark itself, at tiny scale.

Run from the repository root: ``python3 -m pytest -q verdictbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.SCALES["tiny"]


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return tmp_path_factory.mktemp("verdictbench")


def run_bench(cache: Path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny", "--cache", str(cache)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_every_metric_and_check(cache, workload, trace):
    lines = run_bench(cache, workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert list(result["metrics"]) == list(names)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == workloads.UNITS[name]
        assert isinstance(metric["value"], float)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    checks = [line for line in lines if line.startswith("check ")]
    assert checks and all(line.endswith(": ok") for line in checks)
    assert lines[-2].startswith("context: ")
    if trace:
        assert any(line.startswith(f"budget {workload}:") for line in lines)
        assert "check budget_rows: ok" in lines
        if workload == "disk_to_verdict":  # the process-executor leg
            assert result["metrics"]["worker.busy_share"]["value"] > 0
    else:
        for name in workloads.END_TO_END:
            assert result["metrics"][name]["value"] > 0, name


def test_benchmark_json_matches_the_metric_tables():
    import run

    assert run.WORKLOADS == workloads.WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(workloads.PER_LAYER)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == workloads.UNITS[metric["name"]]


def _originals():
    return {
        (module, owner, attr): tracing._resolve(module, owner).__dict__[attr]
        for module, owner, attr, _, _ in tracing.TRACED_CALLS
    }


def test_traced_run_restores_every_wrapped_function():
    before = _originals()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            for key, original in before.items():
                assert tracing._resolve(*key[:2]).__dict__[key[2]] is not original
            raise RuntimeError("leave the block early")
    assert _originals() == before


def test_traced_spans_nest_and_self_times_subtract_children():
    from repro.net.packet import Packet

    tracer = tracing.Tracer()
    packets = [Packet(bytes(range(64)))] * 8
    with tracer.installed():
        with tracer.span(tracing.TRIAL):
            keys = Packet.batch_keys(packets, (1, 2, 3))
    assert keys.shape == (8, 3)
    (trial,) = tracer.durations(tracing.TRIAL)
    (keys_span,) = tracer.durations("packet.batch_keys")
    assert list(tracer.parent) == [-1, 0]
    selfs = tracer.self_times()
    assert selfs["packet.batch_keys"] == pytest.approx(keys_span)
    assert selfs[tracing.TRIAL] + selfs["packet.batch_keys"] == pytest.approx(trial)


def test_corrupted_verdict_sample_is_counted_as_failed(tmp_path, monkeypatch):
    rules, corpus = tmp_path / "rules.json", tmp_path / "corpus"
    workloads.prepare_rules(TINY, rules)
    workloads.prepare_corpus(TINY, corpus, 5)
    bench = workloads.CorpusWorkload(TINY, rules, corpus, 5, "inline")
    replay = workloads.replay_corpus

    def corrupting(*args, **kwargs):
        report = replay(*args, **kwargs)
        verdicts = report.result.verdicts
        first = workloads.sample_indices(len(verdicts), TINY.oracle_sample, 5)[0]
        flipped = "quarantine" if verdicts[first].action != "quarantine" else "allow"
        verdicts[first] = dataclasses.replace(verdicts[first], action=flipped)
        return report

    monkeypatch.setattr(workloads, "replay_corpus", corrupting)
    bench.check_pass()
    assert bench.ledger.checks["oracle_sample"] == 1
    assert bench.ledger.failed == 1
    assert not bench.ledger.correct
