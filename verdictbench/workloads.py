"""The four workloads, their correctness checks and their metrics.

Every workload runs in a fresh process (see ``run.py``) and reaches the
program only through its public calls.  ``run(seconds)`` returns the
end-to-end metrics and ``run_traced(tracer)`` a :class:`TracedRun` whose
``metrics()`` are the per-layer ones; either way the workload's
:class:`Ledger` counts operations attempted and failed, per check.
Units live in :data:`UNITS`.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.core import DetectorConfig, RuleSet, TwoStageDetector, load_ruleset, save_ruleset
from repro.core.rules import ACTION_DROP, MatchField, Rule
from repro.core.serialize import ruleset_to_dict
from repro.corpus import CorpusSource, CorpusSpec, build_corpus, load_manifest, replay_corpus
from repro.dataplane.controller import GatewayController
from repro.dataplane.switch import Switch
from repro.datasets import FeatureExtractor, TraceConfig, make_dataset
from repro.serve import ServeConfig, ShardSet, StreamingGateway, retime

import tracer as tracing

WORKLOADS = ("disk_to_verdict", "wide_table_churn", "detector_fit")

UNITS: Dict[str, str] = {
    # end to end
    "verdict_pps": "pkts/s",
    "batch_ms_p50": "ms",
    "batch_ms_p99": "ms",
    "swap_ms_p50": "ms",
    "fit_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rule_accuracy": "ratio",
    "rule_entries": "count",
    # per layer
    "corpus.alone_pps": "pkts/s",
    "corpus.verify_share": "ratio",
    "corpus.share": "ratio",
    "batcher.batches": "count",
    "batcher.mean_batch": "pkts",
    "batcher.deadline_share": "ratio",
    "packet.keys_s": "s",
    "packet.keys_ns_per_pkt": "ns",
    "dataplane.classify_s": "s",
    "dataplane.classify_ns_per_pkt": "ns",
    "dataplane.classify_share": "ratio",
    "dataplane.entries": "count",
    "switch.verdicts_s": "s",
    "switch.verdicts_share": "ratio",
    "shard.account_s": "s",
    "shard.install_ms_p50": "ms",
    "shard.swaps": "count",
    "dataplane.compile_ms_p50": "ms",
    "gateway.self_s": "s",
    "gateway.self_share": "ratio",
    "flight.self_s": "s",
    "flight.records": "count",
    "alerts.self_s": "s",
    "ipc.submit_s": "s",
    "ipc.reap_s": "s",
    "ipc.ring_full_wait_s": "s",
    "worker.busy_share": "ratio",
    "datasets.features_s": "s",
    "stage1.fit_s": "s",
    "stage2.fit_s": "s",
    "distill.fit_s": "s",
    "trace.overhead": "ratio",
    "trace.other_share": "ratio",
}
END_TO_END = tuple(list(UNITS)[:9])
PER_LAYER = tuple(list(UNITS)[9:])

#: tools/bench.py's FULL_TRACE: the one labelled trace every rule set is
#: learned from.  Rule sets learned from other trace seeds range from
#: ~350 to ~1750 entries, which would swamp every serving number.
CANONICAL_TRACE = dict(stack="inet", duration=300.0, n_devices=8, chatter=True, seed=7)
#: tools/bench.py's QUICK_TRACE.
QUICK_TRACE = dict(stack="inet", duration=20.0, n_devices=2, chatter=True, seed=7)


@dataclasses.dataclass(frozen=True)
class Scale:
    """Every size knob; ``full`` is the benchmark, ``tiny`` the smoke test."""

    trace: Dict[str, object]
    detector: Dict[str, object]
    #: the small fit that gives serving workloads their ``fit_s``
    sentinel_trace: Dict[str, object]
    sentinel_detector: Dict[str, object]
    sentinel_fits: int
    corpus_packets: int
    corpus_chunk: int
    trial_seconds: float
    min_trials: int
    setup_repeats: int
    swaps_per_setup: int
    oracle_sample: int
    churn_period: int
    feature_repeats: int
    eval_passes: int
    trace_pairs: int


SCALES = {
    "full": Scale(
        trace=CANONICAL_TRACE,
        detector=dict(seed=3),
        sentinel_trace=QUICK_TRACE,
        sentinel_detector=dict(n_fields=6, selector_epochs=5, epochs=10, seed=3),
        sentinel_fits=5,
        corpus_packets=100_000,
        corpus_chunk=25_000,
        trial_seconds=2.0,
        min_trials=3,
        setup_repeats=3,
        swaps_per_setup=5,
        oracle_sample=2000,
        churn_period=8192,
        feature_repeats=4,
        eval_passes=5,
        trace_pairs=2,
    ),
    "tiny": Scale(
        trace=QUICK_TRACE,
        detector=dict(seed=3, selector_epochs=2, epochs=2),
        sentinel_trace=QUICK_TRACE,
        sentinel_detector=dict(seed=3, selector_epochs=1, epochs=1),
        sentinel_fits=1,
        corpus_packets=6_000,
        corpus_chunk=2_000,
        trial_seconds=0.05,
        min_trials=2,
        setup_repeats=2,
        swaps_per_setup=1,
        oracle_sample=200,
        churn_period=1024,
        feature_repeats=2,
        eval_passes=2,
        trace_pairs=1,
    ),
}

#: ``repro corpus replay``'s shipped config: 1 shard, batch 1024, 5 ms
#: deadline, 4096-entry table, verdicts not recorded, no compiled override.
SERVE = dict(n_shards=1, max_batch=1024, max_latency=0.005, table_capacity=4096)
#: Offered load for the churn stream: far above 1024 / 5 ms, so every
#: batch flushes full.
CHURN_RATE = 1_000_000.0
CHURN_FILL = 0.8     # table occupancy, learned rules plus filler
CHURN_GROUPS = 4     # each swap replaces 1 / CHURN_GROUPS of the filler
EVAL_BATCH = 1024


# -- shared helpers ----------------------------------------------------------


def settle() -> None:
    """Collect, then freeze what survives, so no full collection of the
    benchmark's own held inputs lands inside the next timed block."""
    gc.collect()
    gc.freeze()


def peak_rss_mb() -> float:
    """Peak resident MB of this process (``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_ms(samples: Sequence[float], q: float) -> float:
    return 1e3 * float(np.percentile(np.asarray(samples), q))


def serve_config(executor: str = "inline", record: bool = False) -> ServeConfig:
    return ServeConfig(executor=executor, record_verdicts=record, **SERVE)


def canonical_dataset(scale: Scale):
    return make_dataset("canonical", TraceConfig(**scale.trace), cache=False)


def learn_rules(scale: Scale, dataset, detector: Optional[Dict] = None) -> RuleSet:
    model = TwoStageDetector(DetectorConfig(**(detector or scale.detector)))
    model.fit(dataset.x_train, dataset.y_train_binary)
    return model.generate_rules()


def prepare_rules(scale: Scale, path: Path) -> None:
    """Learn the canonical rule set once and cache it as rule-set JSON."""
    rules = learn_rules(scale, canonical_dataset(scale))
    tmp = path.with_suffix(".tmp")
    save_ruleset(rules, tmp)
    tmp.replace(path)


def prepare_corpus(scale: Scale, root: Path, seed: int) -> None:
    """The seed's multi-chunk inet corpus in the ``CorpusSpec`` default mix."""
    spec = CorpusSpec(
        n_packets=scale.corpus_packets, chunk_packets=scale.corpus_chunk, seed=seed
    )
    build_corpus(spec, root, force=True)


def entries(rules: RuleSet) -> int:
    return int(rules.resource_report()["ternary_entries"])


def sample_indices(n: int, k: int, seed: int) -> List[int]:
    rng = np.random.default_rng(seed)
    return sorted(int(i) for i in rng.choice(n, size=min(k, n), replace=False))


def oracle_switch(rules: RuleSet) -> GatewayController:
    controller = GatewayController.for_ruleset(rules, table_capacity=SERVE["table_capacity"])
    controller.deploy(rules)
    return controller


def oracle_mismatches(pairs, switch: Switch) -> int:
    """Verdicts that differ from the scalar ``Switch.process`` oracle."""
    return sum(switch.process(packet) != verdict for packet, verdict in pairs)


def timed_loop(seconds: float, minimum: int) -> Callable[[float], bool]:
    """``more(last)``: keep going until ``minimum`` rounds are done and one
    more round of the last round's length would overrun ``seconds``."""
    start = time.perf_counter()
    state = {"rounds": 0}

    def more(last: float) -> bool:
        if state["rounds"] < minimum:
            state["rounds"] += 1
            return True
        if time.perf_counter() - start + last > seconds:
            return False
        state["rounds"] += 1
        return True

    return more


class Ledger:
    """Operations attempted and failed, plus failures per named check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, int] = {}

    def check(self, name: str, failures: int = 0) -> None:
        self.checks[name] = self.checks.get(name, 0) + int(failures)

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not any(self.checks.values())


def registry_value(registry, name: str, field: str = "value") -> float:
    """Sum of ``field`` over every series called ``name`` in a snapshot."""
    return float(
        sum(m.get(field, 0.0) for m in registry.snapshot()["metrics"] if m["name"] == name)
    )


class Sentinel:
    """``fit_s`` and ``rule_accuracy`` cells of a serving workload.

    BENCHMARK.json asks every workload for every end-to-end metric.  A
    serving workload learns nothing, so its ``fit_s`` is the median of
    small fits at tools/bench.py's ``--quick`` detector config, a few
    taken between every pair of trials so the median spans the run;
    its ``rule_accuracy`` is that of the rule set it serves, on the
    canonical held-out split.  The fit headline is ``detector_fit``.
    """

    def __init__(self, scale: Scale):
        self.scale = scale
        self.dataset = make_dataset("quick", TraceConfig(**scale.sentinel_trace), cache=False)
        self.times: List[float] = []

    def sample(self) -> None:
        for _ in range(self.scale.sentinel_fits):
            settle()
            start = time.perf_counter()
            learn_rules(self.scale, self.dataset, self.scale.sentinel_detector)
            self.times.append(time.perf_counter() - start)

    def metrics(self, rules: RuleSet) -> Dict[str, float]:
        """Call after the peak-RSS reading: it loads the canonical split."""
        dataset = canonical_dataset(self.scale)
        accuracy = float((rules.predict(dataset.x_test_bytes) == dataset.y_test_binary).mean())
        return {"fit_s": statistics.median(self.times), "rule_accuracy": accuracy}


# -- disk_to_verdict -----------------------------------------------------------


class CorpusWorkload:
    """Corpus on disk -> ``replay_corpus`` -> verdicts, one executor."""

    def __init__(self, scale: Scale, rules_path: Path, corpus: Path, seed: int, executor: str = "inline"):
        self.scale = scale
        self.rules_path = rules_path
        self.corpus = corpus
        self.seed = seed
        self.executor = executor
        self.rules = load_ruleset(rules_path)
        self.manifest = load_manifest(corpus)
        self.ledger = Ledger()

    def replay(self, record: bool = False):
        """One full replay under a fresh enabled registry."""
        registry = obs.Registry(enabled=True)
        with obs.use_registry(registry):
            report = replay_corpus(self.corpus, self.rules, serve_config(self.executor, record))
        return report, registry

    def setup_and_swaps(self, setups: List[float], swaps: List[float]) -> None:
        """One set-up sample, then a few swap samples on what it built.

        Set-up: load the rule-set JSON and the corpus manifest and build
        the gateway, under an enabled registry as in a replay.  A swap is
        a no-churn ``ShardSet.install`` of the same rules, the path
        ``replay_corpus``'s default swap takes.  Samples are taken between
        trials, so their medians span the run.
        """
        settle()
        with obs.use_registry(obs.Registry(enabled=True)):
            start = time.perf_counter()
            rules = load_ruleset(self.rules_path)
            load_manifest(self.corpus)
            gateway = StreamingGateway(rules, serve_config(self.executor))
            setups.append(time.perf_counter() - start)
            for _ in range(self.scale.swaps_per_setup):
                gateway.shards.install(rules)
        swaps.extend(gateway.shards.swap_seconds)

    def check_pass(self):
        """One replay recording verdicts; a seeded sample meets the oracle."""
        report, _ = self.replay(record=True)
        result = report.result
        index = sample_indices(result.offered, self.scale.oracle_sample, self.seed)
        wanted = set(index)
        pairs = [
            (packet, result.verdicts[i])
            for i, packet in enumerate(CorpusSource(self.corpus, verify=False))
            if i in wanted
        ]
        mismatches = oracle_mismatches(pairs, oracle_switch(self.rules).switch)
        self.ledger.check("oracle_sample", mismatches)
        self.reference = result
        self.ledger.ops(result.offered, mismatches + self.check_replay(report))

    def check_replay(self, report) -> int:
        """Failed packets of one replay against the check pass."""
        result, ref = report.result, self.reference
        bad = {
            "ledger": result.offered != result.processed + result.shed,
            "stats": result.stats != ref.stats,
            "latency_identical": (result.latency_p50, result.latency_p99)
            != (ref.latency_p50, ref.latency_p99),
            "digests": report.chunks_verified != len(self.manifest.chunks),
        }
        for name, failed in bad.items():
            self.ledger.check(name, int(failed))
        self.ledger.check("shed", result.shed)
        return result.offered if any(bad.values()) else result.shed

    def trial(self, replays: int, outcomes: List, registries: List) -> float:
        """``replays`` full replays; returns their summed gateway wall time."""
        wall = 0.0
        for _ in range(replays):
            try:
                report, registry = self.replay()
            except Exception as exc:  # a trial that raises fails all its packets
                self.ledger.check("raised", 1)
                self.ledger.ops(self.manifest.packets, self.manifest.packets)
                print(f"verdictbench: replay raised {exc!r}", file=sys.stderr)
                continue
            self.ledger.ops(report.result.offered, self.check_replay(report))
            outcomes.append(report.result)
            registries.append(registry)
            wall += report.result.wall_seconds
        return wall

    def calibrate(self) -> int:
        """Warm-up replay (discarded); trials are sized by wall time."""
        report, _ = self.replay()
        return max(1, round(self.scale.trial_seconds / report.result.wall_seconds))

    def run(self, seconds: float) -> Dict[str, float]:
        replays = self.calibrate()
        self.check_pass()
        rates, outcomes, setups, swaps = [], [], [], []
        clock = tracing.Tracer()
        sentinel = Sentinel(self.scale)
        more = timed_loop(seconds, self.scale.min_trials)
        last = 0.0
        while more(last):
            sentinel.sample()
            for _ in range(self.scale.setup_repeats):
                self.setup_and_swaps(setups, swaps)
            with clock.installed(tracing.BATCH_CALLS):
                settle()
                start = time.perf_counter()
                before = len(outcomes)
                wall = self.trial(replays, outcomes, [])
                last = time.perf_counter() - start
            done = outcomes[before:]
            if done:
                rates.append(sum(r.processed for r in done) / wall)
        batches = clock.durations(tracing.BATCH)
        metrics = {
            "verdict_pps": statistics.median(rates),
            "batch_ms_p50": percentile_ms(batches, 50),
            "batch_ms_p99": percentile_ms(batches, 99),
            "swap_ms_p50": 1e3 * statistics.median(swaps),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
            "rule_entries": entries(self.rules),
        }
        metrics.update(sentinel.metrics(self.rules))
        self.notes = {
            "trial_pps": rates, "replays_per_trial": replays,
            "batches": len(batches), "setups": len(setups), "swaps": len(swaps),
        }
        return metrics

    def drain_seconds_per_packet(self, verify: bool) -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            n = sum(1 for _ in CorpusSource(self.corpus, verify=verify))
            times.append((time.perf_counter() - start) / n)
        return statistics.median(times)

    def run_traced(self, tracer: tracing.Tracer):
        verify_s = self.drain_seconds_per_packet(True)
        plain_s = self.drain_seconds_per_packet(False)
        replays = self.calibrate()
        self.check_pass()
        untraced, traced, outcomes, registries = [], [], [], []
        for _ in range(self.scale.trace_pairs):
            settle()
            start = time.perf_counter()
            self.trial(replays, [], [])
            untraced.append(time.perf_counter() - start)
            settle()
            with tracer.installed():
                start = time.perf_counter()
                with tracer.span(tracing.TRIAL):
                    self.trial(replays, outcomes, registries)
                traced.append(time.perf_counter() - start)
        packets = sum(r.offered for r in outcomes)
        layers = {
            "corpus.alone_pps": 1.0 / verify_s,
            "corpus.verify_share": (verify_s - plain_s) / verify_s,
            "dataplane.entries": entries(self.rules),
        }
        layers.update(self.process_leg())
        return TracedRun(tracer, traced, untraced, outcomes, packets, packets * verify_s, layers)

    def process_leg(self) -> Dict[str, float]:
        """``serve.ipc`` and ``serve.workers``, on one worker process.

        The process executor is not a workload of its own: its timing
        cells were not steady on a 2-vCPU host (see README.md).  One
        traced trial of this corpus on ``executor="process"``, checked
        like any other, keeps those layers measured.  Its spans go to a
        tracer of their own, outside this workload's budget table.
        """
        leg = CorpusWorkload(self.scale, self.rules_path, self.corpus, self.seed, "process")
        leg.ledger = self.ledger
        replays = leg.calibrate()
        leg.check_pass()
        tracer, outcomes, registries = tracing.Tracer(), [], []
        settle()
        with tracer.installed():
            start = time.perf_counter()
            with tracer.span(tracing.TRIAL):
                leg.trial(replays, outcomes, registries)
            wall = time.perf_counter() - start
        selfs = tracer.self_times()
        return {
            "ipc.submit_s": selfs.get("ipc.submit", 0.0),
            "ipc.reap_s": selfs.get("ipc.poll", 0.0) + selfs.get("ipc.wait", 0.0),
            "ipc.ring_full_wait_s": sum(
                registry_value(r, "parallel_ring_full_wait_seconds") for r in registries
            ),
            "worker.busy_share": sum(
                registry_value(r, "worker_batch_seconds", "sum") for r in registries
            ) / wall,
        }


# -- wide_table_churn ----------------------------------------------------------


def churn_versions(learned: RuleSet, seed: int, capacity: int, count: int) -> List[RuleSet]:
    """Rule-set versions cycled by the churn swaps.

    The learned rules plus exact-match filler fill ``CHURN_FILL`` of
    the table.  Filler slots fall into ``CHURN_GROUPS`` groups, each
    with an A and a B variant; swap ``s`` flips group ``(s - 1) %
    CHURN_GROUPS``, so every swap replaces the same share of the filler
    and the offsets never change (installs take the update path).  The
    cycle has ``2 * CHURN_GROUPS`` versions; the first ``count`` are built.
    """
    rng = np.random.default_rng(seed)
    n_filler = int(CHURN_FILL * capacity) - entries(learned)
    width = len(learned.offsets)
    floor = min(rule.priority for rule in learned.rules) - 1
    values = rng.integers(0, 256, size=(2, n_filler, width))
    pools = [
        [
            Rule(
                tuple(MatchField(o, int(v), int(v)) for o, v in zip(learned.offsets, row)),
                ACTION_DROP,
                priority=floor - slot,
            )
            for slot, row in enumerate(values[variant])
        ]
        for variant in range(2)
    ]
    group = np.arange(n_filler) * CHURN_GROUPS // n_filler
    versions = []
    for version in range(min(count, 2 * CHURN_GROUPS)):
        flips = [(version - g + CHURN_GROUPS - 1) // CHURN_GROUPS for g in range(CHURN_GROUPS)]
        filler = [pools[flips[group[slot]] % 2][slot] for slot in range(n_filler)]
        versions.append(
            RuleSet(learned.offsets, list(learned.rules) + filler, default_action=learned.default_action)
        )
    return versions


class CadenceSwaps:
    """Retrain hook installing the next version at fixed stream intervals.

    Cadence point ``j`` sits at ``start + j * interval``; callers put
    ``start`` half an interval before the first packet, so a stream of
    ``n`` periods crosses exactly ``n`` points whatever its arrival noise.  After each
    serviced batch the hook swaps once if the batch's last packet has
    reached the next point; a batch that crosses several points counts
    the extra ones as ``skipped``.  With an oracle it also checks the
    sampled arrival indices against the scalar path, and mirrors every
    install onto the oracle so entry ids stay comparable.
    """

    def __init__(self, versions, start: float, interval: float, oracle=None, sample=()):
        self.versions = versions
        self.start = start
        self.interval = interval
        self.point = 1
        self.swaps = 0
        self.skipped = 0
        self.seen = 0
        self.oracle = oracle
        self.sample = set(sample)
        self.mismatches = 0

    def __call__(self, packets, verdicts):
        if self.oracle is not None:
            pairs = [
                (packet, verdict)
                for offset, (packet, verdict) in enumerate(zip(packets, verdicts))
                if self.seen + offset in self.sample
            ]
            self.mismatches += oracle_mismatches(pairs, self.oracle.switch)
        self.seen += len(packets)
        now = packets[-1].timestamp
        if now < self.start + self.point * self.interval:
            return None
        crossed = expected_swaps(self.start, self.interval, now) - self.point + 1
        self.skipped += crossed - 1
        self.point += crossed
        self.swaps += 1
        rules = self.versions[self.swaps % (2 * CHURN_GROUPS)]
        if self.oracle is not None:
            self.oracle.update(rules)
        return rules


def expected_swaps(start: float, interval: float, last: float) -> int:
    """Cadence points in ``(start, last]``, by the hook's own arithmetic."""
    j = int((last - start) // interval)
    while start + (j + 1) * interval <= last:
        j += 1
    while j > 0 and start + j * interval > last:
        j -= 1
    return j


class ChurnWorkload:
    """Pre-stamped packets from memory against a churning wide table."""

    def __init__(self, scale: Scale, rules_path: Path, corpus: Path, seed: int):
        self.scale = scale
        self.rules_path = rules_path
        self.seed = seed
        self.base = list(CorpusSource(corpus, verify=False))
        self.learned = load_ruleset(rules_path)
        # enough versions for the warm-up; prepare() builds the rest
        self.versions = churn_versions(self.learned, seed, SERVE["table_capacity"], 5)
        self.filler = self.versions[0].rules[len(self.learned.rules):]
        self.interval = scale.churn_period / CHURN_RATE
        self.ledger = Ledger()
        self.setups: List[float] = []

    def phase(self, packets) -> float:
        """Cadence origin: half an interval before the first packet."""
        return packets[0].timestamp - self.interval / 2

    def stamped(self, n: int):
        cycled = itertools.islice(itertools.cycle(self.base), n)
        return list(retime(cycled, rate=CHURN_RATE, seed=self.seed))

    def gateway(self, packets, record=False, oracle=None, sample=()):
        """Set-up, timed: load the rule-set JSON, assemble version 0 and
        build the gateway with a flight recorder and the default serve
        alerts.  Returns (gateway, hook, registry)."""
        registry = obs.Registry(enabled=True)
        with obs.use_registry(registry):
            start = time.perf_counter()
            learned = load_ruleset(self.rules_path)
            rules = RuleSet(
                learned.offsets, list(learned.rules) + self.filler,
                default_action=learned.default_action,
            )
            recorder = obs.FlightRecorder(65536, sample_rate=0.01, seed=self.seed)
            engine = obs.AlertEngine(
                obs.default_serve_alerts(batcher_wait_p99=SERVE["max_latency"]),
                registry=registry,
                recorder=recorder,
            )
            hook = CadenceSwaps(self.versions, self.phase(packets), self.interval, oracle, sample)
            gateway = StreamingGateway(
                rules, serve_config("inline", record),
                retrain_hook=hook, recorder=recorder, alert_engine=engine,
            )
            self.setups.append(time.perf_counter() - start)
        return gateway, hook, registry

    def play(self, packets, record=False, oracle=None, sample=()):
        gateway, hook, registry = self.gateway(packets, record, oracle, sample)
        settle()
        with obs.use_registry(registry):
            result = gateway.run(packets)
        return result, hook, gateway, registry

    def check_trial(self, result, hook, expected: int) -> int:
        ref = self.reference
        bad = {
            "ledger": result.offered != result.processed + result.shed,
            "stats": result.stats != ref.stats,
            "latency_identical": (result.latency_p50, result.latency_p99)
            != (ref.latency_p50, ref.latency_p99),
        }
        for name, failed in bad.items():
            self.ledger.check(name, int(failed))
        self.ledger.check("shed", result.shed)
        wrong = abs(result.rule_swaps - expected) + hook.skipped
        self.ledger.check("swap_cadence", wrong)
        self.ledger.ops(expected, wrong)
        return result.offered if any(bad.values()) else result.shed

    def prepare(self) -> None:
        """Warm-up (discarded) sizes the trial; then the check pass."""
        period = self.scale.churn_period
        warm = self.stamped(4 * period)
        result, _, _, _ = self.play(warm)
        periods = max(2, round(self.scale.trial_seconds * result.pkts_per_sec / period))
        self.packets = self.stamped(periods * period)
        self.expected = expected_swaps(
            self.phase(self.packets), self.interval, self.packets[-1].timestamp
        )
        self.versions = churn_versions(
            self.learned, self.seed, SERVE["table_capacity"], self.expected + 1
        )
        # the scalar oracle scans every entry, ~1.3 ms a packet at 3.3k entries
        index = sample_indices(len(self.packets), self.scale.oracle_sample // 4, self.seed)
        oracle = oracle_switch(self.versions[0])
        result, hook, _, _ = self.play(self.packets, True, oracle, index)
        self.reference = result
        self.ledger.check("oracle_sample", hook.mismatches)
        self.ledger.ops(result.offered, hook.mismatches + self.check_trial(result, hook, self.expected))

    def trial(self, outcomes: List, swaps: List[float]) -> Optional[float]:
        try:
            result, hook, gateway, _ = self.play(self.packets)
        except Exception as exc:  # fails all packets and swaps of the trial
            self.ledger.check("raised", 1)
            self.ledger.ops(len(self.packets) + self.expected, len(self.packets) + self.expected)
            print(f"verdictbench: churn trial raised {exc!r}", file=sys.stderr)
            return None
        self.ledger.ops(result.offered, self.check_trial(result, hook, self.expected))
        outcomes.append(result)
        swaps.extend(gateway.shards.swap_seconds)
        return result.wall_seconds

    def run(self, seconds: float) -> Dict[str, float]:
        self.prepare()
        rates, outcomes, swaps = [], [], []
        sentinel = Sentinel(self.scale)
        more = timed_loop(seconds, self.scale.min_trials)
        last = 0.0
        clock = tracing.Tracer()
        with clock.installed(tracing.BATCH_CALLS):
            while more(last):
                sentinel.sample()
                start = time.perf_counter()
                wall = self.trial(outcomes, swaps)
                last = time.perf_counter() - start
                if wall:
                    rates.append(outcomes[-1].processed / wall)
        batches = clock.durations(tracing.BATCH)
        metrics = {
            "verdict_pps": statistics.median(rates),
            "batch_ms_p50": percentile_ms(batches, 50),
            "batch_ms_p99": percentile_ms(batches, 99),
            "swap_ms_p50": 1e3 * statistics.median(swaps),
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": peak_rss_mb(),
            "rule_entries": entries(self.versions[0]),
        }
        metrics.update(sentinel.metrics(self.versions[0]))
        self.notes = {
            "trial_pps": rates, "packets_per_trial": len(self.packets),
            "swaps": len(swaps), "batches": len(batches),
        }
        return metrics

    def run_traced(self, tracer: tracing.Tracer):
        self.prepare()
        untraced, traced, outcomes, records = [], [], [], 0
        for _ in range(self.scale.trace_pairs):
            gateway, _, registry = self.gateway(self.packets)
            settle()
            start = time.perf_counter()
            with obs.use_registry(registry):
                gateway.run(self.packets)
            untraced.append(time.perf_counter() - start)
            gateway, hook, registry = self.gateway(self.packets)
            settle()
            with tracer.installed(), obs.use_registry(registry):
                start = time.perf_counter()
                with tracer.span(tracing.TRIAL):
                    result = gateway.run(self.packets)
                traced.append(time.perf_counter() - start)
            self.ledger.ops(result.offered, self.check_trial(result, hook, self.expected))
            outcomes.append(result)
            records += gateway.recorder.recorded
        layers = {"dataplane.entries": entries(self.versions[0]), "flight.records": records}
        packets = sum(r.offered for r in outcomes)
        return TracedRun(tracer, traced, untraced, outcomes, packets, 0.0, layers)


# -- detector_fit ---------------------------------------------------------------


class FitWorkload:
    """Canonical trace -> features -> fit -> generate_rules -> evaluation."""

    def __init__(self, scale: Scale):
        self.scale = scale
        self.dataset = canonical_dataset(scale)
        self.packets = self.dataset.train_packets + self.dataset.test_packets
        self.ledger = Ledger()
        self.reference: Optional[Dict] = None

    def features(self) -> float:
        """Set-up: ``FeatureExtractor`` over the labelled trace."""
        settle()
        start = time.perf_counter()
        FeatureExtractor(n_bytes=64).transform(self.packets)
        return time.perf_counter() - start

    def fit(self) -> RuleSet:
        rules = learn_rules(self.scale, self.dataset)
        learned = ruleset_to_dict(rules)
        if self.reference is None:
            self.reference = learned
        failed = int(learned != self.reference)
        self.ledger.check("identical_rules", failed)
        self.ledger.ops(1, failed)
        return rules

    def evaluate(self, rules: RuleSet) -> List[float]:
        """Held-out split classified by ``RuleSet.predict`` in batches."""
        x = self.dataset.x_test_bytes
        samples = []
        for start in range(0, len(x), EVAL_BATCH):
            t0 = time.perf_counter()
            rules.predict(x[start:start + EVAL_BATCH])
            samples.append(time.perf_counter() - t0)
        return samples

    def run(self, seconds: float) -> Dict[str, float]:
        rules = self.fit()  # warm-up, and the reference the others must match
        shards = ShardSet(rules, table_capacity=SERVE["table_capacity"])
        setups, fits, passes, batches = [], [], [], []
        more = timed_loop(seconds, self.scale.min_trials)
        last = 0.0
        while more(last):
            # set-up, evaluation and swap samples ride along with every fit
            setups.extend(self.features() for _ in range(self.scale.feature_repeats))
            for _ in range(self.scale.eval_passes):
                samples = self.evaluate(rules)
                passes.append(len(self.dataset.x_test_bytes) / sum(samples))
                batches.extend(samples)
            for _ in range(self.scale.setup_repeats * self.scale.swaps_per_setup):
                shards.install(rules)
            settle()
            start = time.perf_counter()
            rules = self.fit()
            last = time.perf_counter() - start
            fits.append(last)
        x, y = self.dataset.x_test_bytes, self.dataset.y_test_binary
        self.notes = {"fit_s": fits, "eval_batches": len(batches)}
        return {
            "verdict_pps": statistics.median(passes),
            "batch_ms_p50": percentile_ms(batches, 50),
            "batch_ms_p99": percentile_ms(batches, 99),
            "swap_ms_p50": 1e3 * statistics.median(shards.swap_seconds),
            "fit_s": statistics.median(fits),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
            "rule_accuracy": float((rules.predict(x) == y).mean()),
            "rule_entries": entries(rules),
        }

    def pipeline(self) -> None:
        """One traced unit: features, fit, rules, evaluation."""
        FeatureExtractor(n_bytes=64).transform(self.packets)
        self.evaluate(self.fit())

    def run_traced(self, tracer: tracing.Tracer):
        self.fit()
        untraced, traced = [], []
        for _ in range(self.scale.trace_pairs):
            settle()
            start = time.perf_counter()
            self.pipeline()
            untraced.append(time.perf_counter() - start)
            settle()
            with tracer.installed():
                start = time.perf_counter()
                with tracer.span(tracing.TRIAL):
                    self.pipeline()
                traced.append(time.perf_counter() - start)
        return TracedRun(tracer, traced, untraced, [], 0, 0.0, {})


# -- the traced run's layer metrics ----------------------------------------------


@dataclasses.dataclass
class TracedRun:
    tracer: tracing.Tracer
    traced: List[float]
    untraced: List[float]
    outcomes: List
    packets: int
    ingest_seconds: float
    layers: Dict[str, float]

    @property
    def wall(self) -> float:
        """Traced wall seconds, timed outside the trial spans."""
        return sum(self.traced)

    @property
    def rows(self) -> Dict[str, float]:
        """Budget table: self seconds per layer."""
        return tracing.budget(self.tracer.self_times(), self.ingest_seconds)

    def metrics(self) -> Dict[str, float]:
        tracer = self.tracer
        wall, rows = self.wall, self.rows
        selfs = tracer.self_times()
        per_pkt = 1e9 / self.packets if self.packets else 0.0
        batches = sum(r.batches for r in self.outcomes)
        deadline = sum(r.flush_reasons.get("deadline", 0) for r in self.outcomes)
        installs = tracer.durations("shard.install")
        compiles = tracer.durations("dataplane.compile")
        out = {name: 0.0 for name in PER_LAYER}
        out.update({
            "corpus.share": rows["corpus"] / wall,
            "batcher.batches": float(batches),
            "batcher.mean_batch": sum(r.processed for r in self.outcomes) / batches if batches else 0.0,
            "batcher.deadline_share": deadline / batches if batches else 0.0,
            "packet.keys_s": selfs.get("packet.batch_keys", 0.0),
            "packet.keys_ns_per_pkt": selfs.get("packet.batch_keys", 0.0) * per_pkt,
            "dataplane.classify_s": selfs.get("dataplane.classify_arrays", 0.0),
            "dataplane.classify_ns_per_pkt": selfs.get("dataplane.classify_arrays", 0.0) * per_pkt,
            "dataplane.classify_share": selfs.get("dataplane.classify_arrays", 0.0) / wall,
            "switch.verdicts_s": selfs.get("switch.process_batch", 0.0),
            "switch.verdicts_share": selfs.get("switch.process_batch", 0.0) / wall,
            "shard.account_s": selfs.get("shard.count_verdicts", 0.0),
            "shard.install_ms_p50": 1e3 * statistics.median(installs) if installs else 0.0,
            "shard.swaps": float(len(installs)),
            "dataplane.compile_ms_p50": 1e3 * statistics.median(compiles) if compiles else 0.0,
            "gateway.self_s": rows["gateway"],
            "gateway.self_share": rows["gateway"] / wall,
            "flight.self_s": rows["flight"],
            "alerts.self_s": rows["alerts"],
            "datasets.features_s": rows["datasets"],
            "stage1.fit_s": rows["stage1"],
            "stage2.fit_s": rows["stage2"],
            "distill.fit_s": rows["distill"],
            "trace.overhead": wall / sum(self.untraced) - 1.0,
            "trace.other_share": rows["other"] / wall,
        })
        out.update(self.layers)
        return out


def build(workload: str, scale: Scale, rules_path: Path, corpus: Optional[Path], seed: int):
    if workload == "disk_to_verdict":
        return CorpusWorkload(scale, rules_path, corpus, seed)
    if workload == "wide_table_churn":
        return ChurnWorkload(scale, rules_path, corpus, seed)
    if workload == "detector_fit":
        return FitWorkload(scale)
    raise ValueError(f"unknown workload {workload!r}")


def needs_corpus(workload: str) -> bool:
    return workload != "detector_fit"
