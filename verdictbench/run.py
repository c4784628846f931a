#!/usr/bin/env python3
"""verdictbench: the repository's disk -> verdict benchmark.

Usage (from the repository root)::

    python3 verdictbench/run.py --workload disk_to_verdict --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` the layer
budget table and every per-layer metric.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (``{name: {"value": v, "unit": u}}``).  The line before it
is the run context (``context: {...}``).

The command builds what it needs from source in the checkout: the
canonical rule set (learned once per source digest, cached under
``.verdictbench/``) and
the seed's corpus (built per run, deleted afterwards).  The workload
itself runs in a fresh child process, so its peak RSS is its own.
See ``verdictbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("disk_to_verdict", "wide_table_churn", "detector_fit")
#: Per-run limit is 180 s; the first run in a checkout also learns the rules.
CHILD_TIMEOUT = 170.0
PREPARE_TIMEOUT = 600.0


def _import_path() -> None:
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def blas_threads() -> str:
    """OpenBLAS thread count of the loaded numpy, or the env setting."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            try:
                return str(getattr(ctypes.CDLL(lib), symbol)())
            except (OSError, AttributeError):
                continue
    return os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS", "unknown"))


def source_digest() -> str:
    """Short digest of the program sources, keying the cached rule set."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def run_context() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    loc = 0
    for path in SRC.rglob("*.py"):
        with open(path, "rb") as handle:
            loc += sum(1 for _ in handle)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "src_loc": loc,
    }


def child(args) -> int:
    """Run one workload in this (fresh) process; write its record."""
    _import_path()
    import tracer as tracing
    import workloads

    scale = workloads.SCALES[args.scale]
    if args.child == "prepare":
        workloads.prepare_rules(scale, Path(args.rules))
        return 0
    bench = workloads.build(
        args.workload, scale, Path(args.rules),
        Path(args.corpus) if args.corpus else None, args.seed,
    )
    record = {}
    if args.trace:
        tracer = tracing.Tracer()
        traced = bench.run_traced(tracer)
        metrics = traced.metrics()
        # the budget rows must each be non-negative and together account
        # for the traced wall time within 5%
        rows = traced.rows
        bench.ledger.check(
            "budget_rows",
            min(rows.values()) < 0 or abs(sum(rows.values()) / traced.wall - 1) > 0.05,
        )
        print(tracing.render_budget(args.workload, rows, traced.wall))
        print(
            f"trace.overhead {args.workload}: {100 * metrics['trace.overhead']:+.1f}% "
            f"(traced {traced.wall:.3f} s vs untraced {sum(traced.untraced):.3f} s)"
        )
        tracer.save(Path(args.out).with_suffix(".spans.npz"))
        record["budget"] = rows
    else:
        metrics = bench.run(args.seconds)
    ledger = bench.ledger
    record.update(
        correct=ledger.correct,
        attempted=ledger.attempted,
        failed=ledger.failed,
        checks=ledger.checks,
        notes=getattr(bench, "notes", {}),
        metrics={name: float(value) for name, value in metrics.items()},
    )
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


def spawn(argv, timeout: float) -> None:
    """Run ``run.py --child ...`` to completion, relaying its output."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        raise SystemExit(f"verdictbench: child {argv[:2]} exited with {proc.returncode}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input (smoke tests)")
    parser.add_argument("--cache", default=None,
                        help="artifact directory (default: .verdictbench in the checkout)")
    parser.add_argument("--child", choices=("prepare", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--rules", help=argparse.SUPPRESS)
    parser.add_argument("--corpus", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"verdictbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    cache = Path(args.cache) if args.cache else ROOT / ".verdictbench"
    cache.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--scale", args.scale]
    rules = cache / f"rules-{args.scale}-{source_digest()}.json"
    if not rules.is_file():
        spawn(["--child", "prepare", *common, "--rules", str(rules)], PREPARE_TIMEOUT)
    work = cache / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    out = cache / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.unlink(missing_ok=True)
    try:
        _import_path()
        import workloads

        corpus = []
        if workloads.needs_corpus(args.workload):
            workloads.prepare_corpus(workloads.SCALES[args.scale], work / "corpus", args.seed)
            corpus = ["--corpus", str(work / "corpus")]
        remaining = CHILD_TIMEOUT - (time.perf_counter() - started)
        spawn(["--child", "measure", *common, "--rules", str(rules), *corpus,
               "--out", str(out)], max(remaining, 30.0))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = json.loads(out.read_text())
    record["context"] = run_context()
    out.write_text(json.dumps(record, indent=2) + "\n")
    for name, failures in sorted(record["checks"].items()):
        print(f"check {name}: {'ok' if not failures else f'{failures} failed'}")
    print("context: " + json.dumps(record["context"], sort_keys=True))
    names = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": workloads.UNITS[name]}
            for name in names
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
