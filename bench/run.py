"""Run one benchmark workload and print its metrics.

Usage, from the root of a molbench checkout:

    python3 bench/run.py --workload toy-cell --seed 1 --seconds 30 --trace 0

One process, one caller, closed loop: rounds run back to back until the
next one would end after ``--seconds`` (at least one round; with
``--trace 1`` at least one untraced and one traced round, alternating).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``metrics.py``). The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine facts and, when traced, the self time of every layer.
Spans and the full result are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
# One BLAS thread: the benchmark measures a single caller, and a second
# thread would contend with other work on a small machine.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_facts() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "peak_rss_method": "resource.getrusage(RUSAGE_SELF).ru_maxrss of the workload process",
        "platform": platform.platform(),
    }


def import_seconds() -> float:
    """Wall time of importing the benchmark's modules in a fresh interpreter."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; start = time.perf_counter(); "
            "import workloads; print(time.perf_counter() - start)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC), str(BENCH)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def execute(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, run rounds, check outputs; returns the result and its details.

    One set-up is the imports, timed in a fresh interpreter, plus the input
    generation; ``setup_s`` is the median of several.
    """
    from metrics import END_TO_END, PER_LAYER, UNITS, span_metric
    from tracer import Tracer
    from workloads import PROBES, Ledger, median_of

    ledger = Ledger()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        imports = import_seconds()
        start = time.perf_counter()
        workload.setup(seed, work)
        setup_times.append(imports + time.perf_counter() - start)

    untraced, traced, tracers = [], [], []
    loop_start = time.perf_counter()
    while True:
        tracer = Tracer(workload.name, enabled=trace and len(untraced) > len(traced))
        directory = work / f"round{len(untraced) + len(traced)}"
        directory.mkdir()
        result = workload.round(tracer, directory, ledger)
        (traced if tracer.enabled else untraced).append(result)
        if tracer.enabled:
            tracers.append(tracer)
        rounds = len(untraced) + len(traced)
        elapsed = time.perf_counter() - loop_start
        if trace and not traced:
            continue
        if elapsed * (rounds + 1) / rounds > seconds:
            break

    values = {}
    if not trace:
        values["setup_s"] = statistics.median(setup_times)
        values["round_s"] = median_of(untraced, "wall")
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        names = [name for name, *_ in END_TO_END]
    else:
        layers = {}
        for tracer_index, tracer in enumerate(tracers):
            for span in tracer.spans:
                key = span_metric(span.name)
                per_round = layers.setdefault(key, [0.0] * len(tracers))
                per_round[tracer_index] += span.duration
        layers = {k: statistics.median(v) for k, v in layers.items()}
        values.update(layers)
        for name, *_ in PER_LAYER:
            if any(name in r for r in traced):
                values[name] = median_of(traced, name)
        values.update(workload.layer_metrics(untraced, traced, layers))
        values["failed_frac"] = ledger.failed / max(ledger.attempted, 1)
        values["trace.overhead_s"] = median_of(traced, "wall") - median_of(untraced, "wall")
        values["trace.unattributed_s"] = statistics.median(
            r.get("wall", 0.0) - sum(s.duration for s in t.spans
                                     if s.parent is None and not s.name.startswith(PROBES))
            for r, t in zip(traced, tracers)
        )
        names = [name for name, *_ in PER_LAYER]

    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": UNITS[name]}
            for name in names
        },
        "_details": {
            "setup_times_s": setup_times,
            "untraced_walls_s": [r["wall"] for r in untraced if "wall" in r],
            "traced_wall_s": median_of(traced, "wall"),
            "self_times_s": self_times(tracers),
            "facts": workload.facts(traced),
            "spans": [
                {**asdict(span), "round": i} for i, t in enumerate(tracers) for span in t.spans
            ],
        },
    }


def self_times(tracers) -> dict:
    totals: dict[str, float] = {}
    for tracer in tracers:
        for name, value in tracer.self_times().items():
            totals[name] = totals.get(name, 0.0) + value / len(tracers)
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "molbench" / "__init__.py").is_file():
        print(f"error: no molbench package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import molbench
    import workloads

    if Path(molbench.__file__).resolve().parent != SRC / "molbench":
        print(f"error: molbench imported from {molbench.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = execute(workloads.WORKLOADS[args.workload](), args.seed,
                         args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details = result.pop("_details")
    details["machine"] = machine_facts()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({**result, **details}, indent=1) + "\n", encoding="utf-8"
    )
    print("machine:", json.dumps(details["machine"]))
    if details["facts"]:
        print("inputs:", json.dumps(details["facts"]))
    if args.trace:
        print(f"self time per traced round (traced wall {details['traced_wall_s']:.3f} s):")
        for name, value in details["self_times_s"].items():
            print(f"  {name:28s} {value:10.4f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
