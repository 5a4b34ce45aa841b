"""The S-MATCH benchmark: one seeded, closed-loop run of one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload client_session --seed 1 --seconds 30 --trace 0

The program under test is imported from ``src/`` of the same checkout.
With ``--trace 0`` the whole run is measured untraced and the last stdout
line carries the end-to-end metrics named in ``BENCHMARK.json``; with
``--trace 1`` the run is split into an untraced half and a traced half and
the last line carries the per-layer metrics instead.  Earlier lines are a
human-readable report; the full record (every metric, the self-time table,
hardware and provenance) is written to ``perfbench-out/``.

Exit status: 0 after a completed run (``correct`` says whether every output
check passed), 2 when the program or ``BENCHMARK.json`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import shutil
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / "perfbench-out"

#: Worlds built per run; ``setup_s`` is the median of their set-up times.
SETUP_REPS = 3

#: Untimed operations before the measured loop, so caches, the allocator
#: and the servers' dirty-group share reach their steady state first.
WARMUP_S = 2.0

#: Percentiles reported per phase.  ``P_FLOOR`` (the gated latency) and
#: ``P_TAIL`` each need at least ten samples beyond them, so a phase needs
#: 500 samples for its floor and 1000 for its tail.
P_FLOOR = 2
P_TAIL = 99

#: Layers whose summed self time per operation is reported as
#: ``<name>.self_us``.
SELF_TIME_LAYERS = (
    "rs.key_material", "oprf.client", "keyservice.evaluate", "entropy.map",
    "chaining.chain", "ope.encrypt", "verification.auth", "verification.vf",
    "aead.seal", "aead.open", "channel.send", "channel.recv",
    "codec.encode", "codec.decode", "service.handle_upload",
    "service.handle_query", "matcher.match", "store.put", "tier.route",
    "shard.apply", "wal.append", "wal.commit", "snapshot",
)

#: ``<metric>``: the program's own op counter (repro.obs.instrument), per op.
OP_COUNTS = {
    "oprf.modexp.count": "modexp",
    "ope.level.count": "ope_level",
    "aes.block.count": "aes_block",
    "matcher.rescore.count": "server_rescore",
    "matcher.rescore_skipped.count": "server_rescore_skipped",
    "matcher.sort.count": "server_sort",
}


def build(workload_cls, seed, work_dir):
    """Set the world up ``SETUP_REPS`` times; keep the last, time each."""
    times = []
    for rep in range(SETUP_REPS):
        workload = workload_cls(seed, work_dir)
        start = perf_counter()
        workload.setup()
        times.append(perf_counter() - start)
        if rep < SETUP_REPS - 1:
            workload.close()
            del workload
            gc.collect()
    return workload, times


def measure(workload, seconds, rng, trace, failures):
    """Closed loop: the next operation starts when the previous one is done.

    Returns each phase's samples, each operation's timed total (the sum of
    its phases) and the failure count.
    """
    from repro.errors import ReproError
    from workloads import PHASES

    # compact arrays: sample storage must not dominate peak_rss_mb
    samples = {phase: array("q") for phase in PHASES}
    op_ns = array("q")
    failed = 0
    deadline = perf_counter_ns() + int(seconds * 1e9)
    while perf_counter_ns() < deadline:
        before = {phase: len(values) for phase, values in samples.items()}
        try:
            reason = workload.step(rng, samples, trace)
        except ReproError as exc:
            reason = f"{type(exc).__name__}: {exc}"
        op_ns.append(
            sum(sum(values[before[phase]:]) for phase, values in samples.items())
        )
        if reason:
            failed += 1
            if len(failures) < 20:
                failures.append(reason)
        trace.maybe_flush()
    return samples, op_ns, failed


def end_to_end(samples, op_ns):
    """Each phase's floor (p2), median and tail (p99), and throughput.

    The floor is the gated latency.  On the shared 2-vCPU host this was
    tuned on, throughput swung up to 1.8x within one run, and medians and
    p99s of the same code spread 15-35% between runs; the fastest
    operations are slowed least, so the floor spread 1-3% on a quiet host
    and 6-13% on a busy one.  The floor moves whenever the work on a
    phase's common path changes.  Medians, tails and throughput are
    reported beside it, with the sample count behind every figure.
    """
    metrics = {}
    for phase, values in samples.items():
        metrics[phase + ".samples"] = len(values)
        if len(values) < 2:
            continue
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        for p in (P_FLOOR, 50, P_TAIL):
            metrics[f"{phase}.p{p}"] = cuts[p - 1] / 1e3
    metrics["ops_per_s"] = len(op_ns) / (sum(op_ns) / 1e9)
    return metrics


def per_layer(tracer, drill, ops, upload_bytes, cache_lookups, overhead_pct):
    """Per-layer metrics: the traced phase per operation, and the drill."""
    metrics = {}
    for name in SELF_TIME_LAYERS:
        metrics[name + ".self_us"] = tracer.self_us(name) / ops
    for metric, op in OP_COUNTS.items():
        metrics[metric] = tracer.ops.get(op, 0) / ops
    tallies = tracer.tallies
    encodes = tracer.calls("codec.encode")
    hits, misses = cache_lookups
    metrics.update(
        {
            "wal.commit.count": tracer.calls("wal.commit") / ops,
            "snapshot.count": tracer.calls("snapshot") / ops,
            "snapshot.bytes_written": tallies["snapshot.bytes_written"] / ops,
            # the close-and-reopen drill, once per run
            "recovery.self_us": float(drill.self_us("recovery")),
            "recovery.replayed_records": float(
                drill.tallies["recovery.replayed_records"]
            ),
            "channel.bytes_per_session": tallies["channel.bytes"] / ops,
            "codec.bytes_per_msg": tallies["codec.bytes"] / encodes if encodes else 0.0,
            "wal.bytes_per_upload_byte": (
                tallies["wal.bytes"] / upload_bytes if upload_bytes else 0.0
            ),
            "ope.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "trace.overhead_pct": overhead_pct,
        }
    )
    return metrics


def _cache_lookups(workload):
    cache = workload.ope_cache
    return cache.stats()[:2] if cache is not None else (0, 0)


def traced_half(workload, seconds, rng, failures):
    """Measure again with every layer wrapped; returns the tracer and deltas."""
    import layers

    tracer = layers.LayerTracer()
    hits, misses = _cache_lookups(workload)
    upload_bytes = workload.acked_upload_bytes
    with tracer.traced():
        _, op_ns, failed = measure(workload, seconds, rng, tracer, failures)
    hits_after, misses_after = _cache_lookups(workload)
    ops = len(op_ns)
    deltas = {
        "ops_per_s": ops / (sum(op_ns) / 1e9),
        "upload_bytes": workload.acked_upload_bytes - upload_bytes,
        "cache_lookups": (hits_after - hits, misses_after - misses),
    }
    return tracer, ops, failed, deltas


def _report(lines, title, values, units):
    lines.append(title)
    for name, value in values.items():
        unit = units.get(name, "")
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name:34s} {shown:>14s} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not bench_path.is_file():
        print(
            f"perfbench: nothing to measure under {ROOT} "
            "(needs src/repro and BENCHMARK.json)",
            file=sys.stderr,
        )
        return 2
    bench = json.loads(bench_path.read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    import layers
    import provenance
    from workloads import PHASES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    work_dir = OUT_DIR / f"work-{args.workload}-{args.seed}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload, setup_times = build(WORKLOADS[args.workload], args.seed, work_dir)
        world = workload.describe()
        rng = random.Random(args.seed)
        failures = []
        untraced_seconds = args.seconds / 2 if args.trace else args.seconds
        _, warm_ops, failed = measure(
            workload, WARMUP_S, rng, layers.NoTrace(), failures
        )
        samples, op_ns, timed_failed = measure(
            workload, untraced_seconds, rng, layers.NoTrace(), failures
        )
        attempted = len(warm_ops) + len(op_ns)
        failed += timed_failed
        e2e = end_to_end(samples, op_ns)
        # serving memory; the traced half and the reopen drill come after
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tracers = []
        if args.trace:
            tracer, ops, t_failed, traced = traced_half(
                workload, args.seconds / 2, rng, failures
            )
            attempted += ops
            failed += t_failed
            drill_tracer = layers.LayerTracer()
            tracers = [tracer, drill_tracer]
        else:
            drill_tracer = layers.NoTrace()
        drill, problems = workload.finish(drill_tracer)
        if drill:
            attempted += 1
            if problems:
                failed += 1
                failures.extend(problems)
        if args.trace:
            layer_metrics = per_layer(
                tracer,
                drill_tracer,
                ops,
                traced["upload_bytes"],
                traced["cache_lookups"],
                100.0 * (e2e["ops_per_s"] / traced["ops_per_s"] - 1.0),
            )
        workload.close()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    e2e["setup_s"] = statistics.median(setup_times)
    e2e["error_rate"] = failed / attempted
    e2e["recover_s"] = drill.get("recover_s")
    e2e["disk_amp"] = drill.get("disk_amp")
    correct = failed == 0
    for checked in tracers:
        if checked.folded_us != checked.root_us:
            correct = False
            failures.append(
                f"folded self times {checked.folded_us} us != roots {checked.root_us} us"
            )

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update({"recover_s": "s", "disk_amp": "ratio", "error_rate": "ratio"})
    units.update({"ops_per_s": "1/s", "peak_rss_mb": "MB"})
    for phase in PHASES:
        units.update({f"{phase}.p{p}": "us" for p in (P_FLOOR, 50, P_TAIL)})
    lines = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}",
        f"  {spec['workloads'][args.workload]['why']}",
        "  world: " + ", ".join(f"{k}={v}" for k, v in world.items()),
        "  setup reps (s): " + " ".join(f"{t:.4f}" for t in setup_times),
    ]
    _report(lines, "end to end (untraced):", e2e, units)
    if args.trace:
        _report(lines, "per layer (traced half):", layer_metrics, units)
        lines.append("self time by layer (traced half, per operation):")
        lines.append(tracer.render(ops))
        if drill_tracer.rows:
            lines.append("self time by layer (close and reopen):")
            lines.append(drill_tracer.render(1))
    for reason in failures:
        lines.append(f"  FAILED: {reason}")
    print("\n".join(lines), flush=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "description": spec["workloads"][args.workload],
        "world": world,
        "setup_reps_s": setup_times,
        "end_to_end": e2e,
        "per_layer": layer_metrics if args.trace else None,
        "layer_rows": tracer.rows if args.trace else None,
        "drill_rows": drill_tracer.rows if args.trace else None,
        "failures": failures,
        "provenance": provenance.record(ROOT, args.seed),
    }
    OUT_DIR.mkdir(exist_ok=True)
    artifact = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    artifact.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"record: {artifact.relative_to(ROOT)}")

    chosen = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = layer_metrics if args.trace else e2e
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
