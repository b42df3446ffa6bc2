#!/usr/bin/env python3
"""Engine benchmark: both separator engines on one workload, end to end.

    python3 perfbench/run.py --workload grid-deep --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports ``planarsep`` from its
``src/`` directory.  The workload's instance is built from ``--seed``.  The
run is a closed loop in one process and one thread: one instance, one
engine call at a time, until ``--seconds`` of measuring are used.

``--trace 0`` times the entry points ``compute_separator`` and
``dist_compute_separator``/``dist_multi`` and prints the end-to-end
metrics.  ``--trace 1`` follows each timed entry-point call with a
rebuild of the same call from its stage functions, with spans around each
stage, and prints the per-layer metrics and the tracing overhead.  Every
output passes the correctness gate in ``engines.Gate`` outside the timed
regions.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Files written under ``perfbench/out/``: one result file per
workload/seed/trace (stamp, metrics, ``RoundTrace`` fingerprint, spans),
and the fingerprint store.  A fingerprint that differs from an earlier
run of the same sources and seed makes the run incorrect.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# share of each distributed call's time spent on sequential calls, so the
# fast engine gets many samples without starving the slow one
SEQ_SHARE = 0.2
# set-up is repeated at least this often, and until it has used the
# set-up time budget or reached the cap
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 1.0
# median time of calibrate() over runs on a 2-vCPU Intel Xeon VM, CPython 3.11.7
REFERENCE_CALIB_S = 0.051


def calibrate() -> float:
    """Times a fixed pure-Python kernel (tuple keys, dict updates, a sort).

    The collector is off while it runs, so the heap the library left
    behind does not change its time.
    """
    gc.disable()
    try:
        t = time.perf_counter()
        d: dict = {}
        for i in range(100_000):
            k = (i % 977, i % 131, i & 7)
            d[k] = d.get(k, 0) + i
        sorted(d.items(), key=lambda kv: (kv[1], kv[0]))
        return time.perf_counter() - t
    finally:
        gc.enable()


class Speed:
    """Scales wall times to the reference speed of ``calibrate()``.

    The host is shared: its speed for this process drifts by up to about
    1.8x, for seconds or minutes at a time, which medians within one run
    cannot remove.  The kernel is timed before and after every measured
    block, and a time measured in the block is multiplied by
    ``REFERENCE_CALIB_S / mean(kernel time before, kernel time after)``,
    which gives seconds at the reference speed.  The kernel is not part
    of the library, so a change to the library does not move it.
    """

    def __init__(self) -> None:
        self.samples = [calibrate()]

    def factor(self) -> float:
        """Closes the block measured since the previous call."""
        self.samples.append(calibrate())
        return REFERENCE_CALIB_S / ((self.samples[-2] + self.samples[-1]) / 2)


def _use_checkout_sources() -> None:
    src = ROOT / "src"
    if not (src / "planarsep" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no planarsep sources under {src}")
    sys.path.insert(0, str(src))
    import planarsep

    if Path(planarsep.__file__).resolve().parent != src / "planarsep":
        raise SystemExit(f"perfbench: planarsep imported from {planarsep.__file__}")


def _commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return "unknown"


def _sources_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _stamp(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": _commit(),
        "src_sha256": _sources_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def _write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _check_fingerprint(stamp: dict, fingerprint: dict) -> bool:
    """Store the fingerprint, or compare it with the stored one."""
    name = f"{stamp['workload']}-seed{stamp['seed']}{'-smoke' if stamp['smoke'] else ''}.json"
    path = OUT / "fingerprints" / stamp["src_sha256"][:16] / name
    if path.is_file():
        return json.loads(path.read_text()) == fingerprint
    _write_json(path, fingerprint)
    return True


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _setup(build, seed: int, smoke: bool, tracer):
    """Builds the instance repeatedly; returns it and the set-up labels."""
    labels, t0 = [], time.perf_counter()
    while len(labels) < SETUP_MAX:
        if len(labels) >= SETUP_MIN and time.perf_counter() - t0 > SETUP_BUDGET_S:
            break
        tracer.instance = f"setup-{len(labels)}"
        labels.append(tracer.instance)
        gc.collect()
        with tracer.span("setup"):
            inst = build(seed, smoke, tracer)
    return inst, labels


def _span_durations(tracer, name: str, labels) -> list[float]:
    return [
        s["end"] - s["start"] for s in tracer.spans
        if s["name"] == name and s["instance"] in labels
    ]


def measure_end_to_end(inst, gate, seconds: float, speed: Speed) -> tuple[dict, dict]:
    """Closed loop over the entry points; returns (metrics, timing samples)."""
    from engines import run_dist, run_seq

    t = time.perf_counter()
    gate.set_reference(run_seq(inst))
    seq_ref_s = time.perf_counter() - t
    speed.factor()
    raw = {"seq_s": [], "dist_s": []}
    seq_times, dist_times = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        t = time.perf_counter()
        outputs, trace = run_dist(inst)
        raw["dist_s"].append(time.perf_counter() - t)
        dist_times.append(raw["dist_s"][-1] * speed.factor())
        gate.check_dist(outputs, trace, f"pass {len(dist_times)}")
        del outputs, trace
        gc.collect()
        batch = []
        for _ in range(max(1, round(SEQ_SHARE * raw["dist_s"][-1] / seq_ref_s))):
            t = time.perf_counter()
            results = run_seq(inst)
            batch.append(time.perf_counter() - t)
            gate.check_seq(results, f"pass {len(dist_times)}")
        f = speed.factor()
        raw["seq_s"].extend(batch)
        seq_times.extend(x * f for x in batch)
        elapsed = time.perf_counter() - start
        if elapsed * (len(dist_times) + 1) / len(dist_times) > seconds:
            break
    trace = gate.first_trace
    messages = sum(p.messages for p in trace.phases)
    dist_s = _median(dist_times)
    metrics = {
        "seq_s": (_median(seq_times), "s"),
        "dist_s": (dist_s, "s"),
        "dist_msgs_per_s": (messages / dist_s, "msg/s"),
        "messages": (messages, "count"),
        "total_bits": (sum(p.total_bits for p in trace.phases), "bit"),
        "max_bits": (trace.max_bits_per_edge_per_round, "bit"),
    }
    return metrics, raw


def measure_layers(
    inst, gate, seconds: float, tracer, speed: Speed, setup_factor: float
) -> tuple[dict, dict]:
    """Entry-point call, then its traced rebuild, per pass; per-layer metrics."""
    from engines import congest_probe, run_dist, run_seq, traced_dist, traced_seq
    from planarsep.verify import verify_separator

    gate.set_reference(run_seq(inst))
    speed.factor()
    untraced, passes, factors = [], [], []
    start = time.perf_counter()
    while True:
        label = f"pass-{len(passes)}"
        passes.append(label)
        gc.collect()
        t = time.perf_counter()
        outputs, trace = run_dist(inst)
        untraced.append(time.perf_counter() - t)
        gate.check_dist(outputs, trace, f"{label} entry point")
        del outputs, trace
        tracer.instance = label
        gc.collect()
        outputs, trace = traced_dist(inst, tracer)
        gate.check_dist(outputs, trace, f"{label} traced")
        del outputs, trace
        gc.collect()
        results, stats = [], []
        for part in inst.parts:
            res, st = traced_seq(part, tracer)
            results.append(res)
            stats.append(st)
            with tracer.span("verify"):
                verify_separator(part.graph, part.weights, res.path)
        gate.check_seq(results, f"{label} traced")
        pa, bc = congest_probe(inst, tracer)
        factors.append(speed.factor())
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    traced = _span_durations(tracer, "dist", passes)
    m = _layer_metrics(tracer, passes, factors, setup_factor, gate, stats, pa, bc)
    m["dist.trace_overhead_s"] = (
        _median([x * f for x, f in zip(traced, factors)])
        - _median([x * f for x, f in zip(untraced, factors)]), "s"
    )
    return m, {"untraced_dist_s": untraced, "traced_dist_s": traced, "pass_factors": factors}


def _layer_metrics(tracer, passes, factors, setup_factor, gate, stats, pa, bc) -> dict:
    """Per-layer metrics: median scaled self times over passes, and the
    trace's counts."""
    from engines import DIST_PHASES
    from spans import self_time_by_name

    def scaled(label: str, f: float) -> dict[str, float]:
        return {k: v * f for k, v in self_time_by_name(tracer.spans, label).items()}

    per_pass = [scaled(label, f) for label, f in zip(passes, factors)]
    setups = [s["instance"] for s in tracer.spans if s["name"] == "setup"]
    per_setup = [scaled(label, setup_factor) for label in setups]

    def self_s(name: str, runs=per_pass) -> float:
        return _median([st.get(name, 0.0) for st in runs])

    trace = gate.first_trace
    m: dict = {}
    m["generators.s"] = (self_s("generators", per_setup), "s")
    m["treecotree.bfs_s"] = (self_s("treecotree.bfs", per_setup), "s")
    m["biconnect.s"] = (self_s("biconnect"), "s")
    m["biconnect.virtual_edges"] = (sum(s.virtual_edges for s in stats), "count")
    m["treecotree.cotree_s"] = (self_s("treecotree.cotree"), "s")
    m["treecotree.dual_nodes"] = (sum(s.dual_nodes for s in stats), "count")
    m["weights.proper_s"] = (self_s("weights.proper"), "s")
    m["weights.transfer_s"] = (self_s("weights.transfer"), "s")
    m["separator.detect_s"] = (self_s("separator.detect"), "s")
    m["separator.mark_s"] = (self_s("separator.mark"), "s")
    m["separator.face_k"] = (max(s.face_k for s in stats), "count")
    m["separator.path_len"] = (max(gate.path_len.values()), "count")
    m["verify.s"] = (self_s("verify"), "s")
    m["verify.balance"] = (max(gate.balance.values()), "fraction")
    m["dist.prep_s"] = (self_s("dist.prep"), "s")
    for _, phase in DIST_PHASES:
        pt = next(p for p in trace.phases if p.name == phase)
        sec = self_s("dist." + phase)
        m[f"dist.{phase}.s"] = (sec, "s")
        if phase == "learn_cotree":
            continue  # purely local: no rounds, messages or aggregations
        m[f"dist.{phase}.rounds"] = (pt.honest_rounds, "count")
        m[f"dist.{phase}.messages"] = (pt.messages, "count")
        m[f"dist.{phase}.bits"] = (pt.total_bits, "bit")
        m[f"dist.{phase}.max_bits"] = (pt.max_bits, "bit")
        m[f"dist.{phase}.pa_calls"] = (pt.pa_calls, "count")
        m[f"dist.{phase}.us_per_msg"] = (
            sec * 1e6 / pt.messages if pt.messages else 0.0, "us/msg"
        )
    m["dist.mark_search.probes"] = (
        next(p for p in trace.phases if p.name == "mark_search").probes, "count"
    )
    m["dist.assemble_s"] = (self_s("dist.assemble"), "s")
    m["dist.honest_rounds"] = (trace.rounds_executed, "count")
    m["dist.charged_rounds"] = (trace.charged_rounds, "count")
    messages = sum(p.messages for p in trace.phases)
    dropped = sum(p.dropped for p in trace.phases)
    m["congest.pa_s"] = (self_s("congest.pa"), "s")
    m["congest.pa_rounds"] = (pa.honest_rounds, "count")
    m["congest.broadcast_s"] = (self_s("congest.broadcast"), "s")
    m["congest.broadcast_rounds"] = (bc.honest_rounds, "count")
    m["congest.dropped"] = (dropped, "count")
    m["congest.delivered_frac"] = ((messages - dropped) / messages, "fraction")
    m["congest.overflow_flags"] = (sum(p.overflow_flags for p in trace.phases), "count")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced-size instances, for the benchmark's own tests")
    args = ap.parse_args(argv)

    _use_checkout_sources()
    from engines import Gate, trace_fingerprint
    from spans import Tracer, self_times
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    stamp = _stamp(args)
    print("stamp " + json.dumps(stamp, sort_keys=True), flush=True)

    tracer = Tracer()
    speed = Speed()
    inst, setup_labels = _setup(WORKLOADS[args.workload], args.seed, args.smoke, tracer)
    setup_factor = speed.factor()
    gate = Gate(inst)
    if args.trace:
        metrics, samples = measure_layers(inst, gate, args.seconds, tracer, speed, setup_factor)
    else:
        metrics, samples = measure_end_to_end(inst, gate, args.seconds, speed)
        samples["setup_s"] = _span_durations(tracer, "setup", setup_labels)
        metrics["setup_s"] = (_median(samples["setup_s"]) * setup_factor, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        )
        metrics["pass_frac"] = ((gate.attempted - gate.failed) / gate.attempted, "fraction")
    samples["calibrate_s"] = speed.samples

    fingerprint = {
        "round_trace": trace_fingerprint(gate.first_trace),
        "outputs_sha256": gate.outputs_sha256(),
    }
    fingerprint_ok = _check_fingerprint(stamp, fingerprint)
    for span, own in zip(tracer.spans, self_times(tracer.spans).values()):
        span["self"] = own
    correct = gate.failed == 0 and fingerprint_ok
    result = {
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    _write_json(
        OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        f"{'-smoke' if args.smoke else ''}.json",
        {
            "stamp": stamp,
            "result": result,
            "failures": gate.reasons + ([] if fingerprint_ok else ["fingerprint differs"]),
            "samples": samples,
            "fingerprint": fingerprint,
            "spans": tracer.spans,
        },
    )
    for why in gate.reasons:
        print("FAIL " + why, file=sys.stderr)
    if not fingerprint_ok:
        print("FAIL RoundTrace fingerprint differs from an earlier run", file=sys.stderr)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
