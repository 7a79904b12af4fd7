"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload poll_storm --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all     # every workload, untraced + traced

A run repeats its workload back to back (a closed loop: each repetition
starts when the previous one ends) until ``--seconds`` have passed,
verifies every repetition, and reports medians over the repetitions.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer table, with
the tracing overhead measured between the two.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every repetition verified.

Host-speed scaling: the host this runs on shares its CPUs, and its
speed drifts by tens of percent over minutes.  A fixed pure-Python
reference loop is timed before the first repetition and after each one,
and every reported time is multiplied by ``REFERENCE_NOMINAL_S`` over
the run's median reference time: the time the run would have taken on
a host running the loop in ``REFERENCE_NOMINAL_S``.  The raw medians
and the reference time are printed beside the scaled ones.

Verification of every repetition:

* the SHA-256 of the result rows and the deterministic counts (events,
  polls, client requests, origin requests, updates applied) equal the
  first repetition's byte for byte, and on the default seed the values
  pinned in ``perfbench/pins.json``;
* the conservation identities hold on the public ``counters``: per
  tree, origin requests and downstream requests each lie between the
  completed and the issued polls of the level that sends them (an
  equality on zero-latency links; requests in flight at the horizon
  sit in between on links with latency), no downstream request gets a
  404, and edge hits plus misses equal the arrivals the harness issued;
* on traced repetitions, the layer self times add up to the root span.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from probes import Patches, Probe, Tracer
from workloads import WORKLOADS, ClientPump

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINS_PATH = os.path.join(HERE, "pins.json")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
SPAN_DIR = os.path.join(ROOT, ".bench_out")

#: Repetitions a run makes even when ``--seconds`` is already spent.
MIN_REPETITIONS = 3
#: Traced and untraced repetitions a ``--trace 1`` run makes at least.
MIN_TRACED = 2
#: Spans written to the dump file; the in-memory analysis uses all.
SPAN_DUMP_LIMIT = 200_000
#: |Σ layer self time − root span| tolerated (float rounding only).
BALANCE_TOLERANCE_S = 1e-6
#: The reference loop's time on an unloaded host (a 2-vCPU 2.1 GHz VM,
#: CPython 3.11): the host speed every reported time is scaled to.
REFERENCE_NOMINAL_S = 0.09
REFERENCE_ITERATIONS = 80_000

#: (name, unit) of each end-to-end metric, reported with ``--trace 0``.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("run_s", "s"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)

#: (name, unit) of each per-layer metric, reported with ``--trace 1``.
PER_LAYER = (
    ("sim.events", "count"),
    ("sim.self_s", "s"),
    ("sim.ns_per_event", "ns"),
    ("proxy.self_s", "s"),
    ("proxy.client_requests", "count"),
    ("proxy.client_hit_ratio", "fraction"),
    ("proxy.polls", "count"),
    ("proxy.poll_modified_ratio", "fraction"),
    ("proxy.downstream_requests", "count"),
    ("httpsim.self_s", "s"),
    ("httpsim.exchanges", "count"),
    ("httpsim.async_share", "fraction"),
    ("server.self_s", "s"),
    ("server.requests", "count"),
    ("server.updates_applied", "count"),
    ("consistency.self_s", "s"),
    ("consistency.next_ttr_calls", "count"),
    ("consistency.extra_poll_share", "fraction"),
    ("metrics.self_s", "s"),
    ("metrics.rows", "count"),
    ("setup.import_s", "s"),
    ("setup.traces_s", "s"),
    ("setup.build_s", "s"),
    ("api.self_s", "s"),
    ("experiments.self_s", "s"),
    ("harness.self_s", "s"),
    ("unattributed.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
)

#: Counts pinned per workload for the default seed.
PINNED_COUNTS = (
    "events",
    "polls",
    "client_requests",
    "origin_requests",
    "updates_applied",
)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def weight(self) -> int:
        return self.value % 3


def reference_loop() -> float:
    """Seconds a fixed loop of heap, dict, call and allocation work takes.

    The loop mixes the interpreter work the simulator does, and never
    touches the simulator, so its time moves only with the host.  The
    garbage collector is off while it runs: a collection would scan the
    workload's heap and tie the loop's time to the program's memory.
    """
    heap: List[Tuple[int, int, _Item]] = []
    table: Dict[int, _Item] = {}
    total = 0
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        for i in range(REFERENCE_ITERATIONS):
            item = _Item(i, i * 7 % 13)
            heapq.heappush(heap, ((i * 7919) % 10007, i, item))
            table[i & 511] = item
            if len(heap) > 256:
                key, _sequence, popped = heapq.heappop(heap)
                total += popped.weight() + table.get(key & 511, item).value
        return time.perf_counter() - started
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------
@dataclass
class Repetition:
    """Measurements and verification of one repetition of a workload."""

    traced: bool
    import_s: float = 0.0
    loop_s: float = 0.0
    setup_s: float = 0.0
    run_s: float = 0.0
    digest: str = ""
    counts: Dict[str, int] = field(default_factory=dict)
    totals: Dict[str, int] = field(default_factory=dict)
    rows: int = 0
    schedulers: Tuple[str, ...] = ()
    failures: List[str] = field(default_factory=list)
    layers: Any = None
    tracer: Any = None

    @property
    def requests(self) -> int:
        """Simulated HTTP requests answered: client requests plus polls."""
        return self.totals["client_requests"] + self.totals["polls"]


def time_import(modules: Sequence[str]) -> float:
    """Seconds a fresh interpreter spends importing ``modules``."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "started = time.perf_counter()\n"
        + "".join(f"import {module}\n" for module in modules)
        + "print(repr(time.perf_counter() - started))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-I", "-c", code],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def run_repetition(workload: Any, seed: int, traced: bool) -> Repetition:
    rep = Repetition(traced=traced)
    gc.collect()
    try:
        rep.import_s = time_import(workload.imports)
        patches = Patches()
        probe = Probe()
        tracer = Tracer(pump_types=(ClientPump,)) if traced else None
        probe.install(patches)
        if tracer is not None:
            tracer.install(patches)

        def body() -> None:
            if workload.harness_builds_config:
                probe.open_window()
            payload = workload.run(seed)
            rep.digest = hashlib.sha256(payload).hexdigest()
            rep.totals = probe.totals()
            rep.failures.extend(probe.identity_failures(workload.arrivals))

        try:
            started = time.perf_counter()
            if tracer is not None:
                tracer.root(body)
            else:
                body()
            rep.loop_s = time.perf_counter() - started
        finally:
            patches.restore()
        rep.setup_s = probe.setup_s
        rep.run_s = probe.run_s
        rep.rows = workload.rows
        rep.schedulers = tuple(sorted(probe.schedulers))
        rep.counts = {key: rep.totals[key] for key in PINNED_COUNTS}
        if tracer is not None:
            rep.layers = tracer.report()
            rep.tracer = tracer
            error = rep.layers.balance_error_s()
            if error > BALANCE_TOLERANCE_S:
                rep.failures.append(
                    f"layer self times miss the traced wall by {error:.3g} s"
                )
    except Exception:
        # A repetition that raises is counted as failed; the run goes on.
        rep.failures.append(traceback.format_exc().strip().splitlines()[-1])
        traceback.print_exc(file=sys.stderr)
    return rep


def verify_against(reps: List[Repetition], pin: Optional[Dict[str, Any]]) -> None:
    """Record every disagreement with the first repetition or the pin."""
    reference = next((rep for rep in reps if not rep.failures), None)
    for rep in reps:
        if rep.failures or reference is None:
            continue
        if rep.digest != reference.digest or rep.counts != reference.counts:
            rep.failures.append(
                f"repetition differs from the first: rows {rep.digest[:12]} "
                f"vs {reference.digest[:12]}, counts {rep.counts} vs "
                f"{reference.counts}"
            )
        if pin is not None:
            if rep.digest != pin["rows_sha256"]:
                rep.failures.append(
                    f"rows sha256 {rep.digest} != pinned {pin['rows_sha256']}"
                )
            for key in PINNED_COUNTS:
                if rep.counts[key] != pin[key]:
                    rep.failures.append(
                        f"{key} {rep.counts[key]} != pinned {pin[key]}"
                    )


def measure(
    workload: Any, seed: int, seconds: float, trace: bool
) -> Tuple[List[Repetition], float]:
    """Repeat until ``seconds`` are spent; traced runs alternate in pairs.

    Returns the repetitions and the run's median reference-loop time.
    """
    # Import everything the repetitions touch first: a fresh process's
    # import is timed separately, in a child interpreter.
    patches = Patches()
    Probe().install(patches)
    Tracer().install(patches)
    patches.restore()
    for module in workload.imports:
        importlib.import_module(module)

    reps: List[Repetition] = []
    references = [reference_loop()]
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(reps) % 2 == 1
        rep = run_repetition(workload, seed, traced)
        references.append(reference_loop())
        if rep.tracer is not None:
            # Only the last traced repetition's spans are written out.
            for earlier in reps:
                earlier.tracer = None
        reps.append(rep)
        if trace:
            enough = len(reps) >= 2 * MIN_TRACED and not len(reps) % 2
        else:
            enough = len(reps) >= MIN_REPETITIONS
        if enough and time.perf_counter() >= deadline:
            return reps, median(references)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end_metrics(reps: List[Repetition], factor: float) -> Dict[str, float]:
    """The end-to-end medians, times multiplied by the host ``factor``."""
    good = [rep for rep in reps if not rep.failures]
    run = [rep.run_s * factor for rep in good]
    rates = [ratio(rep.requests, seconds) for rep, seconds in zip(good, run)]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": factor * median([rep.import_s + rep.loop_s for rep in good]),
        "setup_s": factor * median([rep.import_s + rep.setup_s for rep in good]),
        "run_s": median(run),
        "requests_per_s": median(rates),
        "peak_rss_mib": rss_kib / 1024.0,
    }


def per_layer_metrics(reps: List[Repetition], factor: float) -> Dict[str, float]:
    """The per-layer table, times multiplied by the host ``factor``."""
    good = [rep for rep in reps if not rep.failures]
    traced = [rep for rep in good if rep.traced]
    plain = [rep for rep in good if not rep.traced]
    if not traced:
        return {name: 0.0 for name, _unit in PER_LAYER}
    first = traced[0]
    totals = first.totals
    calls = first.layers.calls

    def self_s(layer: str) -> float:
        return factor * median([rep.layers.self_s[layer] for rep in traced])

    sync = calls["Network.exchange_sync"]
    exchanges = sync + calls["Network.exchange"]
    ttr_calls = sum(
        count for name, count in calls.items() if name.endswith(".next_ttr")
    )
    sim_self = self_s("sim")
    traced_wall = factor * median([rep.layers.wall_s for rep in traced])
    plain_wall = factor * median([rep.loop_s for rep in plain])
    return {
        "sim.events": totals["events"],
        "sim.self_s": sim_self,
        "sim.ns_per_event": ratio(sim_self * 1e9, totals["events"]),
        "proxy.self_s": self_s("proxy"),
        "proxy.client_requests": totals["client_requests"],
        "proxy.client_hit_ratio": ratio(
            totals["client_hits"], totals["client_requests"]
        ),
        "proxy.polls": totals["polls"],
        "proxy.poll_modified_ratio": ratio(totals["polls_modified"], totals["polls"]),
        "proxy.downstream_requests": totals["downstream_requests"],
        "httpsim.self_s": self_s("httpsim"),
        "httpsim.exchanges": exchanges,
        "httpsim.async_share": ratio(exchanges - sync, exchanges),
        "server.self_s": self_s("server"),
        "server.requests": totals["origin_requests"],
        "server.updates_applied": totals["updates_applied"],
        "consistency.self_s": self_s("consistency"),
        "consistency.next_ttr_calls": ttr_calls,
        "consistency.extra_poll_share": ratio(
            totals["mutual_trigger_polls"], totals["polls"]
        ),
        "metrics.self_s": self_s("metrics"),
        "metrics.rows": first.rows,
        "setup.import_s": factor * median([rep.import_s for rep in good]),
        "setup.traces_s": self_s("setup.traces"),
        "setup.build_s": self_s("setup.build"),
        "api.self_s": self_s("api"),
        "experiments.self_s": self_s("experiments"),
        "harness.self_s": self_s("harness"),
        "unattributed.self_s": self_s("unattributed"),
        "trace.wall_s": traced_wall,
        "trace.spans": first.layers.spans,
        "trace.overhead_pct": 100.0 * (ratio(traced_wall, plain_wall) - 1.0),
    }


# ----------------------------------------------------------------------
# Provenance and reporting
# ----------------------------------------------------------------------
def source_sha256() -> str:
    """Digest of every ``src/repro`` Python file, for checkouts without git."""
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(os.path.join(SRC, "repro")):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        completed = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def print_table(title: str, rows: Sequence[Sequence[str]]) -> None:
    print(f"== {title}")
    for name, *cells in rows:
        print(f"  {name:<30}" + "".join(f"{cell:>16}" for cell in cells))


def check_declared_metrics() -> Optional[str]:
    """The metric names and units must match ``BENCHMARK.json`` exactly."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        declared = json.load(handle)
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        names = [(entry["name"], entry["unit"]) for entry in declared[key]]
        if names != list(ours):
            return f"BENCHMARK.json {key} does not match the benchmark's metrics"
    return None


def run_one(args: argparse.Namespace, pins: Dict[str, Any]) -> int:
    stamp: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
    }
    trace = args.trace == 1
    workload = WORKLOADS[args.workload]()
    reps, reference_s = measure(workload, args.seed, args.seconds, trace)
    factor = REFERENCE_NOMINAL_S / reference_s
    default_seed = args.seed == pins["default_seed"]
    verify_against(reps, pins["pins"].get(args.workload) if default_seed else None)
    failed = sum(1 for rep in reps if rep.failures)
    for number, rep in enumerate(reps):
        for failure in rep.failures:
            print(
                f"repetition {number} failed verification: {failure}",
                file=sys.stderr,
            )

    good = [rep for rep in reps if not rep.failures]
    stamp["loadavg_1m_end"] = os.getloadavg()[0]
    stamp["scheduler"] = sorted({name for rep in reps for name in rep.schedulers})
    stamp["verified_against"] = "pins" if default_seed else "repetitions"
    stamp["reference_loop_s"] = reference_s
    if good:
        first = good[0]
        stamp["rows_sha256"] = first.digest
        stamp["counts"] = first.counts
        stamp["in_flight_at_horizon"] = (
            first.totals["level0_polls"]
            + first.totals["nonroot_polls"]
            - first.totals["level0_completed"]
            - first.totals["nonroot_completed"]
        )
    print("provenance " + json.dumps(stamp, sort_keys=True))

    if trace:
        values = per_layer_metrics(reps, factor)
        units = dict(PER_LAYER)
        traced = [rep for rep in good if rep.traced]
        print_table(
            f"{args.workload}: per layer, medians of {len(traced)} traced "
            f"repetitions (overhead against {len(good) - len(traced)} untraced)",
            [(name, f"{values[name]:.6g}", units[name]) for name, _unit in PER_LAYER],
        )
        if traced:
            last = traced[-1]
            spans = last.layers
            print(
                f"layer self times sum to {sum(spans.self_s.values()):.6f} s; "
                f"root span {spans.wall_s:.6f} s (last traced repetition)"
            )
            print_table(
                f"spans by self time, last traced repetition "
                f"(unscaled, wall {spans.wall_s:.4f} s)",
                [
                    (name, f"{seconds:.4f} s", f"{spans.calls[name]} calls")
                    for name, seconds in sorted(
                        spans.span_self_s.items(), key=lambda item: -item[1]
                    )
                    if spans.calls[name]
                ],
            )
            os.makedirs(SPAN_DIR, exist_ok=True)
            path = os.path.join(SPAN_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")
            last.tracer.dump(path, SPAN_DUMP_LIMIT)
            print(f"spans written to {os.path.relpath(path, ROOT)}")
        print("unmeasured layers:")
        for layer, reason in pins["unmeasured"].items():
            print(f"  {layer}: {reason}")
    else:
        values = end_to_end_metrics(reps, factor)
        raw = end_to_end_metrics(reps, 1.0)
        units = dict(END_TO_END)
        rows = [("metric", "scaled", "raw", "unit")]
        rows += [
            (name, f"{values[name]:.6g}", f"{raw[name]:.6g}", unit)
            for name, unit in END_TO_END
        ]
        rows.append(("error_rate", f"{failed / len(reps):.6g}", "", "fraction"))
        print_table(
            f"{args.workload}: end to end, medians of {len(good)} of "
            f"{len(reps)} repetitions",
            rows,
        )

    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process, untraced then traced."""
    combined: Dict[str, Any] = {}
    attempted = failed = 0
    status = 0
    for name in WORKLOADS:
        for trace in ("0", "1"):
            command = [
                sys.executable,
                os.path.abspath(__file__),
                "--workload",
                name,
                "--seed",
                str(args.seed),
                "--seconds",
                str(args.seconds),
                "--trace",
                trace,
            ]
            completed = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True
            )
            lines = completed.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            sys.stderr.write(completed.stderr)
            status = status or completed.returncode
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                attempted += 1
                failed += 1
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                combined[f"{name}.{metric}"] = entry
    print(
        json.dumps(
            {
                "correct": failed == 0 and status == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": combined,
            }
        )
    )
    return 1 if failed or status else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None, help="default: pinned")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(BENCHMARK_JSON):
        print("error: BENCHMARK.json is missing from the checkout", file=sys.stderr)
        return 2
    mismatch = check_declared_metrics()
    if mismatch:
        print(f"error: {mismatch}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    with open(PINS_PATH, encoding="utf-8") as handle:
        pins = json.load(handle)
    if args.seed is None:
        args.seed = pins["default_seed"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args, pins)


if __name__ == "__main__":
    sys.exit(main())
