"""The JxVM benchmark: one workload, measured from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each program lifetime (an *episode*:
import, offline plan, frontend + VM build, then the workload's
operations) runs in a fresh ``python3 perfbench/episode.py`` process,
back to back, until ``--seconds`` have passed (at least
``MIN_EPISODES``).  Every operation's output is compared with the
reference digest of its (workload, seed); an exception or a mismatch is
a failed operation.

Each episode runs pinned to the CPU that is fastest just before it, and
its times are scaled by the speed of that CPU around it (see
``REFERENCE_PROBE_S``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced episodes and reports the
per-layer metrics (medians over the traced episodes) plus the tracing
overhead.  The last line of standard output is the JSON result; the
lines before it print every metric by name and unit, the error rate,
and the commit, Python version and ``nproc`` the result belongs to.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
EPISODE = os.path.join(HERE, "episode.py")
REFERENCES = os.path.join(HERE, "references.json")
#: Reference digests computed here for seeds without a committed record.
REFERENCE_CACHE = os.path.join(HERE, ".cache", "references.json")
OUT_DIR = os.path.join(HERE, ".out")

#: Whether a workload's inputs depend on the seed; a seed-independent
#: workload has one reference record for every seed.
SEEDED = {
    "java2xhtml-cold": False,
    "jbb2000-steady": True,
    "salarydb-serve": False,
}
MIN_EPISODES = 3
MIN_TRACED_PAIRS = 2
#: Everything, references included, must end within this many seconds.
TOTAL_BUDGET_S = 170.0
#: The printed (not gated) tail latency.
P95 = 0.95
#: Probe-loop time (:func:`probe_seconds`) of the reference host speed.
#: Every reported time is an episode's wall time scaled by
#: ``REFERENCE_PROBE_S / probe time around the episode``: seconds on a
#: host running the probe this fast.  Other tenants of a shared host
#: change its speed by up to 2x for minutes at a time, which unscaled
#: wall times carry from run to run.
REFERENCE_PROBE_S = 0.007


class EpisodeFailed(Exception):
    """An episode process crashed, timed out or printed no result."""


def child_env() -> dict[str, str]:
    """The caller's environment without ``JX_*`` toggles (the program
    runs with its defaults), with the checkout's ``src`` importable and
    a fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("JX_")}
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"
    return env


def probe_seconds(cpu: int) -> float:
    """Best of five timings of a fixed pure-Python loop on ``cpu``; this
    process stays pinned there."""
    os.sched_setaffinity(0, {cpu})
    best = math.inf
    for _ in range(5):
        t = time.perf_counter()
        sum(i * i % 7 for i in range(100_000))
        best = min(best, time.perf_counter() - t)
    return best


def pin_to_fastest_cpu(cpus: list[int]) -> tuple[int, float]:
    """Pin this process, and so the episode it starts next, to the CPU
    that runs the probe loop fastest right now; return the CPU and its
    probe time.  The vCPUs of a shared host can differ twofold in speed,
    which of them is slow changes within minutes, and a process the
    scheduler moves between them measures the move.  The serving clients
    share one CPU as they share the interpreter lock."""
    times = {cpu: probe_seconds(cpu) for cpu in cpus}
    cpu = min(times, key=times.get)
    os.sched_setaffinity(0, {cpu})
    return cpu, times[cpu]


def run_episode(args: list[str], timeout: float) -> dict[str, Any]:
    cmd = [sys.executable, EPISODE] + args
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise EpisodeFailed(f"timed out after {timeout:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise EpisodeFailed(f"exit {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


# -- reference outputs -------------------------------------------------------


def reference_key(workload: str, seed: int) -> str:
    return f"{workload}/{seed if SEEDED[workload] else '*'}"


def load_references() -> dict[str, Any]:
    """Committed records, overridden by records computed here."""
    refs: dict[str, Any] = {}
    for path in (REFERENCES, REFERENCE_CACHE):
        if os.path.exists(path):
            with open(path) as fh:
                refs.update(json.load(fh))
    return refs


def compute_reference(workload: str, seed: int, timeout: float) -> dict:
    """Run the operation sequence on the independent interpreter
    (untimed) and remember the digests for later runs."""
    rec = run_episode(["--workload", workload, "--seed", str(seed),
                       "--reference"], timeout)
    cache: dict[str, Any] = {}
    if os.path.exists(REFERENCE_CACHE):
        with open(REFERENCE_CACHE) as fh:
            cache = json.load(fh)
    cache[reference_key(workload, seed)] = rec
    os.makedirs(os.path.dirname(REFERENCE_CACHE), exist_ok=True)
    with open(REFERENCE_CACHE, "w") as fh:
        json.dump(cache, fh, indent=1, sort_keys=True)
    return rec


def count_failures(episode: dict[str, Any], reference: dict) -> int:
    """Operations that raised or whose output differs from the
    reference; operation ``i`` of an episode checks digest
    ``i mod len(reference)``."""
    digests = reference["digests"]
    failed = 0
    for i, op in enumerate(episode["ops"]):
        if op["error"] is not None or op["digest"] != digests[i % len(digests)]:
            failed += 1
    return failed


# -- aggregation ---------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def steady_ops(episodes: list[dict[str, Any]]) -> list[dict[str, Any]]:
    return [op for ep in episodes for op in ep["ops"] if not op["warmup"]]


def end_to_end(episodes: list[dict[str, Any]],
               scaled: bool = True) -> dict[str, float]:
    """Per-lifetime values are medians over the episodes; latency and
    throughput are medians over the steady (post-warm-up) operations of
    all of them.  Times are host-scaled unless ``scaled`` is false."""
    def k(ep: dict[str, Any]) -> float:
        return ep["host_scale"] if scaled else 1.0

    latencies = [op["seconds"] * k(ep)
                 for ep in episodes for op in steady_ops([ep])]
    # A closed loop of c clients completes c operations per latency.
    rates = [ep["clients"] * op["units"] / (op["seconds"] * k(ep))
             for ep in episodes for op in steady_ops([ep])]
    return {
        "plan_s": statistics.median(ep["plan_s"] * k(ep) for ep in episodes),
        "setup_s": statistics.median(ep["setup_s"] * k(ep)
                                     for ep in episodes),
        "run_s": statistics.median(ep["run_s"] * k(ep) for ep in episodes),
        "warmup_s": statistics.median(
            ep["ops"][0]["seconds"] * k(ep) for ep in episodes),
        "steady_tx_s": statistics.median(rates),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_p95_ms": 1000.0 * percentile(latencies, P95),
        "peak_rss_mb": statistics.median(ep["peak_rss_mb"]
                                         for ep in episodes),
    }


def per_layer(traced: list[dict[str, Any]], untraced: list[dict[str, Any]],
              spec: list[dict[str, Any]],
              sessions_failed: int) -> dict[str, float]:
    """Medians of each traced episode's layer metrics, times host-scaled
    (a layer the workload never enters reads 0), and the tracing
    overhead."""
    out = {
        m["name"]: statistics.median(
            ep["layers"].get(m["name"], 0.0)
            * (ep["host_scale"] if m["unit"] == "s" else 1.0)
            for ep in traced)
        for m in spec
    }

    def wall(eps: list[dict[str, Any]]) -> float:
        return statistics.median(ep["wall_s"] * ep["host_scale"]
                                 for ep in eps)

    out["trace.overhead_frac"] = wall(traced) / wall(untraced) - 1.0
    out["server.sessions_failed"] = float(sessions_failed)
    return out


def environment() -> dict[str, Any]:
    """What a result belongs to: commit (when the checkout is a git
    work tree), a digest of the program sources, Python and nproc."""
    commit = "unknown"
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    h = hashlib.sha256()
    for root, dirs, files in sorted(os.walk("src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(root, name)
            h.update(path.encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return {
        "commit": commit,
        "src_sha256": h.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


# -- main ------------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SEEDED))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    if not (os.path.isfile("BENCHMARK.json")
            and os.path.isfile(os.path.join("src", "repro", "__init__.py"))):
        print("perfbench: run from the root of a JxVM checkout "
              "(it needs BENCHMARK.json and src/repro)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    # Byte-compile the program once, untimed, so the first episode's
    # import does not pay for it.
    compileall.compile_dir("src", quiet=1)
    cpus = sorted(os.sched_getaffinity(0))

    def remaining() -> float:
        return TOTAL_BUDGET_S - (time.perf_counter() - start)

    errors: list[str] = []

    def fresh_reference() -> dict[str, Any]:
        try:
            return compute_reference(args.workload, args.seed, remaining())
        except EpisodeFailed as exc:
            # No reference: every operation counts as failed.
            errors.append(f"reference run failed: {exc}")
            return {"fingerprint": None, "digests": [None]}

    reference = load_references().get(
        reference_key(args.workload, args.seed)) or fresh_reference()

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    episodes: list[dict[str, Any]] = []
    attempted = failed = mismatched = 0
    measure_start = time.perf_counter()
    min_episodes = 2 * MIN_TRACED_PAIRS if args.trace else MIN_EPISODES
    while (len(episodes) + attempted < min_episodes
           or time.perf_counter() - measure_start < args.seconds):
        if remaining() <= 0:
            errors.append("time budget exhausted")
            attempted += 1
            failed += 1
            break
        traced = args.trace == 1 and len(episodes) % 2 == 1
        extra = ["--trace", "1", "--spans",
                 os.path.join(OUT_DIR, f"{stem}-ep{len(episodes)}.spans.json")
                 ] if traced else []
        cpu, probe_before = pin_to_fastest_cpu(cpus)
        try:
            ep = run_episode(common + extra, remaining())
        except EpisodeFailed as exc:
            errors.append(str(exc))
            attempted += 1
            failed += 1
            continue
        ep["cpu"] = cpu
        ep["host_scale"] = REFERENCE_PROBE_S / (
            (probe_before + probe_seconds(cpu)) / 2)
        if reference["fingerprint"] not in (None, ep["fingerprint"]):
            # The recorded reference was made from other inputs.
            reference = fresh_reference()
        episodes.append(ep)

    for ep in episodes:
        op_errors = [op["error"] for op in ep["ops"] if op["error"]]
        bad = count_failures(ep, reference)
        attempted += len(ep["ops"])
        failed += bad
        mismatched += bad - len(op_errors)
        errors.extend(op_errors)
    if mismatched:
        errors.append(f"{mismatched} outputs differ from the reference")
    untraced = [ep for ep in episodes if "layers" not in ep]
    traced_eps = [ep for ep in episodes if "layers" in ep]
    if args.trace:
        groups = {"per_layer": spec["per_layer"]}
        values = per_layer(
            traced_eps, untraced, spec["per_layer"],
            failed if args.workload == "salarydb-serve" else 0,
        ) if traced_eps and untraced else {}
    else:
        groups = {"end_to_end": spec["end_to_end"]}
        values = end_to_end(untraced) if untraced else {}

    env = environment()
    env["cpus"] = ",".join(str(ep["cpu"]) for ep in episodes)
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} episodes={len(episodes)} " +
          " ".join(f"{k}={v}" for k, v in env.items()))
    metrics = {}
    for group in groups.values():
        for m in group:
            if m["name"] in values:
                metrics[m["name"]] = {"value": values[m["name"]],
                                      "unit": m["unit"]}
                print(f"{m['name']:32s} {values[m['name']]:14.6g} "
                      f"{m['unit']}")
    if untraced and not args.trace:
        # Printed, not gated: the tail moves with slow spells of the host
        # by more than any bound a regression check could use.
        n = len(steady_ops(untraced))
        print(f"{'op_p95_ms':32s} {values['op_p95_ms']:14.6g} ms "
              f"(n={n}, {n - math.ceil(P95 * n)} beyond; not gated)")
        wall = end_to_end(untraced, scaled=False)
        print("# unscaled wall clock: " + " ".join(
            f"{m['name']}={wall[m['name']]:.6g}" for m in spec["end_to_end"]))
    print(f"{'error_rate':32s} {failed / max(1, attempted):14.6g} "
          f"({failed} of {attempted} operations failed)")
    for err in errors[:5]:
        print(f"# error: {err}")
    result = {
        "correct": failed == 0 and bool(episodes),
        "attempted": max(1, attempted),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"{stem}.json"), "w") as fh:
        json.dump({"env": env, "result": result, "episodes": episodes}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
