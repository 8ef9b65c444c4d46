#!/usr/bin/env python3
"""Perf-regression gate over the benchmark JSONs.

Usage: bench_gate.py <baseline.json> <fresh.json>

Modes, auto-detected from the JSON shape:

* Kernel mode (``compiled_ns_per_delta`` present, from ``bench_kernels``):
  the fresh ns/delta must not regress more than the tolerance over the
  committed BENCH_kernels.json, on the random graph and (when both JSONs
  carry it) on the spouse-shaped graph, and the interpreted and compiled
  kernels must still agree bit-for-bit (``deltas_agree``) — a fast wrong
  kernel must not pass. The baseline records the slowest of its runs
  (all are listed in the file), as the incremental mode's does.

* Grounding mode (``speedup_Nt`` keys present, from
  ``bench_parallel_grounding``): the parallel grounder must still produce
  CRC-identical graphs (``graphs_identical``), and the serial-vs-parallel
  speedup at the largest thread count the fresh machine can actually
  exercise (``hardware_concurrency`` >= N) must not drop more than the
  tolerance below the baseline. The ratchet is *hard* (a failure) when
  the baseline itself was measured with the cores to back it, and
  additionally requires genuine speedup (>= 1.0x); when the baseline was
  recorded on an undersized machine the ratchet only warns, because the
  bar would compare against oversubscription noise. On single-core
  runners the speedup ratchet is skipped entirely but graph identity is
  still enforced.

* Scheduler mode (``recursive_speedup_4t`` present, from
  ``bench_scheduler``): recursive-strata grounding must stay
  CRC-identical to the serial oracle and the overlapped pipeline's
  marginals identical to the sequential schedule's — always, on any
  machine. On multicore runners the recursive speedup ratchets like
  grounding mode, and the overlapped pipeline must not run slower than
  the sequential schedule beyond the tolerance (``overlap_ratio``).

* Storage mode (``columnar_scan_speedup`` present, from
  ``bench_storage``): the columnar and row-store scans must produce
  bit-identical aggregates (``scans_agree``) and the mmap-loaded graph
  must serialize exactly like the text oracle (``graph_identical``) —
  always. The DESIGN.md §12 performance claims are absolute floors:
  columnar scan >= 2x the row store, mmap load >= 10x text parse,
  columnar memory below the row store. Ratios are single-threaded and
  machine-local, so the committed-baseline comparison only warns.

* Streaming mode (``streaming_mbps`` present, from ``bench_streaming``):
  the streamed tables must be CRC-identical to the sequential batch
  oracle (``tables_identical``) and the in-flight high-water mark must
  respect the byte budget (``budget_respected``) — always, on any
  machine. Single-worker MB/s has a wide absolute floor; the
  multi-worker scaling ratchets like grounding mode
  (``stream_speedup_Nt``), and the committed-baseline MB/s comparison
  only warns (machine-local throughput).

* Distributed mode (``one_shard_identical`` present, from
  ``bench_distributed``): the DESIGN.md §15 identities are unconditional
  — a 1-shard run must be bit-identical to the single-node sampler
  (``one_shard_identical``), and 2-/4-shard inference over a fixed model
  must stay within the 0.05 deviation ceiling of the single-node
  marginals (``inference_max_dev_{2,4}shard`` — deterministic per seed,
  machine-independent). The shard-speedup scaling ratchets like
  grounding mode (``shard_speedup_Nt``): hard on real multicore
  baselines, a warning when the baseline machine lacked the cores.

* Serving mode (``serving_qps`` present, from ``bench_serving``): the
  resilience identities of DESIGN.md §13 are unconditional — sampled
  responses bitwise-match the epoch they claim (``responses_consistent``),
  every issued request is answered or explicitly shed
  (``requests_accounted``, ``swap_dropped_requests == 0``), and no client
  ever observes an epoch id go backwards (``epochs_monotone``). Absolute
  floors with wide margin: sustained QPS >= 1000 and p99 <= 100 ms, both
  steady-state and with mid-run swaps. Throughput is machine-local, so
  the committed-baseline comparison only warns.

* Incremental mode (``total_speedup_2docs`` present, from
  ``bench_incremental_grounding``): every update size's DRed graph must
  have the factor, weight and live-variable counts of a fresh grounder
  over the final base tables (``counts_match``) — always. The 2-document
  total DRed-vs-reground speedup ratchets hard against the committed
  baseline: both sides are timed in one single-threaded process, so the
  ratio is machine-neutral enough to gate on any core count. The
  baseline records the slowest of its runs (all are listed in the file),
  since a shared host spreads them wider than the tolerance.

Every ratchet also emits a machine-greppable
``bench-gate: ratchet-summary: <label>=<hard|soft|skipped>`` line so
ci/check.sh can print a one-line digest of which bars actually gated
the run and which only warned.

Environment:
  DD_BENCH_GATE_SKIP=1        skip the gate entirely (exit 0); for noisy
                              or shared runners where timing is garbage.
  DD_BENCH_GATE_TOLERANCE     allowed fractional regression, default 0.15.
"""

import json
import os
import sys


def fail(msg: str) -> "int":
    print(f"bench-gate: FAIL: {msg}", file=sys.stderr)
    return 1


def summary(label: str, mode: str) -> None:
    """One greppable line per ratchet: did it gate (hard), only warn
    (soft), or not engage at all on this machine (skipped)?"""
    print(f"bench-gate: ratchet-summary: {label}={mode}")


def ratchet_speedup(baseline, fresh, tolerance, prefix, label, json_name) -> int:
    """Shared serial-vs-parallel speedup ratchet over ``<prefix>_Nt`` keys.

    Hard (failing, with a >= 1.0x floor) when the baseline machine had the
    cores to make its number real; a warning otherwise. Returns a gate
    exit code; 0 also covers the legitimately-skipped cases.
    """
    hw = int(fresh.get("hardware_concurrency", 1))
    if hw < 2:
        print(f"bench-gate: {label} speedup ratchet skipped (fresh machine "
              f"has {hw} core(s) — parallel timing would measure "
              f"oversubscription, not scaling)")
        summary(f"{label}-speedup", "skipped")
        return 0

    # Largest thread count both JSONs measured that the fresh machine can
    # genuinely run in parallel.
    gate_t = None
    for t in (8, 4, 2):
        key = f"{prefix}_{t}t"
        if key in baseline and key in fresh and t <= hw:
            gate_t = t
            break
    if gate_t is None:
        print(f"bench-gate: no common feasible {prefix}_Nt key; ratchet skipped")
        summary(f"{label}-speedup", "skipped")
        return 0

    key = f"{prefix}_{gate_t}t"
    base_speedup = float(baseline[key])
    fresh_speedup = float(fresh[key])
    base_hw = int(baseline.get("hardware_concurrency", 1))
    # Soft bar: an oversubscribed baseline number is noise, not a floor.
    hard = base_hw >= gate_t
    limit = base_speedup * (1.0 - tolerance)
    if hard:
        # A real multicore baseline also implies parallel must actually
        # win: never accept a sub-1.0x "speedup" however low the ratchet.
        limit = max(limit, 1.0)
    verdict = "OK" if fresh_speedup >= limit else (
        "REGRESSION" if hard else "WARN (soft: baseline undersized)")
    print(
        f"bench-gate: {label} speedup at {gate_t} threads "
        f"{fresh_speedup:.2f}x vs baseline {base_speedup:.2f}x on "
        f"{base_hw} core(s) (limit {limit:.2f}x, "
        f"{'hard' if hard else 'soft'}) -> {verdict}"
    )
    summary(f"{label}-speedup", "hard" if hard else "soft")
    if hard and fresh_speedup < limit:
        return fail(
            f"{label} speedup regressed: {fresh_speedup:.2f}x < "
            f"{limit:.2f}x (override with DD_BENCH_GATE_SKIP=1 or refresh "
            f"{json_name} if the change is intentional)"
        )
    return 0


def gate_grounding(baseline, fresh, tolerance) -> int:
    if fresh.get("graphs_identical") is not True:
        return fail("fresh run: parallel grounding produced a different graph "
                    "than the serial oracle (graphs_identical != true)")
    return ratchet_speedup(baseline, fresh, tolerance, "speedup",
                           "grounding", "BENCH_grounding.json")


def gate_scheduler(baseline, fresh, tolerance) -> int:
    # Identity is the contract, enforced on any machine.
    if fresh.get("graphs_identical") is not True:
        return fail("fresh run: recursive-strata grounding produced a "
                    "different graph than the serial oracle "
                    "(graphs_identical != true)")
    if fresh.get("marginals_identical") is not True:
        return fail("fresh run: overlapped pipeline produced different "
                    "marginals than the sequential schedule "
                    "(marginals_identical != true)")

    rc = ratchet_speedup(baseline, fresh, tolerance, "recursive_speedup",
                         "recursive-strata", "BENCH_scheduler.json")
    if rc != 0:
        return rc

    hw = int(fresh.get("hardware_concurrency", 1))
    base_hw = int(baseline.get("hardware_concurrency", 1))
    if hw < 2:
        print("bench-gate: overlap ratio check skipped (single-core runner)")
        summary("overlap-ratio", "skipped")
        return 0
    ratio = float(fresh.get("overlap_ratio", 1.0))
    hard = base_hw >= 2
    limit = 1.0 + tolerance
    verdict = "OK" if ratio <= limit else (
        "REGRESSION" if hard else "WARN (soft: baseline undersized)")
    print(f"bench-gate: pipeline overlap ratio {ratio:.3f} "
          f"(overlapped/sequential wall clock, limit {limit:.3f}, "
          f"{'hard' if hard else 'soft'}) -> {verdict}")
    summary("overlap-ratio", "hard" if hard else "soft")
    if hard and ratio > limit:
        return fail(
            f"overlapped pipeline is slower than the sequential schedule: "
            f"ratio {ratio:.3f} > {limit:.3f} (override with "
            f"DD_BENCH_GATE_SKIP=1 or refresh BENCH_scheduler.json if the "
            f"change is intentional)"
        )
    return 0


def gate_storage(baseline, fresh, tolerance) -> int:
    # Identity is the contract, enforced on any machine: a fast scan or
    # load that computes the wrong answer must not pass.
    if fresh.get("scans_agree") is not True:
        return fail("fresh run: columnar and row-store scans disagree "
                    "(scans_agree != true)")
    if fresh.get("graph_identical") is not True:
        return fail("fresh run: mmap-loaded graph differs from the text "
                    "oracle (graph_identical != true)")

    # Absolute floors — the claims DESIGN.md §12 makes, with margin far
    # beyond timing noise (measured ~4x / ~60x / 1.3x).
    floors = (
        ("columnar_scan_speedup", 2.0, False, "columnar scan vs row store"),
        ("mmap_load_speedup", 10.0, False, "mmap snapshot load vs text parse"),
        ("memory_reduction", 1.0, True, "row-store bytes / columnar bytes"),
    )
    for key, floor, strict, label in floors:
        value = float(fresh.get(key, 0.0))
        ok = value > floor if strict else value >= floor
        verdict = "OK" if ok else "REGRESSION"
        print(f"bench-gate: {label} {value:.2f}x (floor {floor:.1f}x) "
              f"-> {verdict}")
        if not ok:
            return fail(
                f"{label} fell to {value:.2f}x, below the {floor:.1f}x floor "
                f"(override with DD_BENCH_GATE_SKIP=1 or fix the regression)")

    # Baseline comparison: warn-only ratchet. These are single-threaded
    # ratios, so they travel across machines better than parallel
    # speedups, but a hard cross-machine bar would still be noise.
    for key, label in (("columnar_scan_speedup", "scan speedup"),
                       ("mmap_load_speedup", "load speedup")):
        if key not in baseline:
            continue
        base = float(baseline[key])
        value = float(fresh.get(key, 0.0))
        limit = base * (1.0 - tolerance)
        if value < limit:
            print(f"bench-gate: WARN: {label} {value:.2f}x is below the "
                  f"committed baseline {base:.2f}x - {tolerance * 100:.0f}% "
                  f"(soft: single-machine ratio)")
        else:
            print(f"bench-gate: {label} {value:.2f}x vs baseline "
                  f"{base:.2f}x -> OK")
    summary("storage-floors", "hard")
    summary("storage-baseline", "soft")
    return 0


def gate_distributed(baseline, fresh, tolerance) -> int:
    # Identity is the contract, enforced on any machine: one shard must
    # BE the single-node sampler, bit for bit — the wire protocol, the
    # shard worker, and the coordinator are all in that loop.
    if fresh.get("one_shard_identical") is not True:
        return fail("fresh run: 1-shard distributed run diverged bitwise "
                    "from the single-node sampler "
                    "(one_shard_identical != true)")

    # Sharded inference over a fixed model must track the single-node
    # marginals. These deviations are deterministic per seed (thread
    # launch mode, one worker per shard), so the ceiling holds on any
    # machine; a cut factor missing from a shard's conditionals shows up
    # here as a 0.15+ boundary bias.
    ceiling = 0.05
    for shards in (2, 4):
        key = f"inference_max_dev_{shards}shard"
        value = float(fresh.get(key, 1.0))
        ok = 0.0 <= value <= ceiling
        verdict = "OK" if ok else "REGRESSION"
        print(f"bench-gate: {shards}-shard inference max deviation "
              f"{value:.4f} (ceiling {ceiling:.2f}) -> {verdict}")
        if not ok:
            return fail(
                f"{shards}-shard marginals deviate {value:.4f} from the "
                f"single-node chain, past the {ceiling:.2f} ceiling "
                f"(override with DD_BENCH_GATE_SKIP=1 or fix the "
                f"regression)")
    summary("distributed-identity", "hard")

    # Shard scaling: same warn-then-harden, core-aware rule as the
    # grounding speedup ratchet.
    return ratchet_speedup(baseline, fresh, tolerance, "shard_speedup",
                           "distributed", "BENCH_distributed.json")


def gate_serving(baseline, fresh, tolerance) -> int:
    # Resilience identities are the contract, enforced on any machine: a
    # fast server that tears epochs or drops requests must not pass.
    identities = (
        ("responses_consistent",
         "served marginals differ bitwise from the epoch they claim"),
        ("requests_accounted",
         "requests vanished without an answer or an explicit shed"),
        ("epochs_monotone", "a client observed an epoch id go backwards"),
    )
    for key, why in identities:
        if fresh.get(key) is not True:
            return fail(f"fresh run: {why} ({key} != true)")
    dropped = int(fresh.get("swap_dropped_requests", -1))
    if dropped != 0:
        return fail(f"fresh run: {dropped} request(s) dropped across epoch "
                    "swaps (swap_dropped_requests != 0)")

    # Absolute floors, far beyond timing noise (measured ~50k qps /
    # sub-ms p99 even on a single Debug core).
    floors = (
        ("serving_qps", 1000.0, False, "steady-state QPS"),
        ("swap_qps", 1000.0, False, "QPS with mid-run swaps"),
        ("p99_ms", 100.0, True, "steady-state p99 latency (ms)"),
        ("swap_p99_ms", 100.0, True, "p99 latency with swaps (ms)"),
    )
    for key, bound, is_ceiling, label in floors:
        value = float(fresh.get(key, -1.0))
        ok = (0.0 <= value <= bound) if is_ceiling else value >= bound
        kind = "ceiling" if is_ceiling else "floor"
        verdict = "OK" if ok else "REGRESSION"
        print(f"bench-gate: {label} {value:.1f} ({kind} {bound:.0f}) "
              f"-> {verdict}")
        if not ok:
            return fail(
                f"{label} is {value:.1f}, past the {bound:.0f} {kind} "
                f"(override with DD_BENCH_GATE_SKIP=1 or fix the regression)")

    # Baseline comparison: warn-only ratchet (QPS is machine-local).
    for key, label in (("serving_qps", "steady QPS"),
                       ("swap_qps", "swap QPS")):
        if key not in baseline:
            continue
        base = float(baseline[key])
        value = float(fresh.get(key, 0.0))
        limit = base * (1.0 - tolerance)
        if value < limit:
            print(f"bench-gate: WARN: {label} {value:.0f} is below the "
                  f"committed baseline {base:.0f} - {tolerance * 100:.0f}% "
                  f"(soft: machine-local throughput)")
        else:
            print(f"bench-gate: {label} {value:.0f} vs baseline "
                  f"{base:.0f} -> OK")
    summary("serving-floors", "hard")
    summary("serving-baseline", "soft")
    return 0


def gate_streaming(baseline, fresh, tolerance) -> int:
    # Identity is the contract, enforced on any machine: a fast ingest
    # that reorders rows or blows the memory budget must not pass.
    if fresh.get("tables_identical") is not True:
        return fail("fresh run: streamed tables differ from the sequential "
                    "batch oracle (tables_identical != true)")
    if fresh.get("budget_respected") is not True:
        return fail("fresh run: in-flight bytes exceeded the byte budget "
                    "(budget_respected != true)")

    # Absolute floor with wide margin (measured ~90 MB/s on a single
    # Debug core): single-worker throughput is machine-local but a drop
    # below this is a structural regression, not noise.
    floor = 5.0
    value = float(fresh.get("streaming_mbps", 0.0))
    verdict = "OK" if value >= floor else "REGRESSION"
    print(f"bench-gate: single-worker ingest {value:.1f} MB/s "
          f"(floor {floor:.0f}) -> {verdict}")
    summary("streaming-floor", "hard")
    if value < floor:
        return fail(
            f"streaming ingest fell to {value:.1f} MB/s, below the "
            f"{floor:.0f} MB/s floor (override with DD_BENCH_GATE_SKIP=1 "
            f"or fix the regression)")

    # Multi-worker scaling: same warn-then-harden, core-aware rule as the
    # grounding speedup ratchet.
    rc = ratchet_speedup(baseline, fresh, tolerance, "stream_speedup",
                         "streaming", "BENCH_streaming.json")
    if rc != 0:
        return rc

    # Baseline comparison: warn-only ratchet (MB/s is machine-local).
    if "streaming_mbps" in baseline:
        base = float(baseline["streaming_mbps"])
        limit = base * (1.0 - tolerance)
        if value < limit:
            print(f"bench-gate: WARN: ingest {value:.1f} MB/s is below the "
                  f"committed baseline {base:.1f} - {tolerance * 100:.0f}% "
                  f"(soft: machine-local throughput)")
        else:
            print(f"bench-gate: ingest {value:.1f} MB/s vs baseline "
                  f"{base:.1f} -> OK")
    summary("streaming-baseline", "soft")
    return 0


def gate_incremental(baseline, fresh, tolerance) -> int:
    updates = fresh.get("updates", [])
    if fresh.get("counts_match") is not True or not updates or any(
            u.get("counts_match") is not True for u in updates):
        bad = [u.get("docs") for u in updates if u.get("counts_match") is not True]
        return fail("fresh run: incremental grounding disagrees with a fresh "
                    f"grounder on factor/weight/live-variable counts (docs {bad})")
    base = float(baseline["total_speedup_2docs"])
    got = float(fresh["total_speedup_2docs"])
    limit = base * (1.0 - tolerance)
    verdict = "OK" if got >= limit else "REGRESSION"
    print(f"bench-gate: DRed total speedup at 2 docs {got:.2f}x vs baseline "
          f"{base:.2f}x (limit {limit:.2f}x, hard) -> {verdict}")
    summary("incremental-speedup-2docs", "hard")
    if got < limit:
        return fail(f"DRed total speedup at 2 docs regressed: {got:.2f}x < "
                    f"{limit:.2f}x (override with DD_BENCH_GATE_SKIP=1 or refresh "
                    f"BENCH_incremental.json if the change is intentional)")
    return 0


def main(argv) -> int:
    if os.environ.get("DD_BENCH_GATE_SKIP") == "1":
        print("bench-gate: skipped (DD_BENCH_GATE_SKIP=1)")
        return 0
    if len(argv) != 3:
        return fail(f"usage: {argv[0]} <baseline.json> <fresh.json>")

    try:
        tolerance = float(os.environ.get("DD_BENCH_GATE_TOLERANCE", "0.15"))
    except ValueError:
        return fail("DD_BENCH_GATE_TOLERANCE is not a number")
    if tolerance < 0:
        return fail("DD_BENCH_GATE_TOLERANCE must be >= 0")

    try:
        with open(argv[1]) as f:
            baseline = json.load(f)
        with open(argv[2]) as f:
            fresh = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"cannot read benchmark JSON: {e}")

    baseline_incremental = "total_speedup_2docs" in baseline
    fresh_incremental = "total_speedup_2docs" in fresh
    if baseline_incremental != fresh_incremental:
        return fail("baseline and fresh JSONs are from different benchmarks")
    if baseline_incremental:
        return gate_incremental(baseline, fresh, tolerance)

    baseline_scheduler = "recursive_speedup_4t" in baseline
    fresh_scheduler = "recursive_speedup_4t" in fresh
    if baseline_scheduler != fresh_scheduler:
        return fail("baseline and fresh JSONs are from different benchmarks")
    if baseline_scheduler:
        return gate_scheduler(baseline, fresh, tolerance)

    baseline_storage = "columnar_scan_speedup" in baseline
    fresh_storage = "columnar_scan_speedup" in fresh
    if baseline_storage != fresh_storage:
        return fail("baseline and fresh JSONs are from different benchmarks")
    if baseline_storage:
        return gate_storage(baseline, fresh, tolerance)

    baseline_serving = "serving_qps" in baseline
    fresh_serving = "serving_qps" in fresh
    if baseline_serving != fresh_serving:
        return fail("baseline and fresh JSONs are from different benchmarks")
    if baseline_serving:
        return gate_serving(baseline, fresh, tolerance)

    baseline_distributed = "one_shard_identical" in baseline
    fresh_distributed = "one_shard_identical" in fresh
    if baseline_distributed != fresh_distributed:
        return fail("baseline and fresh JSONs are from different benchmarks")
    if baseline_distributed:
        return gate_distributed(baseline, fresh, tolerance)

    baseline_streaming = "streaming_mbps" in baseline
    fresh_streaming = "streaming_mbps" in fresh
    if baseline_streaming != fresh_streaming:
        return fail("baseline and fresh JSONs are from different benchmarks")
    if baseline_streaming:
        return gate_streaming(baseline, fresh, tolerance)

    baseline_grounding = "graphs_identical" in baseline
    fresh_grounding = "graphs_identical" in fresh
    if baseline_grounding != fresh_grounding:
        return fail("baseline and fresh JSONs are from different benchmarks")
    if baseline_grounding:
        return gate_grounding(baseline, fresh, tolerance)

    for doc, label in ((baseline, "baseline"), (fresh, "fresh")):
        if "compiled_ns_per_delta" not in doc:
            return fail(f"{label} JSON has no compiled_ns_per_delta")

    if fresh.get("deltas_agree") is not True:
        return fail("fresh run: interpreted and compiled kernels disagree")

    # The random graph always gates; the spouse-shaped graph gates once
    # both JSONs carry it.
    for key, label, tag in (
            ("compiled_ns_per_delta", "compiled kernel", "kernel-ns-per-delta"),
            ("spouse_compiled_ns_per_delta", "spouse-shaped kernel",
             "spouse-kernel-ns-per-delta")):
        if key not in baseline or key not in fresh:
            continue
        base_ns = float(baseline[key])
        fresh_ns = float(fresh[key])
        if base_ns <= 0:
            return fail(f"baseline {key} is non-positive: {base_ns}")

        limit_ns = base_ns * (1.0 + tolerance)
        ratio = fresh_ns / base_ns
        verdict = "OK" if fresh_ns <= limit_ns else "REGRESSION"
        print(
            f"bench-gate: {label} {fresh_ns:.2f} ns/delta vs baseline "
            f"{base_ns:.2f} ns/delta ({ratio:.2f}x, limit {limit_ns:.2f} at "
            f"+{tolerance * 100:.0f}%) -> {verdict}"
        )
        summary(tag, "hard")
        if fresh_ns > limit_ns:
            return fail(
                f"{label} regressed {ratio:.2f}x over baseline "
                f"(override with DD_BENCH_GATE_SKIP=1 or refresh BENCH_kernels.json "
                f"if the change is intentional)"
            )
    return 0

if __name__ == "__main__":
    sys.exit(main(sys.argv))
