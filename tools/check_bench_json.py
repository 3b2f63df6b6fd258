#!/usr/bin/env python3
"""Validates the machine-readable benchmark output in bench_results/.

Every bench target built on TAGG_BENCH_MAIN() writes two files per run:

  bench_results/<bench>.json          google-benchmark timing output
  bench_results/<bench>.metrics.json  obs::MetricsRegistry snapshot

This script is the CI schema check: it parses both files and verifies the
minimal structure downstream tooling relies on.  No third-party
dependencies — stdlib json only.

Usage: tools/check_bench_json.py [bench_results_dir]
"""

import json
import pathlib
import re
import sys

THREAD_SUFFIX = re.compile(r"/threads:(\d+)$")

# The live-index bench must prove epoch reclamation is alive: these
# counters come from LiveIndexStats via the writer/ingest fixtures, and the
# registry totals from live/epoch.cc.  A refactor that silently drops them
# would leave reclamation regressions invisible, so their absence fails CI.
LIVE_ENTRY_COUNTERS = ("nodes_retired", "nodes_reclaimed", "retired_pending")
LIVE_METRIC_COUNTERS = (
    "tagg_live_nodes_retired_total",
    "tagg_live_nodes_reclaimed_total",
    "tagg_live_versions_published_total",
    "tagg_live_version_pins_total",
)
LIVE_METRIC_GAUGES = ("tagg_live_retired_pending",)

# The serving bench must cover both load dimensions: pipelining depth and
# connection count.  Its metrics snapshot must carry the serving-layer
# instruments so a refactor cannot silently drop them from the
# Prometheus exposition.
NET_DEPTH_ARG = re.compile(r"/depth:(\d+)")
NET_METRIC_COUNTERS = (
    "tagg_server_requests_total",
    "tagg_net_connections_total",
    "tagg_net_bytes_read_total",
    "tagg_net_bytes_written_total",
)
NET_METRIC_HISTOGRAMS = (
    "tagg_server_request_seconds",
    "tagg_executor_queue_wait_seconds",
)
NET_METRIC_GAUGES = ("tagg_executor_queue_depth",)

# The partitioned ablation must cover every phase-2 kernel family (the
# columnar kernel in both dispatch modes) and the compressed-spill
# series.  Dropping a family from the sweep would let a
# kernel regress invisibly; dropping the byte counters would blind the
# bench_compare spill gate.
PARTITIONED_KERNEL_FAMILIES = ("columnar-scalar", "columnar-simd")
PARTITIONED_SPILL_COUNTERS = (
    "spill_raw_bytes", "spill_encoded_bytes", "compression_ratio")
PARTITIONED_METRIC_COUNTERS = (
    "tagg_partitioned_spill_raw_bytes_total",
    "tagg_partitioned_spill_encoded_bytes_total",
    "tagg_partitioned_columnar_regions_total",
)
PARTITIONED_METRIC_HISTOGRAMS = (
    "tagg_partitioned_spill_compression_ratio",
)

# The shard-scaling bench must keep its shard sweep: the scatter family
# must cover several shard counts (each entry carrying a 'shards' counter
# matching its arg), and the metrics snapshot must include the router's
# scatter/rebalance instruments so a refactor cannot silently unhook the
# sharded service from the registry.
SHARD_ARG = re.compile(r"/shards:(\d+)")
SHARD_METRIC_COUNTERS = (
    "tagg_shard_ingest_routed_total",
    "tagg_shard_straddle_splits_total",
    "tagg_shard_scatter_total",
    "tagg_shard_scatter_subqueries_total",
    "tagg_shard_rebalance_total",
    "tagg_shard_rebalance_tuples_total",
)
SHARD_METRIC_GAUGES = ("tagg_shard_count", "tagg_shard_topology_version")

# The columnar-scan bench must keep the block-classification counters on
# every ColumnarScan entry (they are the evidence that zone-map pruning
# works), the point/narrow windows must actually skip >= 90% of the
# blocks, and the metrics snapshot must carry the scan's instruments.
COLUMNAR_BLOCK_COUNTERS = (
    "blocks_total", "blocks_skipped", "blocks_summarized",
    "blocks_decoded", "bytes_pruned", "bytes_decoded", "rows_decoded")
COLUMNAR_SKIP_LABELS = ("point", "narrow")
COLUMNAR_METRIC_COUNTERS = (
    "tagg_column_scan_scans_total",
    "tagg_column_scan_blocks_skipped_total",
    "tagg_column_scan_blocks_summarized_total",
    "tagg_column_scan_blocks_decoded_total",
    "tagg_column_scan_bytes_decoded_total",
    "tagg_column_scan_bytes_pruned_total",
)


def fail(msg: str) -> None:
    print(f"check_bench_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_thread_families(path: pathlib.Path, benchmarks: list) -> dict:
    """Validates the multi-threaded schema: every '/threads:N' entry names
    its thread count consistently, and a family that sweeps threads covers
    more than one count (a 'scaling' series with one point is a bug in the
    bench registration)."""
    families = {}
    for bench in benchmarks:
        if bench.get("run_type") == "aggregate":
            continue
        match = THREAD_SUFFIX.search(bench["name"])
        if not match:
            continue
        threads = int(match.group(1))
        if "threads" in bench and bench["threads"] != threads:
            fail(f"{path}: '{bench['name']}' reports threads="
                 f"{bench['threads']} but its name says {threads}")
        family = THREAD_SUFFIX.sub("", bench["name"])
        families.setdefault(family, set()).add(threads)
    for family, counts in sorted(families.items()):
        if len(counts) < 2:
            fail(f"{path}: thread family '{family}' has a single thread "
                 f"count {sorted(counts)} — a scaling sweep needs several")
    return families


def check_live_reclaim(path: pathlib.Path, benchmarks: list,
                       metrics: dict) -> None:
    """bench_live_index only: the concurrent-writer and ingest entries must
    carry the reclamation counters, and the metrics snapshot must include
    the COW engine's registry instruments."""
    carrying = [b for b in benchmarks
                if b.get("run_type") != "aggregate"
                and ("Concurrent" in b["name"] or "Ingest" in b["name"]
                     or "ReaderScaling" in b["name"])]
    if not carrying:
        fail(f"{path}: no concurrent/ingest benchmarks found — the "
             "reader-scaling sweep is part of the schema")
    for bench in carrying:
        for counter in LIVE_ENTRY_COUNTERS:
            if counter not in bench:
                fail(f"{path}: '{bench['name']}' is missing reclaim "
                     f"counter '{counter}'")
    for counter in LIVE_METRIC_COUNTERS:
        if counter not in metrics["counters"]:
            fail(f"{path}: metrics snapshot missing counter '{counter}'")
    for gauge in LIVE_METRIC_GAUGES:
        if gauge not in metrics["gauges"]:
            fail(f"{path}: metrics snapshot missing gauge '{gauge}'")


def check_net_serving(path: pathlib.Path, benchmarks: list,
                      metrics: dict) -> None:
    """bench_net_serving only: the pipelining sweep must cover several
    depths (each entry carrying its 'depth' counter), the connection
    sweep several thread counts (each carrying 'connections' equal to its
    thread count), and the metrics snapshot the serving instruments."""
    depths = set()
    for bench in benchmarks:
        if bench.get("run_type") == "aggregate":
            continue
        match = NET_DEPTH_ARG.search(bench["name"])
        if match:
            if "depth" not in bench:
                fail(f"{path}: '{bench['name']}' is missing its 'depth' "
                     "counter")
            depths.add(int(match.group(1)))
        thread_match = THREAD_SUFFIX.search(bench["name"])
        if thread_match and "Connections" in bench["name"]:
            threads = int(thread_match.group(1))
            if bench.get("connections") != threads:
                fail(f"{path}: '{bench['name']}' reports connections="
                     f"{bench.get('connections')}, expected {threads}")
    if len(depths) < 2:
        fail(f"{path}: pipelining family covers depths {sorted(depths)} — "
             "a depth sweep needs several")
    for counter in NET_METRIC_COUNTERS:
        if counter not in metrics["counters"]:
            fail(f"{path}: metrics snapshot missing counter '{counter}'")
    for hist in NET_METRIC_HISTOGRAMS:
        if hist not in metrics["histograms"]:
            fail(f"{path}: metrics snapshot missing histogram '{hist}'")
    for gauge in NET_METRIC_GAUGES:
        if gauge not in metrics["gauges"]:
            fail(f"{path}: metrics snapshot missing gauge '{gauge}'")


def check_partitioned_kernels(path: pathlib.Path, benchmarks: list,
                              metrics: dict) -> None:
    """bench_ablation_partitioned only: the kernel sweep must cover every
    kernel family (each entry labels itself '<family>/<aggregate>'), the
    SpillBytes series must carry the raw/encoded byte counters, and the
    metrics snapshot the spill instruments."""
    families = set()
    spill_entries = []
    for bench in benchmarks:
        if bench.get("run_type") == "aggregate":
            continue
        if "BM_Partitioned_Kernel/" in bench["name"]:
            label = bench.get("label", "")
            families.add(label.split("/")[0])
        if "BM_Partitioned_SpillBytes/" in bench["name"]:
            spill_entries.append(bench)
    missing = [f for f in PARTITIONED_KERNEL_FAMILIES if f not in families]
    if missing:
        fail(f"{path}: kernel sweep is missing families {missing} "
             f"(found {sorted(families)})")
    if not spill_entries:
        fail(f"{path}: no BM_Partitioned_SpillBytes entries — the "
             "compressed-spill series is part of the schema")
    for bench in spill_entries:
        for counter in PARTITIONED_SPILL_COUNTERS:
            if counter not in bench:
                fail(f"{path}: '{bench['name']}' is missing spill "
                     f"counter '{counter}'")
        if bench["spill_raw_bytes"] <= 0:
            fail(f"{path}: '{bench['name']}' spilled no bytes — the "
                 "series no longer exercises the spill path")
        if bench.get("label") == "compressed":
            if bench["compression_ratio"] < 1.0:
                fail(f"{path}: '{bench['name']}' compression ratio "
                     f"{bench['compression_ratio']:.2f} < 1.0 — the codec "
                     "is inflating spill data")
    for counter in PARTITIONED_METRIC_COUNTERS:
        if counter not in metrics["counters"]:
            fail(f"{path}: metrics snapshot missing counter '{counter}'")
    for hist in PARTITIONED_METRIC_HISTOGRAMS:
        if hist not in metrics["histograms"]:
            fail(f"{path}: metrics snapshot missing histogram '{hist}'")


def check_shard_scaling(path: pathlib.Path, benchmarks: list,
                        metrics: dict) -> None:
    """bench_shard_scaling only: the full-line scatter family must sweep
    several shard counts (each entry's 'shards' counter agreeing with its
    arg), and the metrics snapshot must carry the shard router's
    instruments."""
    scatter_counts = set()
    for bench in benchmarks:
        if bench.get("run_type") == "aggregate":
            continue
        match = SHARD_ARG.search(bench["name"])
        if not match:
            continue
        shards = int(match.group(1))
        if bench.get("shards") != shards:
            fail(f"{path}: '{bench['name']}' reports shards="
                 f"{bench.get('shards')}, expected {shards}")
        if "tuples" not in bench:
            fail(f"{path}: '{bench['name']}' is missing its 'tuples' "
                 "counter")
        if "ScatterOverAll" in bench["name"]:
            scatter_counts.add(shards)
    if len(scatter_counts) < 2:
        fail(f"{path}: scatter family covers shard counts "
             f"{sorted(scatter_counts)} — a scaling sweep needs several")
    for counter in SHARD_METRIC_COUNTERS:
        if counter not in metrics["counters"]:
            fail(f"{path}: metrics snapshot missing counter '{counter}'")
    for gauge in SHARD_METRIC_GAUGES:
        if gauge not in metrics["gauges"]:
            fail(f"{path}: metrics snapshot missing gauge '{gauge}'")


def check_columnar_scan(path: pathlib.Path, benchmarks: list,
                        metrics: dict) -> None:
    """bench_columnar_scan only: every ColumnarScan entry must carry the
    block-classification counters with a consistent total, the point and
    narrow windows must prune >= 90% of the blocks, the heap baseline
    family must be present for the speedup comparison, and the metrics
    snapshot must carry the scan instruments."""
    scan_entries = []
    heap_entries = 0
    for bench in benchmarks:
        if bench.get("run_type") == "aggregate":
            continue
        if "BM_ColumnarScan/" in bench["name"]:
            scan_entries.append(bench)
        if "BM_HeapTableScan/" in bench["name"]:
            heap_entries += 1
    if not scan_entries:
        fail(f"{path}: no BM_ColumnarScan entries")
    if heap_entries == 0:
        fail(f"{path}: no BM_HeapTableScan entries — the heap baseline "
             "is part of the schema")
    for bench in scan_entries:
        for counter in COLUMNAR_BLOCK_COUNTERS:
            if counter not in bench:
                fail(f"{path}: '{bench['name']}' is missing block "
                     f"counter '{counter}'")
        total = bench["blocks_total"]
        classified = (bench["blocks_skipped"] + bench["blocks_summarized"]
                      + bench["blocks_decoded"])
        if total <= 0:
            fail(f"{path}: '{bench['name']}' reports no blocks")
        if classified != total:
            fail(f"{path}: '{bench['name']}' classifies {classified} "
                 f"blocks but blocks_total={total}")
        label = bench.get("label", "")
        if label.split("/")[0] in COLUMNAR_SKIP_LABELS:
            # A narrow window always decodes the one or two blocks that
            # straddle its endpoints, so bound the *unskipped* blocks by
            # max(2, 10% of total) — at 256 blocks this is the ">=90%
            # skipped" acceptance gate, and at 16 blocks it still pins
            # the scan to the boundary blocks alone.
            unskipped = total - bench["blocks_skipped"]
            if unskipped > max(2, 0.1 * total):
                fail(f"{path}: '{bench['name']}' ({label}) skipped only "
                     f"{bench['blocks_skipped']}/{total} blocks — the "
                     "zone map no longer prunes narrow windows")
    for counter in COLUMNAR_METRIC_COUNTERS:
        if counter not in metrics["counters"]:
            fail(f"{path}: metrics snapshot missing counter '{counter}'")


def check_timings(path: pathlib.Path) -> int:
    with path.open() as f:
        doc = json.load(f)
    for key in ("context", "benchmarks"):
        if key not in doc:
            fail(f"{path}: missing top-level key '{key}'")
    if not isinstance(doc["benchmarks"], list) or not doc["benchmarks"]:
        fail(f"{path}: 'benchmarks' must be a non-empty list")
    for bench in doc["benchmarks"]:
        for key in ("name", "real_time", "time_unit"):
            if key not in bench:
                fail(f"{path}: benchmark entry missing '{key}': {bench}")
        if bench["real_time"] < 0:
            fail(f"{path}: negative real_time in {bench['name']}")
    check_thread_families(path, doc["benchmarks"])
    return len(doc["benchmarks"])


def check_metrics(path: pathlib.Path) -> int:
    with path.open() as f:
        doc = json.load(f)
    for key in ("counters", "gauges", "histograms"):
        if key not in doc or not isinstance(doc[key], dict):
            fail(f"{path}: missing or non-object '{key}'")
    for name, value in doc["counters"].items():
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: counter '{name}' must be a non-negative int")
    for name, value in doc["gauges"].items():
        if not isinstance(value, (int, float)):
            fail(f"{path}: gauge '{name}' must be numeric")
    for name, hist in doc["histograms"].items():
        for key in ("count", "sum", "buckets"):
            if key not in hist:
                fail(f"{path}: histogram '{name}' missing '{key}'")
        last = 0
        for bucket in hist["buckets"]:
            if "le" not in bucket or "count" not in bucket:
                fail(f"{path}: histogram '{name}' has a malformed bucket")
            if bucket["count"] < last:
                fail(f"{path}: histogram '{name}' buckets not cumulative")
            last = bucket["count"]
        if hist["buckets"] and hist["buckets"][-1]["le"] != "+Inf":
            fail(f"{path}: histogram '{name}' must end with a +Inf bucket")
        if hist["buckets"] and hist["buckets"][-1]["count"] != hist["count"]:
            fail(f"{path}: histogram '{name}' +Inf count != total count")
    return sum(len(doc[k]) for k in ("counters", "gauges", "histograms"))


def main() -> None:
    results = pathlib.Path(sys.argv[1] if len(sys.argv) > 1
                           else "bench_results")
    if not results.is_dir():
        fail(f"{results} does not exist — did the bench run?")
    timing_files = sorted(p for p in results.glob("*.json")
                          if not p.name.endswith(".metrics.json"))
    if not timing_files:
        fail(f"no timing JSON found in {results}")
    for timing in timing_files:
        n = check_timings(timing)
        metrics = timing.parent / (timing.stem + ".metrics.json")
        if not metrics.exists():
            fail(f"{metrics} missing next to {timing}")
        m = check_metrics(metrics)
        special = {
            "bench_live_index": check_live_reclaim,
            "bench_net_serving": check_net_serving,
            "bench_ablation_partitioned": check_partitioned_kernels,
            "bench_shard_scaling": check_shard_scaling,
            "bench_columnar_scan": check_columnar_scan,
        }
        if timing.stem in special:
            with timing.open() as f:
                timing_doc = json.load(f)
            with metrics.open() as f:
                metrics_doc = json.load(f)
            special[timing.stem](timing, timing_doc["benchmarks"],
                                 metrics_doc)
        print(f"check_bench_json: OK: {timing.name} "
              f"({n} benchmarks, {m} instruments)")


if __name__ == "__main__":
    main()
