"""The padre benchmark's metric catalogue: the single source for every
metric's unit, direction, bound, the workloads that report it and, for a
per-layer metric, the end-to-end metric and workload it should move.

run.py checks each run's output against this catalogue, and
`python3 perfbench/catalog.py` prints the BENCHMARK.json it implies.
"""

import json

WORKLOADS = {
    "ingest": "paper headline traffic: sequential 64 KiB cpu-only writes of a "
              "vdbench 2.0/2.0 stream; SHA-1, bin index, LZ and CRC, no reads "
              "or journal",
    "restore": "uniform-random 64 KiB reads of a gpu-compress image 16x the "
               "read cache; fetch, CRC check and decode dominate",
    "churn": "OLTP mix on a journaled gpu-compress volume with FTL, group "
             "commit, checkpoints and GC; per-op fixed costs dominate",
    "tenants": "8 tenants on one VolumeService under an index budget; "
               "dispatch, the prioritized cache tier and deferred sweeps",
}
ALL = tuple(WORKLOADS)
WRITERS = ("ingest", "churn", "tenants")


def metric(name, unit, better, workloads=ALL, bound=None, det=False,
           moves=(), doc=""):
    """One catalogue entry. `det` marks values that are identical for a
    given seed (modelled time, counts, ratios); `moves` lists the
    (end-to-end metric, workload) pairs a per-layer metric should move."""
    return {"name": name, "unit": unit, "better": better,
            "workloads": list(workloads), "bound": bound, "det": det,
            "moves": [list(m) for m in moves], "doc": doc}


def on(metric_name, *workloads):
    return [(metric_name, w) for w in workloads]


# End-to-end metrics: untraced runs, every workload.
E2E = [
    metric("setup_s", "s", "lower", bound=0.25,
           doc="median over rounds of process start (round 0) or round start "
               "to the first timed op: generation, construction and, for "
               "restore, the image ingest"),
    metric("user_mbps", "MB/s", "higher", bound=0.25,
           doc="user bytes acknowledged (writes) or verified (reads) / host "
               "wall time of the timed phase incl. final flush, sync or sweep; "
               "median over rounds"),
    metric("ops_per_s", "op/s", "higher", bound=0.25,
           doc="completed client ops / host wall time; median over rounds"),
    metric("op_p50_us", "us", "lower", bound=0.25,
           doc="median host latency of a client op: writes until "
               "acknowledged (churn: until ackedSeq() covers them; tenants: "
               "until the dispatching pump() returns), reads per call; median "
               "over windows of 1000 consecutive ops"),
    metric("op_p90_us", "us", "lower", bound=0.25,
           doc="90th percentile of each 1000-op window (100 samples beyond "
               "it), median over windows. The p99 is per-layer "
               "(client.*_p99_us): on a shared host with fewer cores than "
               "the 8 pool threads it tracks scheduler wake-ups, and its "
               "run-to-run spread exceeds any bound"),
    metric("model_mbps", "MB/s", "higher", bound=0.1, det=True,
           doc="modelled throughput on the paper platform: user bytes / "
               "PipelineReport::WallSec for writers, "
               "ReadReport::ThroughputMBps for restore"),
    metric("stored_per_user_byte", "ratio", "lower", bound=0.15, det=True,
           doc="encoded bytes destaged / logical user bytes written"),
    metric("nand_per_user_byte", "ratio", "lower", bound=0.1, det=True,
           doc="NAND bytes programmed / logical user bytes written (churn: "
               "incl. journal, checkpoints and FTL GC)"),
    metric("peak_rss_mb", "MB", "lower", bound=0.15,
           doc="peak resident memory of the benchmark process"),
]

# Per-layer metrics: traced runs. A workload outside `workloads` reports 0.
PER_LAYER = [
    metric("chunk.split_ns_per_mb", "ns/MB", "lower",
           moves=on("user_mbps", "ingest"),
           doc="FixedChunker::split replay (predicted negligible)"),
    metric("hash.fingerprint_ns_per_chunk", "ns", "lower",
           moves=on("user_mbps", "ingest", "tenants") + on("op_p50_us", "ingest"),
           doc="Fingerprint::ofData (SHA-1) replay"),
    metric("hash.crc32c_ns_per_kib", "ns/KiB", "lower",
           moves=on("user_mbps", "ingest", "restore") + on("op_p50_us", "churn"),
           doc="crc32c replay"),
    metric("index.batch_ns_per_chunk", "ns", "lower",
           moves=on("user_mbps", "ingest"),
           doc="makeFingerprintIndex(...)->processBatch replay, one worker"),
    metric("index.dup_frac", "ratio", "higher", det=True,
           moves=on("stored_per_user_byte", "ingest", "tenants"),
           doc="duplicate chunks / logical chunks written"),
    metric("index.buffer_hit_frac", "ratio", "higher", det=True,
           moves=on("stored_per_user_byte", "ingest", "tenants"),
           doc="duplicates resolved in the bin buffer / duplicates"),
    metric("index.tree_hit_frac", "ratio", "lower", det=True,
           moves=on("stored_per_user_byte", "ingest", "tenants"),
           doc="duplicates resolved in the bin tree / duplicates"),
    metric("index.memory_mb", "MB", "lower", det=True,
           moves=on("peak_rss_mb", "ingest", "tenants"),
           doc="fingerprint index memory at the end of the timed phase"),
    metric("compress.lz_encode_ns_per_chunk", "ns", "lower",
           moves=on("user_mbps", "ingest"),
           doc="LzCodec(CpuMatcher)::compress replay"),
    metric("compress.lane_encode_ns_per_chunk", "ns", "lower",
           moves=on("op_p50_us", "churn") + on("user_mbps", "tenants")
           + on("setup_s", "restore"),
           doc="GpuLaneCompressor::runLanes + refine replay (functional GPU "
               "lanes run on the host CPU)"),
    metric("compress.decode_ns_per_chunk", "ns", "lower",
           moves=on("user_mbps", "restore") + on("op_p50_us", "restore"),
           doc="decodeBlock + decodeChunkPayload replay over stored blocks"),
    metric("compress.ratio", "ratio", "higher", det=True,
           moves=on("stored_per_user_byte", *ALL),
           doc="unique bytes / stored bytes"),
    metric("compress.raw_fallback_frac", "ratio", "lower", det=True,
           moves=on("stored_per_user_byte", *ALL),
           doc="unique chunks stored raw / unique chunks"),
    metric("core.write_cpu_ns_per_chunk", "ns", "lower",
           moves=on("user_mbps", "ingest"),
           doc="process CPU time of the write phase / chunks written "
               "(restore: the image ingest; churn: the whole timed phase)"),
    metric("core.unattributed_cpu_ns_per_chunk", "ns", "lower",
           moves=on("user_mbps", "ingest") + on("op_p50_us", "churn"),
           doc="write CPU per chunk minus the replayed layer costs: pool "
               "dispatch, copies, scheduler replay and the ledger"),
    metric("core.accounted_frac", "ratio", "higher",
           doc="replayed layer costs / write CPU per chunk; coverage of the "
               "replay, moves no end-to-end metric"),
    metric("core.gc_us_p50", "us", "lower", workloads=("churn",),
           moves=on("ops_per_s", "churn"),
           doc="host time of a collectGarbage call, median"),
    metric("core.gc_us_max", "us", "lower", workloads=("churn",),
           moves=on("ops_per_s", "churn"),
           doc="host time of the slowest collectGarbage call"),
    metric("core.gc_chunks", "count", "higher", workloads=("churn",), det=True,
           moves=on("stored_per_user_byte", "churn"),
           doc="chunks collectGarbage purged in the timed phase"),
    metric("core.revived_chunks", "count", "higher", workloads=("churn",),
           det=True, moves=on("stored_per_user_byte", "churn"),
           doc="dead chunks revived by a dedup hit in the timed phase"),
    metric("util.pool_parallelism", "ratio", "higher",
           moves=on("user_mbps", "ingest", "restore"),
           doc="process CPU seconds / wall seconds of the timed phase (8 "
               "pool threads on this host's cores)"),
    metric("restore.cache_hit_rate", "ratio", "higher",
           workloads=("restore", "churn"), det=True,
           moves=on("op_p50_us", "restore", "churn"),
           doc="ReadReport cache hits / chunk requests"),
    metric("restore.read_cpu_ns_per_chunk", "ns", "lower",
           workloads=("restore", "churn"),
           moves=on("user_mbps", "restore") + on("model_mbps", "restore"),
           doc="process CPU of the timed phase / chunks requested"),
    metric("restore.ssd_chunks_per_read", "count", "lower",
           workloads=("restore", "churn"), det=True,
           moves=on("user_mbps", "restore") + on("model_mbps", "restore"),
           doc="chunks fetched from flash per readBlocks call"),
    metric("restore.coalesced_runs", "count", "higher",
           workloads=("restore", "churn"), det=True,
           moves=on("user_mbps", "restore") + on("model_mbps", "restore"),
           doc="multi-chunk sequential SSD reads issued"),
    metric("restore.random_reads", "count", "lower",
           workloads=("restore", "churn"), det=True,
           moves=on("user_mbps", "restore") + on("model_mbps", "restore"),
           doc="single-chunk random SSD reads issued"),
    metric("restore.decode_cpu_batches", "count", "lower",
           workloads=("restore", "churn"), det=True,
           moves=on("user_mbps", "restore") + on("model_mbps", "restore"),
           doc="decode batches run on the CPU pool"),
    metric("restore.decode_gpu_batches", "count", "lower",
           workloads=("restore", "churn"), det=True,
           moves=on("user_mbps", "restore") + on("model_mbps", "restore"),
           doc="decode sub-batches run on the GPU lane kernel"),
    metric("restore.decode_warp_batches", "count", "lower",
           workloads=("restore", "churn"), det=True,
           moves=on("user_mbps", "restore") + on("model_mbps", "restore"),
           doc="decode sub-batches run on the warp kernel"),
    metric("journal.commits", "count", "lower", workloads=("churn",), det=True,
           moves=on("op_p50_us", "churn") + on("op_p90_us", "churn")
           + on("nand_per_user_byte", "churn"),
           doc="journal group commits in the timed phase"),
    metric("journal.bytes_per_user_byte", "ratio", "lower",
           workloads=("churn",), det=True,
           moves=on("op_p50_us", "churn") + on("nand_per_user_byte", "churn"),
           doc="journal bytes / user bytes written"),
    metric("journal.checkpoints", "count", "lower", workloads=("churn",),
           det=True, moves=on("ops_per_s", "churn")
           + on("nand_per_user_byte", "churn"),
           doc="checkpoints taken in the timed phase"),
    metric("journal.checkpoint_us_p50", "us", "lower", workloads=("churn",),
           moves=on("ops_per_s", "churn"),
           doc="host time of a checkpoint call, median"),
    metric("journal.checkpoint_us_max", "us", "lower", workloads=("churn",),
           moves=on("ops_per_s", "churn"),
           doc="host time of the slowest checkpoint call"),
    metric("journal.recover_s", "s", "lower", workloads=("churn",),
           doc="host time of recoverVolume from the run's journal and "
               "checkpoint into a fresh pipeline (restart cost, outside the "
               "timed phase); median over rounds"),
    metric("ssd.ftl_waf", "ratio", "lower", workloads=("churn",), det=True,
           moves=on("nand_per_user_byte", "churn"),
           doc="FTL measured write amplification"),
    metric("ssd.gc_pages", "count", "lower", workloads=("churn",), det=True,
           moves=on("nand_per_user_byte", "churn"),
           doc="pages the FTL relocated in the timed phase"),
    metric("ssd.erases", "count", "lower", workloads=("churn",), det=True,
           moves=on("nand_per_user_byte", "churn"),
           doc="FTL block erases in the timed phase"),
    metric("gpu.launches_per_mb", "1/MB", "lower", det=True,
           moves=on("model_mbps", "churn"),
           doc="modelled kernel launches / user MB of the timed phase (0 on "
               "cpu-only ingest)"),
    metric("sim.cpu_busy_s", "s", "lower", det=True,
           moves=on("model_mbps", *ALL),
           doc="modelled CPU-pool busy time of the timed phase"),
    metric("sim.gpu_busy_s", "s", "lower", det=True,
           moves=on("model_mbps", *ALL), doc="modelled GPU busy time"),
    metric("sim.pcie_busy_s", "s", "lower", det=True,
           moves=on("model_mbps", *ALL), doc="modelled PCIe busy time"),
    metric("sim.ssd_busy_s", "s", "lower", det=True,
           moves=on("model_mbps", *ALL), doc="modelled SSD busy time"),
    metric("sim.hidden_frac", "ratio", "higher", det=True,
           moves=on("model_mbps", *WRITERS),
           doc="scheduled lane occupancy hidden behind another lane / "
               "occupancy, write path (restore: its image ingest)"),
] + [
    metric("sim.stage.%s_s" % stage, "s", "lower", det=True,
           moves=on("model_mbps", *ws),
           doc="modelled time in padre's '%s' trace spans" % span)
    for stage, span, ws in (
        ("chunk", "chunk", WRITERS),
        ("dedup", "dedup", WRITERS),
        ("compress", "compress", WRITERS),
        ("destage", "destage", WRITERS),
        ("restore-fetch", "restore:fetch", ("restore",)),
        ("restore-decode", "restore:decode", ("restore",)),
        ("journal-commit", "journal:commit", ("churn",)),
        ("ckpt-write", "ckpt:write", ("churn",)),
        ("ftl-gc", "ftl:gc", ("churn",)))
] + [
    metric("service.pump_us_p50", "us", "lower", workloads=("tenants",),
           moves=on("user_mbps", "tenants"),
           doc="host time of a pump() call, median"),
    metric("service.sweep_s", "s", "lower", workloads=("tenants",),
           moves=on("user_mbps", "tenants"),
           doc="host time of all sweepDeferred() calls of a round"),
    metric("service.resident_tenants", "count", "higher",
           workloads=("tenants",), det=True,
           moves=on("user_mbps", "tenants")
           + on("stored_per_user_byte", "tenants"),
           doc="tenants inline-resident at the end of the timed phase"),
    metric("service.deferred_frac", "ratio", "lower", workloads=("tenants",),
           det=True, moves=on("user_mbps", "tenants")
           + on("stored_per_user_byte", "tenants"),
           doc="bytes dispatched raw (deferred dedup) / bytes dispatched"),
    metric("service.entries_expired", "count", "lower",
           workloads=("tenants",), det=True,
           moves=on("stored_per_user_byte", "tenants"),
           doc="transient index entries the sweeps expired"),
    metric("obs.trace_overhead_frac", "ratio", "lower",
           doc="1 - traced / untraced user_mbps, from alternating rounds of "
               "the traced run"),
    metric("client.write_p50_us", "us", "lower", workloads=WRITERS,
           moves=on("op_p50_us", *WRITERS),
           doc="client write latency until acknowledged, median"),
    metric("client.write_p99_us", "us", "lower", workloads=WRITERS,
           moves=on("op_p90_us", *WRITERS),
           doc="client write latency until acknowledged, 99th percentile; "
               "GC and checkpoint stalls on churn show here, not at p90"),
    metric("client.read_p50_us", "us", "lower",
           workloads=("restore", "churn"),
           moves=on("op_p50_us", "restore", "churn"),
           doc="client readBlocks latency, median"),
    metric("client.read_p99_us", "us", "lower",
           workloads=("restore", "churn"),
           moves=on("op_p90_us", "restore", "churn"),
           doc="client readBlocks latency, 99th percentile"),
    metric("client.op_samples", "count", "higher",
           doc="latency samples behind op_p50_us/op_p90_us (1000 per window, "
               "all measured rounds)"),
    metric("client.error_rate", "ratio", "lower",
           doc="failed or refused ops plus oracle mismatches / ops attempted"),
]


def benchmark_json():
    """The BENCHMARK.json this catalogue implies."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 10,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{k: m[k] for k in ("name", "unit", "better", "bound")}
                       for m in E2E],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")}
                      for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
