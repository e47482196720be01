package main

// The benchmark's catalogue. BENCHMARK.json at the repository root lists
// the same workloads and metrics (perfbench_test.go keeps the two in step);
// the moves column, which that file has no room for, lives here and is
// printed by -list.

type workloadInfo struct{ name, why string }

var workloads = []workloadInfo{
	{"point-uniform", "2^21 keys far beyond the LLC under uniform Lookup/Insert/Remove: descent and chunk search are cache-miss bound; finger, batch, router and log are bypassed"},
	{"ingest-durable", "DurableMap, preload and recovery on disk, live appends sunk: ApplyBatch of 64 ascending keys plus a window scan at the hot right edge; log encoding, group commit, batch path and finger dominate"},
}

type metricInfo struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening as a share of the parent's median
	moves              string  // per-layer only: the end-to-end metric and workload it should move
}

// No workload runs a ShardedMap: the router is measured by a replay through
// a one-shard shard.Sharded, and the shard.* migration figures by splitting
// that map at its median key and merging it back, on each workload's keys.

// The bounds are wide because run-to-run spread on a small shared host is
// wide: over ten seeds, throughput and p50 quartiles sit about 10% apart.
var endToEnd = []metricInfo{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "read_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "read_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "write_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "write_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "heap_bytes_per_key", unit: "B", better: "lower", bound: 0.05},
}

// migrationMoves is what every shard.* migration figure should move.
const migrationMoves = "none on these workloads; the read_p99_us and write_p99_us cost a rebalancing ShardedMap would pay to move this workload's keys"

var perLayer = []metricInfo{
	{name: "vectormap.search_ns", unit: "ns", better: "lower", moves: "read_p50_us and ops_s on point-uniform; flat on ingest-durable"},
	{name: "vectormap.update_ns", unit: "ns", better: "lower", moves: "ops_s on point-uniform; flat on ingest-durable"},
	{name: "core.lookup_ns", unit: "ns", better: "lower", moves: "ops_s and read_p50_us on point-uniform"},
	{name: "core.insert_ns", unit: "ns", better: "lower", moves: "ops_s and write_p50_us on point-uniform"},
	{name: "core.remove_ns", unit: "ns", better: "lower", moves: "ops_s and write_p50_us on point-uniform"},
	{name: "core.upsert_ns", unit: "ns", better: "lower", moves: "none on these workloads, which insert rather than upsert; the base of facade.upsert_ns"},
	{name: "core.batch64_ns_per_key", unit: "ns", better: "lower", moves: "ops_s and write_p50_us on ingest-durable"},
	{name: "core.range_ns_per_key", unit: "ns", better: "lower", moves: "ops_s and read_p50_us on ingest-durable"},
	{name: "core.restarts_per_kop", unit: "1/kop", better: "lower", moves: "write_p99_us on point-uniform"},
	{name: "core.splits_per_kop", unit: "1/kop", better: "lower", moves: "write_p99_us on point-uniform and heap_bytes_per_key"},
	{name: "core.merges_per_kop", unit: "1/kop", better: "lower", moves: "write_p99_us on point-uniform and heap_bytes_per_key"},
	{name: "hazard.reclaimed_ratio", unit: "ratio", better: "higher", moves: "heap_bytes_per_key and write_p99_us on point-uniform"},
	{name: "core.finger_hit_ratio", unit: "ratio", better: "higher", moves: "ops_s on ingest-durable; near 0 on point-uniform"},
	{name: "core.batch_descents_saved_ratio", unit: "ratio", better: "higher", moves: "ops_s on ingest-durable; 0 on point-uniform"},
	{name: "shard.route_ns", unit: "ns", better: "lower", moves: "none on these workloads, which do not route; the read_p50_us tax a ShardedMap deployment of point-uniform would pay"},
	{name: "shard.migrations", unit: "count", better: "lower", moves: migrationMoves},
	{name: "shard.rebalance_ms", unit: "ms", better: "lower", moves: migrationMoves},
	{name: "shard.seal_ms_max", unit: "ms", better: "lower", moves: migrationMoves},
	{name: "shard.keys_copied", unit: "count", better: "lower", moves: migrationMoves},
	{name: "shard.reconciled", unit: "count", better: "lower", moves: migrationMoves},
	{name: "shard.aborts", unit: "count", better: "lower", moves: migrationMoves},
	{name: "shard.count_final", unit: "count", better: "lower", moves: migrationMoves},
	{name: "wal.append_ns_per_record", unit: "ns", better: "lower", moves: "write_p50_us on ingest-durable"},
	{name: "wal.fsync_us", unit: "us", better: "lower", moves: "write_p50_us and write_p99_us on ingest-durable"},
	{name: "wal.group_commit_size", unit: "records/fsync", better: "higher", moves: "ops_s on ingest-durable"},
	{name: "wal.bytes_per_record", unit: "B", better: "lower", moves: "ops_s on ingest-durable"},
	{name: "wal.bytes_per_user_byte", unit: "ratio", better: "lower", moves: "ops_s and write_p50_us on ingest-durable"},
	{name: "wal.replay_ns_per_record", unit: "ns", better: "lower", moves: "setup_s on ingest-durable (recovery)"},
	{name: "facade.lookup_ns", unit: "ns", better: "lower", moves: "read_p50_us on point-uniform"},
	{name: "facade.upsert_ns", unit: "ns", better: "lower", moves: "none on these workloads; the wrapper tax on Upsert"},
	{name: "facade.durable_commit_ns_per_key", unit: "ns", better: "lower", moves: "write_p50_us on ingest-durable"},
	{name: "gc.alloc_bytes_per_op", unit: "B", better: "lower", moves: "read_p99_us and write_p99_us on every workload"},
	{name: "gc.pause_ms_total", unit: "ms", better: "lower", moves: "read_p99_us and write_p99_us on every workload"},
	{name: "gen.lag_p99_us", unit: "us", better: "lower", moves: "none: client validity, the p99 gap between one client's consecutive ops"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "higher", moves: "none: traced ops_s over untraced ops_s"},
}
