package skipvector

import (
	"fmt"
	"io"

	"skipvector/internal/core"
	"skipvector/internal/shard"
	"skipvector/internal/telemetry"
)

// ShardedMap is a concurrent ordered map partitioned by key range across N
// independent skip vectors behind a lock-free router. It trades the single
// map's global operations for scale-out: point operations on different
// shards share no synchronization state at all (separate chunks, seqlocks,
// hazard domains), so write-heavy multi-core workloads scale with the shard
// count instead of contending on one structure.
//
// Its point, scan and cursor methods are Map's, with the same by-value
// semantics. The differences are the consistency scope of multi-key
// operations and the missing Snapshot:
//
//   - Point operations (Insert/Upsert/Lookup/Remove/Floor/Ceiling) are
//     linearizable, exactly as on Map.
//   - ApplyBatch commits per shard: each shard's part is applied with the
//     core chunk-grouped batch (its per-chunk runs atomic), parts run in
//     parallel, and the call returns after all shards committed — but a
//     concurrent reader can observe some shards' parts before others.
//   - RangeQuery/RangeUpdate/Ascend windows crossing a shard boundary are
//     stitched from per-shard linearizable segments in key order; the whole
//     window is not one atomic operation.
//   - There is no sharded Snapshot: MVCC epochs are per shard, so pinning
//     all shards would not capture one point in time — a write racing the
//     pin loop could be visible in a later-pinned shard but invisible in an
//     earlier one. Use a single Map when point-in-time views are needed.
//
// Boundaries are not fixed at construction: SplitShard/MergeShards move
// them online (readers never block; writes into the moving range are
// briefly parked), and StartRebalancer runs a skew observer that does it
// automatically when per-shard load goes hot or cold. Point operations stay
// linearizable across a boundary move.
//
// Construct with NewSharded. All methods are safe for concurrent use.
type ShardedMap[V any] struct {
	mapFacade[V]
	s *shard.Sharded[V]
}

// EvenShardBounds returns interior split keys dividing [lo, hi) into the
// given number of near-equal key ranges — the bounds argument for NewSharded
// when keys are expected to be roughly uniform over a known interval. Keys
// outside [lo, hi) still route (to the first or last shard); only balance
// suffers.
func EvenShardBounds(lo, hi int64, shards int) []int64 {
	return shard.EvenBounds(lo, hi, shards)
}

// NewSharded builds a sharded map of len(splits)+1 shards, each configured
// with the paper's defaults modified by the given options. splits are the
// interior boundary keys, strictly ascending (see EvenShardBounds); an empty
// splits slice yields a single-shard map, useful as a baseline. Like New it
// panics on an invalid configuration.
//
//	m := skipvector.NewSharded[string](skipvector.EvenShardBounds(0, 1<<20, 8))
//	m.Upsert(42, "answer")        // routed to shard 0: one atomic load + binary search
//	v, ok := m.Lookup(42)
func NewSharded[V any](splits []int64, opts ...Option) *ShardedMap[V] {
	cfg := core.DefaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	s, err := shard.New[V](cfg, splits)
	if err != nil {
		panic(fmt.Sprintf("skipvector: %v", err))
	}
	return &ShardedMap[V]{mapFacade: newMapFacade[V](s, func() session[V] { return s.NewHandle() }), s: s}
}

// ShardCount returns the number of shards.
func (m *ShardedMap[V]) ShardCount() int { return m.s.ShardCount() }

// ShardBounds returns the interior boundary keys (a copy).
func (m *ShardedMap[V]) ShardBounds() []int64 { return m.s.Bounds() }

// ShardFor returns the index of the shard that owns k.
func (m *ShardedMap[V]) ShardFor(k int64) int { return m.s.ShardFor(k) }

// NewHandle pins a per-goroutine session: one core session per shard the
// caller touches, opened lazily, so key locality becomes search-finger hits
// inside the owning shard. Not safe for concurrent use; Close it.
func (m *ShardedMap[V]) NewHandle() *ShardedHandle[V] {
	h := m.s.NewHandle()
	return &ShardedHandle[V]{pointReads[V]{h}, pointWrites[V]{h}, h}
}

// ShardedHandle is a single-goroutine session over a ShardedMap. See
// ShardedMap.NewHandle.
type ShardedHandle[V any] struct {
	pointReads[V]
	pointWrites[V]
	h *shard.Handle[V]
}

// Close returns the session's resources. Idempotent.
func (h *ShardedHandle[V]) Close() { h.h.Close() }

// ShardStats reports each shard's internal event counters, indexed by shard.
func (m *ShardedMap[V]) ShardStats() []core.StatsSnapshot { return m.s.ShardStats() }

// RebalanceConfig tunes the skew observer: observation interval, hot/cold
// thresholds as multiples of the fair per-shard share, and floors that keep
// the planner from acting on noise. The zero value uses the defaults
// documented on each field.
type RebalanceConfig = shard.RebalanceConfig

// Migration reports what one online boundary move did: kind, pairs copied
// through the pinned snapshots, sealed-window reconcile fixes, how long the
// write redirect was in force, and the resulting bounds — or the step an
// injected abort stopped at.
type Migration = shard.Migration

// ShardLoadStat is one shard's standing in the current boundary table: ops
// routed to it since the table was published, and its current occupancy.
type ShardLoadStat = shard.ShardLoadStat

// ShardLoadStats samples each shard's op count and occupancy — the skew
// observer's input, exposed for external planners and diagnostics.
func (m *ShardedMap[V]) ShardLoadStats() []ShardLoadStat { return m.s.LoadStats() }

// SplitShard splits shard i at key online: keys below key stay left, keys
// at or above it go right, and the boundary table gains a split. Readers
// never block; writes into shard i's range are parked for the brief sealed
// window (micro- to milliseconds) while the final delta is reconciled.
func (m *ShardedMap[V]) SplitShard(i int, key int64) (Migration, error) {
	return m.s.SplitShard(i, key)
}

// MergeShards merges shards i and i+1 online, dropping the split between
// them. Same online protocol and blocking behavior as SplitShard.
func (m *ShardedMap[V]) MergeShards(i int) (Migration, error) { return m.s.MergeShards(i) }

// Rebalance runs one observe→plan→migrate pass: split the hottest shard at
// its occupancy median or merge the coldest adjacent pair, at most one move
// per call. It reports the migration and whether a move was attempted.
func (m *ShardedMap[V]) Rebalance(cfg RebalanceConfig) (Migration, bool, error) {
	return m.s.Rebalance(cfg)
}

// StartRebalancer runs Rebalance every cfg.Interval in a background
// goroutine until StopRebalancer. Starting twice is an error.
func (m *ShardedMap[V]) StartRebalancer(cfg RebalanceConfig) error { return m.s.StartRebalancer(cfg) }

// StopRebalancer stops the background skew observer and waits for it (any
// in-flight migration completes first). No-op when not running.
func (m *ShardedMap[V]) StopRebalancer() { m.s.StopRebalancer() }

// Metrics returns the combined metric catalog: the router's own instruments
// (sv_shard_count, fan-out counters), every shard's registry — each labeled
// shard="i" so same-named families export as distinct series — and the
// process-global instruments, as one exposable view.
func (m *ShardedMap[V]) Metrics() *telemetry.View { return m.s.Metrics() }

// WriteMetrics renders the combined catalog in Prometheus text exposition
// format.
func (m *ShardedMap[V]) WriteMetrics(w io.Writer) error { return m.s.WriteMetrics(w) }

// FlushRetired forces a reclamation scan on every shard. Tests and teardown.
func (m *ShardedMap[V]) FlushRetired() { m.s.FlushRetired() }

// CheckInvariants validates every shard's structure and the routing
// invariant (each shard holds only keys inside its boundary interval).
// Quiescent use only.
func (m *ShardedMap[V]) CheckInvariants() error { return m.s.CheckInvariants() }
