// Package skipvector provides a scalable concurrent ordered map — the skip
// vector of Rodriguez, Hassan and Spear, "Exploiting Locality in Scalable
// Ordered Maps" (ICDCS 2021).
//
// A skip vector is a skip list whose index and data layers are flattened
// into fixed-capacity vectors ("chunks"). Chunking at every layer gives the
// structure far better spatial locality than a skip list — each layer is
// traversed with a handful of cache-line fetches instead of per-element
// pointer chasing — while keeping the skip list's O(log n) expected cost,
// its freedom from rebalancing, and its scalability under concurrent
// access. Nodes are synchronized with sequence locks (readers are
// speculative and never block writers), and memory is reclaimed precisely
// with hazard pointers.
//
// Keys are int64 (excluding math.MinInt64 and math.MaxInt64, which are the
// internal sentinels); values are any Go type. All methods are safe for
// concurrent use:
//
//	m := skipvector.New[string]()
//	m.Insert(42, "answer")
//	v, ok := m.Lookup(42)         // "answer", true
//	m.RangeQuery(0, 100, func(k int64, v string) bool { ... })
//	m.Remove(42)
//
// The map follows the paper's set-style semantics: Insert fails (returns
// false) when the key is already present; use Upsert for overwrite
// semantics. Range operations are linearizable, including the mutating
// RangeUpdate, which runs under two-phase locking over the affected chunks.
// A read-only RangeQuery or Ascend validates optimistically instead: it
// copies its window, checks that no chunk in it changed, and runs its
// callback with no lock held, falling back to two-phase locking when
// validation keeps failing or the window is very long.
package skipvector

import (
	"fmt"
	"io"
	"runtime"

	"skipvector/internal/core"
	"skipvector/internal/telemetry"
)

// Key range limits: user keys must satisfy MinKey < k < MaxKey.
const (
	MinKey = core.MinKey
	MaxKey = core.MaxKey
)

// Option configures a Map at construction time.
type Option func(*core.Config)

// WithLayerCount sets the total layer count including the data layer
// (default 6). With the default chunk sizes, 6 layers cover ~32^5 ≈ 3.3·10^7
// expected elements; oversizing costs almost nothing because extra layers
// stay near-empty (Section V-B).
func WithLayerCount(n int) Option {
	return func(c *core.Config) { c.LayerCount = n }
}

// WithTargetDataVectorSize sets the expected data-chunk occupancy T_D
// (default 32; chunk capacity is 2×T_D).
func WithTargetDataVectorSize(n int) Option {
	return func(c *core.Config) { c.TargetDataVectorSize = n }
}

// WithTargetIndexVectorSize sets the expected index-chunk occupancy T_I
// (default 32).
func WithTargetIndexVectorSize(n int) Option {
	return func(c *core.Config) { c.TargetIndexVectorSize = n }
}

// WithMergeFactor sets the orphan-merge threshold as a multiple of the
// target chunk size (default 1.67, the paper's recommendation).
func WithMergeFactor(f float64) Option {
	return func(c *core.Config) { c.MergeFactor = f }
}

// WithSortedIndex selects sorted (true, default) or unsorted index chunks.
func WithSortedIndex(sorted bool) Option {
	return func(c *core.Config) { c.SortedIndex = sorted }
}

// WithSortedData selects sorted or unsorted (false, default) data chunks.
func WithSortedData(sorted bool) Option {
	return func(c *core.Config) { c.SortedData = sorted }
}

// WithHazardPointers enables (true, default) or disables precise memory
// reclamation. When disabled, unlinked nodes are left to the garbage
// collector ("Leak" configuration in the paper's evaluation).
func WithHazardPointers(enabled bool) Option {
	return func(c *core.Config) {
		if enabled {
			c.Reclaim = core.ReclaimHazard
		} else {
			c.Reclaim = core.ReclaimLeak
		}
	}
}

// WithSeed seeds the height-generation RNG streams (default is a fixed
// constant, so structures are reproducible).
func WithSeed(seed uint64) Option {
	return func(c *core.Config) { c.Seed = seed }
}

// WithSearchFinger enables (true, default) or disables the search finger: a
// per-session cache of the data chunk the previous operation finished on.
// When consecutive operations touch nearby keys — cursors, ascending loads,
// Zipfian traffic — the finger resolves them in O(1) at the data layer,
// skipping the index descent entirely; validation against the chunk's
// sequence lock falls back to the full descent whenever the chunk changed.
// ApplyBatch resumes each group from the finger too, so disabling it also
// makes every group descend. Disabling exists for ablation benchmarks and as
// an escape hatch.
func WithSearchFinger(enabled bool) Option {
	return func(c *core.Config) { c.DisableFinger = !enabled }
}

// Map is a concurrent ordered map from int64 keys to values of type V.
// The zero value is not usable; construct with New.
type Map[V any] struct {
	mapFacade[V]
	m *core.Map[V]
}

func newMap[V any](m *core.Map[V]) *Map[V] {
	return &Map[V]{mapFacade: newMapFacade[V](m, func() session[V] { return m.NewHandle() }), m: m}
}

// NewFromSorted bulk-loads a map from strictly ascending keys in O(n) with
// perfectly packed chunks — the fast path for building large indexes from
// pre-sorted data. vals must be the same length as keys.
func NewFromSorted[V any](keys []int64, vals []V, opts ...Option) (*Map[V], error) {
	if len(vals) != len(keys) {
		return nil, fmt.Errorf("skipvector: %d keys but %d values", len(keys), len(vals))
	}
	cfg := core.DefaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	ptrs := make([]*V, len(vals))
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	m, err := core.BulkLoad(cfg, keys, ptrs)
	if err != nil {
		return nil, err
	}
	return newMap(m), nil
}

// New builds an empty map with the paper's default configuration, modified
// by the given options. It panics on an invalid configuration (configuration
// is programmer-controlled; there is no runtime error path).
func New[V any](opts ...Option) *Map[V] {
	cfg := core.DefaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	m, err := core.NewMap[V](cfg)
	if err != nil {
		panic(fmt.Sprintf("skipvector: %v", err))
	}
	return newMap(m)
}

// BatchOp is one element of an ApplyBatch request: a put of Key→Val, or a
// delete of Key when Delete is set. InsertOnly makes a put succeed only when
// Key is absent (the existing value is left untouched and the op reports
// BatchExists); the zero value is an upsert.
type BatchOp[V any] struct {
	Key        int64
	Val        V
	Delete     bool
	InsertOnly bool
}

// BatchResult reports the outcome of one BatchOp, positionally aligned with
// the request slice.
type BatchResult = core.BatchResult

// BatchOutcome is the per-op outcome enum of ApplyBatch.
type BatchOutcome = core.BatchOutcome

// Per-op outcomes: puts report BatchInserted or BatchUpdated (BatchExists
// when InsertOnly found the key present), deletes report BatchRemoved or
// BatchAbsent.
const (
	BatchInserted = core.BatchInserted
	BatchUpdated  = core.BatchUpdated
	BatchRemoved  = core.BatchRemoved
	BatchAbsent   = core.BatchAbsent
	BatchExists   = core.BatchExists
)

// Snapshot pins the map's state at a single linearization point and returns
// an immutable read-only view of it. Acquisition is O(1) — nothing is copied
// up front; instead, writers that overlap a pinned snapshot publish chunk
// pre-images copy-on-write, so the snapshot's cost is proportional to the
// churn it overlaps, not to the map's size.
//
// Snapshot reads never block writers, and snapshot scans (Range, Ascend,
// Cursor) never restart no matter how much concurrent churn the live map
// sees — unlike the live map's RangeQuery/Ascend, which must validate their
// whole window at once and lock it when that keeps failing (as it does for
// long windows under writes), a snapshot scan is lock-free and can safely
// run for as long as it likes.
//
// Close must be called when done: a pinned snapshot retains the pre-image
// records and retired chunks it might still read. A snapshot that becomes
// garbage without Close is released by a finalizer and counted in the
// sv_snapshots_leaked_total metric; treat that as a bug in the caller, not a
// resource-management strategy.
func (m *Map[V]) Snapshot() *Snapshot[V] {
	s := &Snapshot[V]{s: m.m.Snapshot()}
	runtime.SetFinalizer(s, func(s *Snapshot[V]) { s.s.MarkLeaked() })
	return s
}

// Snapshot is an immutable point-in-time view of a Map, pinned at a single
// epoch. Safe for concurrent use by multiple goroutines. Using a snapshot
// after Close panics.
type Snapshot[V any] struct {
	s *core.Snapshot[V]
}

// Close releases the snapshot's pin, allowing the versions it was holding to
// be reclaimed. Idempotent.
func (s *Snapshot[V]) Close() {
	s.s.Close()
	runtime.SetFinalizer(s, nil)
}

// Epoch returns the internal epoch the snapshot is pinned at. Epochs are
// monotone across snapshots of one map; they are useful for diagnostics and
// for asserting snapshot ordering in tests.
func (s *Snapshot[V]) Epoch() uint64 { return s.s.Epoch() }

// Closed reports whether the snapshot has been released.
func (s *Snapshot[V]) Closed() bool { return s.s.Closed() }

// Get returns the value bound to k at the snapshot's point in time.
func (s *Snapshot[V]) Get(k int64) (V, bool) { return deref(s.s.Get(k)) }

// Contains reports whether k was present at the snapshot's point in time.
func (s *Snapshot[V]) Contains(k int64) bool { return s.s.Contains(k) }

// Range calls fn for every mapping with lo ≤ key ≤ hi at the snapshot's
// point in time, in ascending key order. fn returning false stops early.
func (s *Snapshot[V]) Range(lo, hi int64, fn func(k int64, v V) bool) {
	s.s.Range(lo, hi, byValue(fn))
}

// Ascend calls fn for every mapping in the snapshot in ascending key order.
func (s *Snapshot[V]) Ascend(fn func(k int64, v V) bool) {
	s.s.Ascend(byValue(fn))
}

// Len counts the snapshot's mappings with a full scan.
func (s *Snapshot[V]) Len() int { return s.s.Len() }

// Cursor returns a stateful forward iterator over the snapshot's mappings
// with keys ≥ start. Unlike a live-map Cursor — whose steps are independent
// successor queries against a moving target — a snapshot cursor iterates one
// frozen version: the sequence it returns is exactly the snapshot's content,
// regardless of concurrent writes. The cursor borrows the snapshot and must
// not outlive it; it is not safe for concurrent use.
func (s *Snapshot[V]) Cursor(start int64) *SnapshotCursor[V] {
	return &SnapshotCursor[V]{c: s.s.Cursor(start)}
}

// SnapshotCursor is a forward iterator over a Snapshot. See Snapshot.Cursor.
type SnapshotCursor[V any] struct {
	c *core.SnapCursor[V]
}

// Next returns the next mapping, or ok=false when the scan is exhausted.
func (c *SnapshotCursor[V]) Next() (int64, V, bool) {
	return unwrap[V](c.c.Next())
}

// NewHandle pins a per-goroutine session on the map. Map methods already
// benefit from the search finger when a single goroutine is active, but
// under concurrency the pooled per-operation contexts — and the fingers they
// carry — shuffle between goroutines. A Handle fixes one context to the
// caller, so locality in its key sequence reliably becomes finger hits
// (ascending loads, per-shard workers, time-series appenders).
//
// A Handle is not safe for concurrent use; create one per goroutine. Close
// it when the session ends to return its resources to the map.
func (m *Map[V]) NewHandle() *Handle[V] {
	h := m.m.NewHandle()
	return &Handle[V]{pointReads[V]{h}, pointWrites[V]{h}, h}
}

// Handle is a single-goroutine session over a Map with a pinned search
// finger. See Map.NewHandle.
type Handle[V any] struct {
	pointReads[V]
	pointWrites[V]
	h *core.Handle[V]
}

// Close returns the session's resources to the map. Idempotent; the handle
// must not be used afterwards.
func (h *Handle[V]) Close() { h.h.Close() }

// Stats reports internal event counters (restarts overall and per op kind,
// splits, merges, orphans, node allocation and reuse, hazard-domain
// retire/reclaim totals, finger hits and misses). The snapshot is tear-free:
// every field is a single atomic load, so it may be taken while other
// goroutines mutate the map.
func (m *Map[V]) Stats() core.StatsSnapshot { return m.m.Stats() }

// Occupancy walks the structure and reports chunk-fill aggregates per layer
// class — the paper's locality argument made measurable. Approximate while
// mutators run; exact at quiescence.
func (m *Map[V]) Occupancy() core.OccupancySnapshot { return m.m.Occupancy() }

// Metrics returns the map's full metric catalog (its per-instance registry
// combined with the process-global seqlock/vectormap instruments) as a view
// that renders Prometheus text exposition via WritePrometheus and
// expvar-compatible JSON via String — so expvar.Publish("skipvector",
// m.Metrics()) exposes everything on /debug/vars.
//
// Most metrics are always-on; the hot-path instruments (descent depths, spin
// counts, shift distances, freeze counts) record only while telemetry
// collection is enabled — see SetTelemetry.
func (m *Map[V]) Metrics() *telemetry.View { return m.m.Metrics() }

// WriteMetrics renders the full metric catalog in Prometheus text exposition
// format.
func (m *Map[V]) WriteMetrics(w io.Writer) error { return m.m.WriteMetrics(w) }

// SetTelemetry turns hot-path metric recording on or off (process-wide,
// default off). Disabled, every instrumented site costs one atomic load and
// a predicted branch; see BenchmarkTelemetryOnOff for the measured gap.
func SetTelemetry(on bool) { telemetry.SetEnabled(on) }

// TelemetryEnabled reports whether hot-path metric recording is on.
func TelemetryEnabled() bool { return telemetry.Enabled() }

// FlushRetired forces a hazard-pointer reclamation scan on every pooled
// session. At quiescence — no operations in flight, all handles and cursors
// closed — it drains pending retired nodes to zero. Intended for tests and
// controlled teardown.
func (m *Map[V]) FlushRetired() { m.m.FlushRetired() }

// CheckInvariants validates the whole structure. Quiescent use only.
func (m *Map[V]) CheckInvariants() error { return m.m.CheckInvariants() }
