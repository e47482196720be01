package skipvector

import "skipvector/internal/core"

// The by-value facade, written once. Every backend serves the pointer-valued
// point-op contract core.PointOps; the pieces below turn it into the public
// by-value API, and each facade embeds only the pieces it exposes:
//
//   - Map and ShardedMap embed mapFacade (point reads, point writes, scans
//     and RangeUpdate);
//   - Handle and ShardedHandle embed pointReads and pointWrites;
//   - DurableMap embeds pointReads and scans only, so every write it serves
//     is its own and reaches the log.

// backend is a whole map behind a facade: a core.Map or a shard.Sharded.
type backend[V any] interface {
	core.PointOps[V]
	Len() int
	Keys() []int64
	RangeQuery(lo, hi int64, fn func(k int64, v *V) bool)
	RangeUpdate(lo, hi int64, fn func(k int64, v *V) *V) int
	Ascend(fn func(k int64, v *V) bool)
}

// session is a pinned single-goroutine session on a backend: a core.Handle
// or a shard.Handle.
type session[V any] interface {
	core.PointOps[V]
	Close()
}

// deref converts a pointer-valued point read to the by-value API.
func deref[V any](p *V, ok bool) (V, bool) {
	if !ok {
		var zero V
		return zero, false
	}
	return *p, true
}

// unwrap converts a pointer-valued keyed read (Floor, Ceiling, First, Last,
// a cursor step) to the by-value API.
func unwrap[V any](k int64, p *V, ok bool) (int64, V, bool) {
	if !ok || p == nil {
		var zero V
		return 0, zero, false
	}
	return k, *p, true
}

// byValue adapts a by-value scan callback to the backends' pointer callback.
func byValue[V any](fn func(k int64, v V) bool) func(int64, *V) bool {
	return func(k int64, v *V) bool { return fn(k, *v) }
}

// toCoreOps copies a by-value batch into the backends' pointer form; each put
// gets its own copy of its value.
func toCoreOps[V any](ops []BatchOp[V]) []core.BatchOp[V] {
	cops := make([]core.BatchOp[V], len(ops))
	for i := range ops {
		op := &ops[i]
		cops[i] = core.BatchOp[V]{Key: op.Key, Del: op.Delete, InsertOnly: op.InsertOnly}
		if !op.Delete {
			v := op.Val
			cops[i].Val = &v
		}
	}
	return cops
}

// pointReads serves the by-value point reads of any backend or session.
type pointReads[V any] struct{ ops core.PointOps[V] }

// Lookup returns the value mapped to k.
func (r *pointReads[V]) Lookup(k int64) (V, bool) { return deref(r.ops.Lookup(k)) }

// Contains reports whether k is in the map.
func (r *pointReads[V]) Contains(k int64) bool { return r.ops.Contains(k) }

// Floor returns the largest key ≤ k and its value (ok=false when none).
func (r *pointReads[V]) Floor(k int64) (int64, V, bool) { return unwrap[V](r.ops.Floor(k)) }

// Ceiling returns the smallest key ≥ k and its value (ok=false when none).
func (r *pointReads[V]) Ceiling(k int64) (int64, V, bool) { return unwrap[V](r.ops.Ceiling(k)) }

// pointWrites serves the by-value point writes of any backend or session.
type pointWrites[V any] struct{ ops core.PointOps[V] }

// Insert adds the mapping k→v. It returns false (leaving the map unchanged)
// when k is already present.
func (w *pointWrites[V]) Insert(k int64, v V) bool { return w.ops.Insert(k, &v) }

// Upsert adds or replaces the mapping k→v, returning true when the key was
// newly inserted and false when an existing mapping was replaced.
func (w *pointWrites[V]) Upsert(k int64, v V) bool { return w.ops.Upsert(k, &v) }

// Remove deletes the mapping for k, returning whether it was present.
func (w *pointWrites[V]) Remove(k int64) bool { return w.ops.Remove(k) }

// ApplyBatch applies ops and returns one result per op, in request order.
// Ops commit in ascending key order (same-key ops in request order, last
// write wins), and every run of keys owned by one data chunk commits
// atomically under a single lock acquisition — on batches with spatial
// locality this amortizes one traversal and one lock round trip over the
// whole run, which is where the chunked layout beats issuing the ops one by
// one. The batch as a whole is not atomic: concurrent readers may observe a
// state between two chunk commits, but never a partially-applied chunk run.
//
// A ShardedMap partitions ops at shard boundaries, applies the parts in
// parallel and returns after every part committed; sorted ops partition
// zero-copy. Through a Handle, batches whose first keys land where the
// previous operation finished resume from the session's search finger; a
// ShardedHandle runs a batch confined to one shard on that shard's session.
func (w *pointWrites[V]) ApplyBatch(ops []BatchOp[V]) []BatchResult {
	return w.ops.ApplyBatch(toCoreOps(ops))
}

// scans serves the by-value ordered reads of a whole map.
type scans[V any] struct {
	b    backend[V]
	open func() session[V] // pins a session for a Cursor
}

// Len returns the number of mappings. On a ShardedMap it sums the shards and
// is linearizable only at quiescence.
func (s *scans[V]) Len() int { return s.b.Len() }

// Keys returns every key in ascending order. Intended for quiescent use
// (tests, debugging); concurrent callers should prefer RangeQuery.
func (s *scans[V]) Keys() []int64 { return s.b.Keys() }

// RangeQuery calls fn for every mapping with lo ≤ key ≤ hi in ascending key
// order. fn returning false stops early; fn must not call back into the map,
// because a scan that falls back to two-phase locking runs fn with locks held.
// On a Map or DurableMap the scan is one linearizable operation (reads never
// touch a DurableMap's log). A ShardedMap stitches the window shard by shard:
// each per-shard segment is linearizable, but a window crossing a boundary is
// not one atomic operation.
func (s *scans[V]) RangeQuery(lo, hi int64, fn func(k int64, v V) bool) {
	s.b.RangeQuery(lo, hi, byValue(fn))
}

// Ascend iterates all mappings in ascending key order, with RangeQuery's
// consistency. fn returning false stops early.
func (s *scans[V]) Ascend(fn func(k int64, v V) bool) { s.b.Ascend(byValue(fn)) }

// Min returns the smallest key and its value (ok=false when empty).
func (s *scans[V]) Min() (int64, V, bool) { return unwrap[V](s.b.First()) }

// Max returns the largest key and its value (ok=false when empty).
func (s *scans[V]) Max() (int64, V, bool) { return unwrap[V](s.b.Last()) }

// Cursor returns a stateful forward iterator positioned before the first
// key ≥ start. Unlike Ascend/RangeQuery — which read their whole window as
// one operation, under node locks when optimistic validation keeps failing
// — a cursor holds no locks between Next calls: each
// step is an independent linearizable successor query (Ceiling), so it can
// be long-lived, interleaved with arbitrary mutations, and crosses shard
// boundaries transparently. Keys inserted behind the cursor are not
// revisited; keys inserted ahead are seen.
//
// The cursor pins a session on first use (one per shard it touches on a
// ShardedMap), so its search finger tracks the scan: after the first Next,
// each step resumes at the data chunk the previous step finished on and
// walks at most one chunk right — no index descent. The session is released
// automatically when the scan is exhausted; call Close when abandoning a
// cursor mid-scan.
func (s *scans[V]) Cursor(start int64) *Cursor[V] {
	return &Cursor[V]{open: s.open, next: start}
}

// mapFacade is the by-value surface Map and ShardedMap share.
type mapFacade[V any] struct {
	pointReads[V]
	pointWrites[V]
	scans[V]
}

func newMapFacade[V any](b backend[V], open func() session[V]) mapFacade[V] {
	return mapFacade[V]{pointReads[V]{b}, pointWrites[V]{b}, scans[V]{b, open}}
}

// RangeUpdate replaces the value of every mapping with lo ≤ key ≤ hi by fn's
// return value and returns the number of mappings updated. fn must not call
// back into the map. On a Map it is one serializable operation; on a
// ShardedMap it is atomic per shard segment, not across the whole window.
func (f *mapFacade[V]) RangeUpdate(lo, hi int64, fn func(k int64, v V) V) int {
	return f.b.RangeUpdate(lo, hi, func(k int64, v *V) *V {
		nv := fn(k, *v)
		return &nv
	})
}

// Cursor is a forward iterator over a Map, ShardedMap or DurableMap. Not
// safe for concurrent use by multiple goroutines (the underlying map remains
// fully concurrent).
type Cursor[V any] struct {
	open func() session[V]
	h    session[V]
	next int64
	done bool
}

// ShardedCursor is the Cursor a ShardedMap returns.
type ShardedCursor[V any] = Cursor[V]

// Next advances to the next key ≥ the cursor position and returns it.
// ok=false means the scan is exhausted.
func (c *Cursor[V]) Next() (int64, V, bool) {
	if c.done {
		var zero V
		return 0, zero, false
	}
	if c.h == nil {
		c.h = c.open()
	}
	k, v, ok := unwrap[V](c.h.Ceiling(c.next))
	if !ok {
		c.Close()
		var zero V
		return 0, zero, false
	}
	if k == MaxKey-1 {
		c.Close() // cannot advance past the largest legal key
	} else {
		c.next = k + 1
	}
	return k, v, true
}

// SeekTo repositions the cursor before the first key ≥ start.
func (c *Cursor[V]) SeekTo(start int64) {
	c.next = start
	c.done = false
}

// Close releases the cursor's pinned session. It is called automatically
// when the scan is exhausted and is idempotent; only a cursor abandoned
// mid-scan needs an explicit Close. A closed cursor can be revived with
// SeekTo followed by Next.
func (c *Cursor[V]) Close() {
	if c.h != nil {
		c.h.Close()
		c.h = nil
	}
	c.done = true
}
