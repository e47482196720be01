package shard

import (
	"sync"

	"skipvector/internal/core"
)

// ApplyBatch partitions ops at shard boundaries and applies each part with
// the owning shard's chunk-grouped ApplyBatch, returning outcomes
// positionally aligned with the request slice.
//
// A batch confined to one shard runs on the source's ops for that shard (a
// Handle's pinned session, so it resumes from the search finger). Otherwise
// partitioning is zero-copy when the ops arrive sorted by key (the common
// case — callers that batch usually batch sorted runs): shard indices are
// then non-decreasing, so each part is a contiguous subslice of ops and the
// result subslices land directly in the right positions. Unsorted ops fall
// back to bucketing with an index map and a result scatter.
//
// Parts run in parallel on the shard maps, one goroutine per non-resident
// part with the first part applied inline, and ApplyBatch returns only after
// every part has committed (the all-shards commit barrier). Same-key ops
// cannot span shards, so per-key last-write-wins order is exactly the core
// map's. Atomicity is per shard: each part linearizes as the owning shard's
// ApplyBatch does (per-chunk groups), but a concurrent reader can observe a
// state where some shards have committed their parts and others have not.
// Callers needing a cross-shard atomic batch must align it to one shard.
//
// The whole batch runs inside one writer-gate reference, entered before the
// table is loaded: a concurrent migration drains it like any point write,
// and a batch touching a sealed range parks until the successor table lands,
// then re-routes against it.
func (r *router[V]) ApplyBatch(ops []core.BatchOp[V]) []core.BatchResult {
	if len(ops) == 0 {
		return nil
	}
	stripe := stripeOf(ops[0].Key)
	for {
		gen := r.sh.gate.enter(stripe)
		t := r.src.current()
		if t.seal != nil && batchSealed(t, ops) {
			r.sh.gate.exit(gen, stripe)
			r.sh.sealWaits.Add(1)
			<-t.swapped
			continue
		}
		res := r.applyBatchOn(t, ops)
		r.sh.gate.exit(gen, stripe)
		return res
	}
}

// batchSealed reports whether any op routes into t's sealed range.
func batchSealed[V any](t *table[V], ops []core.BatchOp[V]) bool {
	for i := range ops {
		if t.sealCovers(ops[i].Key) {
			return true
		}
	}
	return false
}

// applyBatchOn routes and applies ops against a specific table. The caller
// holds a gate reference and has verified no op is sealed.
func (r *router[V]) applyBatchOn(t *table[V], ops []core.BatchOp[V]) []core.BatchResult {
	// One routing pass decides the partition shape: sorted input keeps shard
	// indices non-decreasing and admits the contiguous fast path.
	first := t.indexOf(ops[0].Key)
	contiguous := true
	spans := first
	prev := first
	for i := 1; i < len(ops); i++ {
		si := t.indexOf(ops[i].Key)
		if si < prev {
			contiguous = false
			break
		}
		if si != prev {
			spans = si
			prev = si
		}
	}
	if contiguous && spans == first {
		// Every op routes to one shard: no fan-out, no barrier.
		r.sh.singleBatch.Add(1)
		t.load[first].add(ops[0].Key, int64(len(ops)))
		return r.src.shard(t, first).ApplyBatch(ops)
	}

	results := make([]core.BatchResult, len(ops))
	if contiguous {
		r.sh.applyContiguous(t, ops, results)
	} else {
		r.sh.applyScattered(t, ops, results)
	}
	return results
}

// applyContiguous fans out contiguous subslices of ops: part boundaries are
// found by routing, each part shares the caller's backing array, and each
// part's results are written straight into the aligned results window.
func (s *Sharded[V]) applyContiguous(t *table[V], ops []core.BatchOp[V], results []core.BatchResult) {
	type part struct {
		shard  int
		lo, hi int // ops[lo:hi]
	}
	var parts []part
	lo := 0
	cur := t.indexOf(ops[0].Key)
	for i := 1; i < len(ops); i++ {
		if si := t.indexOf(ops[i].Key); si != cur {
			parts = append(parts, part{cur, lo, i})
			lo, cur = i, si
		}
	}
	parts = append(parts, part{cur, lo, len(ops)})
	s.fanouts.Add(1)
	s.fanoutParts.Add(int64(len(parts)))
	for _, p := range parts {
		t.load[p.shard].add(ops[p.lo].Key, int64(p.hi-p.lo))
	}

	var wg sync.WaitGroup
	for _, p := range parts[1:] {
		wg.Add(1)
		go func(p part) {
			defer wg.Done()
			copy(results[p.lo:p.hi], t.maps[p.shard].ApplyBatch(ops[p.lo:p.hi]))
		}(p)
	}
	// The first part runs inline: the calling goroutine is a worker too, so a
	// two-shard batch spawns one goroutine, not two.
	p := parts[0]
	copy(results[p.lo:p.hi], t.maps[p.shard].ApplyBatch(ops[p.lo:p.hi]))
	wg.Wait()
}

// applyScattered buckets unsorted ops by shard, preserving request order
// inside each bucket — the core ApplyBatch sorts stably, so per-key request
// order survives the detour — and scatters each part's results back through
// the recorded original indices.
func (s *Sharded[V]) applyScattered(t *table[V], ops []core.BatchOp[V], results []core.BatchResult) {
	n := len(t.maps)
	bucketOps := make([][]core.BatchOp[V], n)
	bucketIdx := make([][]int, n)
	for i, op := range ops {
		si := t.indexOf(op.Key)
		bucketOps[si] = append(bucketOps[si], op)
		bucketIdx[si] = append(bucketIdx[si], i)
	}
	parts := 0
	for si := 0; si < n; si++ {
		if len(bucketOps[si]) > 0 {
			t.load[si].add(bucketOps[si][0].Key, int64(len(bucketOps[si])))
			parts++
		}
	}
	s.fanouts.Add(1)
	s.fanoutParts.Add(int64(parts))

	var wg sync.WaitGroup
	inline := -1
	for si := 0; si < n; si++ {
		if len(bucketOps[si]) == 0 {
			continue
		}
		if inline < 0 {
			inline = si
			continue
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			for j, r := range t.maps[si].ApplyBatch(bucketOps[si]) {
				results[bucketIdx[si][j]] = r
			}
		}(si)
	}
	for j, r := range t.maps[inline].ApplyBatch(bucketOps[inline]) {
		results[bucketIdx[inline][j]] = r
	}
	wg.Wait()
}
