package shard

import "skipvector/internal/core"

// Handle is a per-goroutine session over the sharded map: it lazily pins one
// core handle per shard, so a caller with key locality gets the same search
// finger benefits a single-map Handle gives — the finger lives in the shard
// the caller's keys keep landing in. Like the core Handle it is NOT safe for
// concurrent use; open one per goroutine (the sharded map itself remains
// fully concurrent).
//
// A Handle caches the boundary table but REBINDS when a rebalance publishes
// a new one: every operation compares the cached table against the current
// pointer and, on a swap, re-keys its per-shard sessions to the new table —
// sessions over shards the migration did not touch survive with their search
// fingers intact; sessions over replaced shards are closed. Routing through
// a retired table would silently write into a frozen, unreferenced source
// map, so this check is what keeps handle writes linearizable across swaps.
//
// Its point ops are the router's, sourced from the rebound table and the
// pinned sessions. Batches confined to one shard run on that shard's pinned
// session (finger-resumable); batches that span shards fan out to the shard
// maps, whose parallel parts cannot share one session anyway.
type Handle[V any] struct {
	router[V]
	t      *table[V]
	shards []*core.Handle[V] // lazily opened, indexed by shard
}

// NewHandle opens a session against the current boundary table. Close it.
func (s *Sharded[V]) NewHandle() *Handle[V] {
	t := s.tab.Load()
	h := &Handle[V]{t: t, shards: make([]*core.Handle[V], len(t.maps))}
	h.router = router[V]{sh: s, src: h}
	return h
}

// Close releases every per-shard session. Idempotent.
func (h *Handle[V]) Close() {
	for i, sh := range h.shards {
		if sh != nil {
			sh.Close()
			h.shards[i] = nil
		}
	}
}

// current rebinds the cached table if a rebalance swapped it, carrying the
// open per-shard sessions of every map that survives into the new table
// (same *core.Map, possibly at a new index) and closing the sessions of maps
// the migration retired. Swaps are rare, so the quadratic carry-over scan is
// irrelevant; the common case is one pointer compare.
func (h *Handle[V]) current() *table[V] {
	cur := h.sh.tab.Load()
	if cur == h.t {
		return cur
	}
	old := h.shards
	oldMaps := h.t.maps
	h.shards = make([]*core.Handle[V], len(cur.maps))
	for i, m := range cur.maps {
		for j, om := range oldMaps {
			if om == m && old[j] != nil {
				h.shards[i] = old[j]
				old[j] = nil
				break
			}
		}
	}
	for _, sh := range old {
		if sh != nil {
			sh.Close()
		}
	}
	h.t = cur
	return cur
}

// shard returns the pinned session for shard i, opening it on first use: a
// caller whose keys stay inside one shard never pays for contexts in the
// others.
func (h *Handle[V]) shard(t *table[V], i int) core.PointOps[V] {
	if h.shards[i] == nil {
		h.shards[i] = t.maps[i].NewHandle()
	}
	return h.shards[i]
}
