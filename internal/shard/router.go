package shard

import "skipvector/internal/core"

// Point-op routing, written once. Sharded and Handle both serve the
// core.PointOps contract through an embedded router; they differ only in
// the router's source: where the boundary table comes from (the live
// pointer, or the handle's cache rebound to it) and where shard i's ops come
// from (the shard map, or the handle's pinned session on it).

// source supplies a router's boundary table and per-shard ops.
type source[V any] interface {
	// current returns the table to route against: the live one.
	current() *table[V]
	// shard returns shard i's ops in t, the table current just returned.
	shard(t *table[V], i int) core.PointOps[V]
}

// router routes point ops and batches to the shards of sh.
type router[V any] struct {
	sh  *Sharded[V]
	src source[V]
}

var (
	_ core.PointOps[int] = (*Sharded[int])(nil)
	_ core.PointOps[int] = (*Handle[int])(nil)
)

// writeEnter begins a gated write to key k: it enters the writer gate, then
// loads the table, then parks until the next swap if k lies in a sealed
// (migrating) range, and only then resolves k's shard and counts the op. The
// table must be loaded after the gate is entered, or a migration's drain
// could miss a write still holding the pre-seal table. On return the caller
// holds a gate reference — a concurrent migration's drain waits for it — and
// MUST call r.sh.gate.exit(gen, stripe) as soon as the shard write returns.
func (r *router[V]) writeEnter(k int64) (t *table[V], i int, gen uint64, stripe uint32) {
	stripe = stripeOf(k)
	for {
		gen = r.sh.gate.enter(stripe)
		t = r.src.current()
		if t.sealCovers(k) {
			// Exit before parking: the migrator's drain must not wait on a
			// writer that is itself waiting for the migrator's swap.
			r.sh.gate.exit(gen, stripe)
			r.sh.sealWaits.Add(1)
			<-t.swapped
			continue
		}
		i = t.indexOf(k)
		t.load[i].inc(k)
		return t, i, gen, stripe
	}
}

// read resolves k's shard for a read and counts the op. Reads never enter
// the gate (see gate.go).
func (r *router[V]) read(k int64) (*table[V], int) {
	t := r.src.current()
	i := t.indexOf(k)
	t.load[i].inc(k)
	return t, i
}

// Insert adds k→v to the owning shard; false when k is already present.
func (r *router[V]) Insert(k int64, v *V) bool {
	t, i, gen, stripe := r.writeEnter(k)
	ok := r.src.shard(t, i).Insert(k, v)
	r.sh.gate.exit(gen, stripe)
	return ok
}

// Upsert adds or replaces k→v; true when the key was newly inserted.
func (r *router[V]) Upsert(k int64, v *V) bool {
	t, i, gen, stripe := r.writeEnter(k)
	ok := r.src.shard(t, i).Upsert(k, v)
	r.sh.gate.exit(gen, stripe)
	return ok
}

// Remove deletes the mapping for k, reporting whether it was present.
func (r *router[V]) Remove(k int64) bool {
	t, i, gen, stripe := r.writeEnter(k)
	ok := r.src.shard(t, i).Remove(k)
	r.sh.gate.exit(gen, stripe)
	return ok
}

// Lookup returns the value mapped to k.
func (r *router[V]) Lookup(k int64) (*V, bool) {
	t, i := r.read(k)
	return r.src.shard(t, i).Lookup(k)
}

// Contains reports whether k is present.
func (r *router[V]) Contains(k int64) bool {
	t, i := r.read(k)
	return r.src.shard(t, i).Contains(k)
}

// Floor returns the largest key ≤ k and its value, searching the owning
// shard first and walking left across emptier shards as needed.
func (r *router[V]) Floor(k int64) (int64, *V, bool) {
	t, start := r.read(k)
	for i := start; i >= 0; i-- {
		if fk, v, ok := r.src.shard(t, i).Floor(k); ok {
			return fk, v, true
		}
	}
	return 0, nil, false
}

// Ceiling returns the smallest key ≥ k and its value, walking right from the
// owning shard.
func (r *router[V]) Ceiling(k int64) (int64, *V, bool) {
	t, start := r.read(k)
	for i := start; i < len(t.maps); i++ {
		if ck, v, ok := r.src.shard(t, i).Ceiling(k); ok {
			return ck, v, true
		}
	}
	return 0, nil, false
}

// First returns the smallest key and its value across all shards.
func (r *router[V]) First() (int64, *V, bool) {
	t := r.src.current()
	for i := range t.maps {
		if k, v, ok := r.src.shard(t, i).First(); ok {
			return k, v, true
		}
	}
	return 0, nil, false
}

// Last returns the largest key and its value across all shards.
func (r *router[V]) Last() (int64, *V, bool) {
	t := r.src.current()
	for i := len(t.maps) - 1; i >= 0; i-- {
		if k, v, ok := r.src.shard(t, i).Last(); ok {
			return k, v, true
		}
	}
	return 0, nil, false
}
