package core

// PointOps is the point-op contract every ordered-map backend serves, over
// value pointers: *Map and *Handle here, and the sharded router and its
// handle in internal/shard. The public facades write their by-value
// conversion once against it, and the shard router routes each op to a
// shard's PointOps.
type PointOps[V any] interface {
	Insert(k int64, v *V) bool
	Upsert(k int64, v *V) bool
	Remove(k int64) bool
	Lookup(k int64) (*V, bool)
	Contains(k int64) bool
	Floor(k int64) (int64, *V, bool)
	Ceiling(k int64) (int64, *V, bool)
	First() (int64, *V, bool)
	Last() (int64, *V, bool)
	ApplyBatch(ops []BatchOp[V]) []BatchResult
}

var (
	_ PointOps[int] = (*Map[int])(nil)
	_ PointOps[int] = (*Handle[int])(nil)
)

// Handle pins an operation context — and with it the search finger — to one
// caller. Map methods draw contexts from a shared LIFO pool, which keeps the
// finger sticky for a single-threaded caller but shuffles contexts (and thus
// fingers) between goroutines under concurrency. A Handle removes the
// shuffle: every operation through it reuses the same context, so locality in
// the caller's key sequence translates directly into finger hits.
//
// A Handle is NOT safe for concurrent use — it is a per-goroutine session
// object (the map itself remains fully concurrent; any number of handles can
// operate in parallel). Close returns the context to the pool; using a
// closed handle panics.
type Handle[V any] struct {
	m   *Map[V]
	ctx *opCtx[V]
}

// NewHandle pins a fresh operation context for a single-goroutine session.
func (m *Map[V]) NewHandle() *Handle[V] {
	return &Handle[V]{m: m, ctx: m.ctxs.get()}
}

// Close returns the pinned context (its hazard-pointer handle and finger
// included) to the map's pool. Close is idempotent.
func (h *Handle[V]) Close() {
	if h.ctx != nil {
		h.m.ctxs.put(h.ctx)
		h.ctx = nil
	}
}

// Lookup is Map.Lookup through the pinned context.
func (h *Handle[V]) Lookup(k int64) (*V, bool) {
	checkKey(k)
	return h.m.lookupCtx(h.ctx, k)
}

// Contains is Map.Contains through the pinned context.
func (h *Handle[V]) Contains(k int64) bool {
	_, found := h.Lookup(k)
	return found
}

// Insert is Map.Insert through the pinned context.
func (h *Handle[V]) Insert(k int64, v *V) bool {
	checkKey(k)
	return h.m.insertCtx(h.ctx, k, v)
}

// Remove is Map.Remove through the pinned context.
func (h *Handle[V]) Remove(k int64) bool {
	checkKey(k)
	return h.m.removeCtx(h.ctx, k)
}

// Upsert is Map.Upsert through the pinned context.
func (h *Handle[V]) Upsert(k int64, v *V) bool {
	checkKey(k)
	return h.m.upsertWithHeight(h.ctx, k, v, h.ctx.randomHeight())
}

// ApplyBatch is Map.ApplyBatch through the pinned context. Batches whose key
// runs fall where the previous operation finished resume from the finger,
// skipping even the one descent per group.
func (h *Handle[V]) ApplyBatch(ops []BatchOp[V]) []BatchResult {
	return h.m.applyBatchCtx(h.ctx, ops)
}

// Floor is Map.Floor through the pinned context.
func (h *Handle[V]) Floor(k int64) (int64, *V, bool) {
	checkKey(k)
	return h.m.floorCtx(h.ctx, k)
}

// Ceiling is Map.Ceiling through the pinned context.
func (h *Handle[V]) Ceiling(k int64) (int64, *V, bool) {
	checkKey(k)
	return h.m.ceilingCtx(h.ctx, k)
}

// First is Map.First through the pinned context.
func (h *Handle[V]) First() (int64, *V, bool) {
	return h.m.firstCtx(h.ctx)
}

// Last is Map.Last through the pinned context.
func (h *Handle[V]) Last() (int64, *V, bool) {
	return h.m.lastCtx(h.ctx)
}
