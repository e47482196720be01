package core

import "skipvector/internal/seqlock"

// Range operations (Section V-B, Figure 8). Because the skip vector is
// lock-based, serializable range operations fall out of two-phase locking:
// the operation locks every data node spanning [lo,hi], applies its
// function, and only then releases. Mutating and read-only range operations
// are both linearizable; concurrent point operations either complete before
// the range takes its locks or are forced to restart and observe its result.

// RangeQuery calls fn for every mapping with lo ≤ key ≤ hi, in ascending key
// order. fn returning false stops the iteration early (locks are still
// released properly). fn must not call back into the map.
func (m *Map[V]) RangeQuery(lo, hi int64, fn func(k int64, v *V) bool) {
	if lo > hi {
		return
	}
	m.lockedRange(lo, hi, false, func(k int64, v *V) (*V, bool) {
		return v, fn(k, v)
	})
}

// RangeUpdate calls fn for every mapping with lo ≤ key ≤ hi in ascending key
// order and replaces each value with fn's return. It returns the number of
// mappings visited. The whole update is a single serializable operation.
func (m *Map[V]) RangeUpdate(lo, hi int64, fn func(k int64, v *V) *V) int {
	if lo > hi {
		return 0
	}
	count := 0
	m.lockedRange(lo, hi, true, func(k int64, v *V) (*V, bool) {
		count++
		return fn(k, v), true
	})
	return count
}

// Ascend iterates every mapping in ascending key order under range locks.
func (m *Map[V]) Ascend(fn func(k int64, v *V) bool) {
	m.RangeQuery(MinKey+1, MaxKey-1, fn)
}

// rangeScratch holds lockedRange's working buffers. Contexts are pooled,
// so a range op allocates nothing for its window or its ordered node copies
// once the buffers have grown; lockedRange clears them after release so a
// pooled context pins no nodes or values.
//
// A window longer than maxPooledWindow nodes is not kept: a full-map
// Ascend would otherwise leave every pooled context holding a buffer as
// long as the data layer. Such an op locks at least that many nodes, so
// allocating its window is a negligible share of its cost.
type rangeScratch[V any] struct {
	window []*node[V]
	keys   []int64
	vals   []*V
}

const maxPooledWindow = 1024

// lockedRange implements both range operations. It descends optimistically
// to the data node owning lo, upgrades to a write lock, and then extends the
// locked window rightward hand-over-hand until the node minima exceed hi.
// All locks are held until the function has been applied everywhere (strict
// two-phase locking); read-only ranges release with Abort so that concurrent
// optimistic readers of untouched nodes stay valid.
func (m *Map[V]) lockedRange(lo, hi int64, mutate bool, fn func(k int64, v *V) (*V, bool)) {
	// Clamp the window to the user key space so sentinel entries (⊥ in the
	// head, ⊤ in the tail) are never exposed to fn.
	if lo <= MinKey {
		lo = MinKey + 1
	}
	if hi >= MaxKey {
		hi = MaxKey - 1
	}
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)
	sc := &ctx.scan

	window := sc.window[:0]
	for {
		curr, ver, hit := m.fingerSeek(ctx, lo, fingerPoint, 0)
		if !hit {
			var ok bool
			curr, ver, ok = m.descendToData(ctx, lo, modeRead)
			if !ok {
				m.restart(ctx, opRange)
				continue
			}
		}
		if !curr.lock.TryUpgrade(ver) {
			m.restart(ctx, opRange)
			continue
		}
		// From here on locks, not hazard pointers, protect the traversal:
		// a locked node cannot be retired, and its next pointer cannot
		// change, so the next node is reachable and stable once locked too.
		ctx.dropAll()
		window = append(window, curr)
		break
	}

	// Growth phase: extend the locked window right while nodes may hold
	// keys ≤ hi. Node minima are strictly increasing along the layer, so
	// the first locked node whose minimum exceeds hi ends the window. Each
	// node's minimum is read once, here: every node before the closing one
	// is empty or starts at or below hi (the first owns lo ≤ hi).
	closed := false // the last window node starts above hi
	for {
		next := window[len(window)-1].next.Load()
		if next == nil {
			break
		}
		next.lock.Acquire()
		window = append(window, next)
		if minK, ok := next.minKey(); ok && minK > hi {
			closed = true
			break
		}
		if next.next.Load() == nil {
			break // tail
		}
	}
	inRange := len(window) // window[:inRange] may hold keys in [lo, hi]
	if closed {
		inRange--
	}

	// Apply phase: every element in [lo,hi] is covered by the window. The
	// copy-on-write decision is made once, at the first actual mutation, and
	// one epoch covers every node the window modifies: all locks are held
	// until the end (2PL), so either every modified node's pre-image is
	// published under that single epoch, or none is and the whole range op
	// is ordered before any snapshot pinned mid-window (snapshot.go). An
	// unmodified node is released with its verEpoch untouched either way.
	var cowEpoch uint64
	cowDecided := false
	logging := mutate && m.commitHook != nil
	rcommits := ctx.batch.commits[:0]
	notePre := func(n *node[V]) {
		if !cowDecided {
			cowDecided = true
			cowEpoch = m.noteDataWrite(n)
			return
		}
		if cowEpoch != 0 {
			m.publishPreImage(n, cowEpoch)
		}
	}
	keys, vals := sc.keys, sc.vals
apply:
	for _, n := range window[:inRange] {
		noted := false
		keys, vals = n.data.AppendOrdered(keys[:0], vals[:0])
		for i, k := range keys {
			if k < lo {
				continue
			}
			if k > hi {
				break
			}
			v := vals[i]
			nv, cont := fn(k, v)
			if mutate && nv != v {
				if !noted {
					noted = true
					notePre(n)
				}
				n.data.Set(k, nv)
				if logging {
					rcommits = append(rcommits, CommitOp[V]{Key: k, Val: nv})
				}
			}
			if !cont {
				break apply
			}
		}
	}

	// Commit hook: one CommitRange invocation with the whole update set,
	// fired while every window lock is still held — the 2PL span is the
	// operation's linearization point, so no conflicting write can order
	// itself between the hook call and the releases below (commit.go).
	if len(rcommits) > 0 {
		m.commitHook(ctx.walUnit, CommitRange, rcommits)
		clear(rcommits) // don't pin the values past the call
	}
	ctx.batch.commits = rcommits[:0]

	// Shrink phase: release everything. Mutating ranges bump sequence
	// numbers; read-only ranges restore the pre-lock words. The last window
	// node still covering hi becomes the search finger, so a follow-up
	// operation near the range's right edge (the next slice of a segmented
	// scan, say) resumes without a descent.
	var fnode *node[V]
	var fver seqlock.Version
	for i, n := range window {
		nonEmpty := n.data.Size() > 0 // read under the lock, before release
		var ver seqlock.Version
		if mutate {
			ver = n.lock.Release()
		} else {
			ver = n.lock.Abort()
		}
		if i < inRange && nonEmpty {
			fnode, fver = n, ver
		}
	}
	m.recordFinger(ctx, fnode, fver)
	clear(window)
	if cap(window) > maxPooledWindow {
		window = nil
	}
	clear(vals[:cap(vals)])
	sc.window, sc.keys, sc.vals = window[:0], keys[:0], vals[:0]
}
