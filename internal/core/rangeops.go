package core

import "skipvector/internal/seqlock"

// Range operations (Section V-B, Figure 8). Because the skip vector is
// lock-based, serializable range operations fall out of two-phase locking:
// lockedRange locks every data node spanning [lo,hi], applies its function,
// and only then releases. RangeUpdate always runs that way. A read-only
// RangeQuery first tries an optimistic window read (readWindow), which
// validates seqlock versions instead of locking, so it never blocks a
// writer and calls fn with no lock held. After maxRangeAttempts failed
// reads, or once the window outgrows maxPooledWindow nodes, it falls back
// to lockedRange, which always completes: full-map scans under writes never
// validate (DESIGN §9). Both paths are linearizable.

// maxRangeAttempts is how many optimistic window reads a RangeQuery makes
// before it takes the 2PL fallback.
const maxRangeAttempts = 2

// RangeQuery calls fn for every mapping with lo ≤ key ≤ hi, in ascending key
// order. fn returning false stops the iteration early. fn must not call back
// into the map: a query that falls back to two-phase locking runs fn with
// the window's locks held.
func (m *Map[V]) RangeQuery(lo, hi int64, fn func(k int64, v *V) bool) {
	lo, hi = userWindow(lo, hi)
	if lo > hi {
		return
	}
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)
	sc := &ctx.scan
	for range maxRangeAttempts {
		r := m.readWindow(ctx, lo, hi)
		if r == windowValid {
			for i, k := range sc.keys {
				if !fn(k, sc.vals[i]) {
					break
				}
			}
			sc.release()
			return
		}
		if r == windowLong {
			ctx.dropAll()
			break
		}
		m.restart(ctx, opRange)
	}
	m.lockedRange(ctx, lo, hi, false, func(k int64, v *V) (*V, bool) {
		return v, fn(k, v)
	})
}

// RangeUpdate calls fn for every mapping with lo ≤ key ≤ hi in ascending key
// order and replaces each value with fn's return. It returns the number of
// mappings visited. The whole update is a single serializable operation.
func (m *Map[V]) RangeUpdate(lo, hi int64, fn func(k int64, v *V) *V) int {
	lo, hi = userWindow(lo, hi)
	if lo > hi {
		return 0
	}
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)
	count := 0
	m.lockedRange(ctx, lo, hi, true, func(k int64, v *V) (*V, bool) {
		count++
		return fn(k, v), true
	})
	return count
}

// Ascend iterates every mapping in ascending key order, with RangeQuery's
// consistency.
func (m *Map[V]) Ascend(fn func(k int64, v *V) bool) {
	m.RangeQuery(MinKey+1, MaxKey-1, fn)
}

// userWindow clamps a range window to the user key space so sentinel entries
// (⊥ in the head, ⊤ in the tail) are never exposed to fn.
func userWindow(lo, hi int64) (int64, int64) {
	return max(lo, MinKey+1), min(hi, MaxKey-1)
}

// rangeScratch holds the range operations' working buffers. Contexts are
// pooled, so a range op allocates nothing for its window, its snapshots or
// its ordered copies once the buffers have grown; release clears them so a
// pooled context pins no nodes or values. Only vals[:len(vals)] may hold a
// value: both paths clear what they drop.
type rangeScratch[V any] struct {
	window []*node[V]
	vers   []seqlock.Version // readWindow: the snapshot of each window node
	keys   []int64
	vals   []*V
}

// Pooled scratch bounds. A pooled buffer that grew past its bound is dropped
// at release instead of kept: a full-map Ascend or a 2^20-op batch would
// otherwise leave every context it ran on holding memory as large as the
// op, for the rest of the map's life. An op that large does work in
// proportion to its size, so allocating its buffers is a negligible share
// of its cost.
const (
	maxPooledWindow = 1024    // nodes: range windows and their snapshots
	maxPooledPairs  = 8 << 10 // elements: ordered pair copies, batch buffers
)

// pooled returns s emptied for the next op through its context, or nil when
// its capacity exceeds limit. Callers clear pointer-bearing contents first.
func pooled[T any](s []T, limit int) []T {
	if cap(s) > limit {
		return nil
	}
	return s[:0]
}

func (sc *rangeScratch[V]) release() {
	clear(sc.window)
	clear(sc.vals)
	sc.window = pooled(sc.window, maxPooledWindow)
	sc.vers = pooled(sc.vers, maxPooledWindow)
	sc.keys = pooled(sc.keys, maxPooledPairs)
	sc.vals = pooled(sc.vals, maxPooledPairs)
}

// windowRead is the outcome of one optimistic window read.
type windowRead int

const (
	windowValid windowRead = iota // the copy is a linearizable snapshot of the window
	windowTorn                    // a read or a validation failed: restart
	windowLong                    // the window outgrew maxPooledWindow nodes: fall back
)

// readWindow copies the mappings in [lo, hi] into the context's scratch
// (keys, vals) without taking a lock. It positions like lockedRange, then
// walks right hand-over-hand with at most two hazard pointers (the current
// node and its successor), recording each window node with the seqlock
// version its content was read under. The first node whose minimum exceeds
// hi closes the window; it is recorded too, since its minimum is what proves
// no key in [lo, hi] lies further right. Every recorded version is then
// revalidated: a node's word is unchanged only if no writer modified the
// node in between (Abort and Thaw restore the word only when nothing was
// written), so all nodes held their recorded content at one instant between
// the walk's last read and the first revalidation. That instant is the
// query's linearization point. The chain is consistent at it: each node's
// next pointer was read under its recorded version, and the first node's
// version comes from the positioning descent, which proved it owns lo.
//
// Revalidation needs no hazard pointer. Lock words survive recycling and
// only grow, so a node retired and reused since its read fails validation.
func (m *Map[V]) readWindow(ctx *opCtx[V], lo, hi int64) windowRead {
	sc := &ctx.scan
	clear(sc.vals)
	sc.window, sc.vers, sc.keys, sc.vals = sc.window[:0], sc.vers[:0], sc.keys[:0], sc.vals[:0]

	curr, ver, hit := m.fingerSeek(ctx, lo, fingerPoint, 0)
	if !hit {
		var ok bool
		if curr, ver, ok = m.descendToData(ctx, lo, modeRead); !ok {
			return windowTorn
		}
	}
	last := 0 // the last non-empty node that may hold keys in [lo, hi]
	for {
		if len(sc.window) == maxPooledWindow {
			return windowLong
		}
		sc.window, sc.vers = append(sc.window, curr), append(sc.vers, ver)
		// Node minima strictly increase along the layer and the first node
		// owns lo ≤ hi, so only a later node can close the window. The tail
		// (⊤) always does: hi < MaxKey.
		if len(sc.window) > 1 {
			if minK, ok := curr.minKey(); ok && minK > hi {
				break
			}
		}
		kb := len(sc.keys)
		sc.keys, sc.vals = curr.data.AppendOrdered(sc.keys, sc.vals)
		if len(sc.keys) > kb {
			last = len(sc.window) - 1
		}
		sc.keys, sc.vals = clipPairs(sc.keys, sc.vals, kb, lo, hi)
		next := curr.next.Load()
		if next == nil {
			return windowTorn // only a recycled node has no successor
		}
		ctx.take(next)
		// Validating curr proves its copied content consistent and next
		// still its successor when the hazard pointer became visible.
		if !curr.lock.Validate(ver) {
			return windowTorn
		}
		nextVer, ok := next.lock.ReadVersion()
		if !ok {
			return windowTorn
		}
		ctx.drop(curr)
		curr, ver = next, nextVer
	}
	for i, n := range sc.window {
		if !n.lock.Validate(sc.vers[i]) {
			return windowTorn
		}
	}
	ctx.dropAll()
	// The last node that held keys becomes the search finger, as on the 2PL
	// path, so the next slice of a segmented scan resumes without a descent.
	m.recordFinger(ctx, sc.window[last], sc.vers[last])
	return windowValid
}

// clipPairs keeps, of the ordered pairs appended at index kb and beyond,
// those with lo ≤ key ≤ hi, and clears every value it drops.
func clipPairs[V any](keys []int64, vals []*V, kb int, lo, hi int64) ([]int64, []*V) {
	a, b := kb, len(keys)
	for a < b && keys[a] < lo {
		a++
	}
	for b > a && keys[b-1] > hi {
		b--
	}
	n := kb + copy(keys[kb:], keys[a:b])
	copy(vals[kb:], vals[a:b])
	clear(vals[n:])
	return keys[:n], vals[:n]
}

// lockedRange implements both range operations under two-phase locking: the
// only path for RangeUpdate and RangeQuery's fallback. It descends
// optimistically to the data node owning lo, upgrades to a write lock, and
// then extends the locked window rightward hand-over-hand until the node
// minima exceed hi. All locks are held until the function has been applied
// everywhere (strict two-phase locking); read-only ranges release with Abort
// so that concurrent optimistic readers of untouched nodes stay valid. lo
// and hi are already clamped to the user key space.
func (m *Map[V]) lockedRange(ctx *opCtx[V], lo, hi int64, mutate bool, fn func(k int64, v *V) (*V, bool)) {
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
		clear(vals)
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
	ctx.batch.commits = pooled(rcommits, maxPooledPairs)

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
	sc.window, sc.keys, sc.vals = window, keys, vals
	sc.release()
}
