package core

import (
	"skipvector/internal/chaos"
	"skipvector/internal/seqlock"
)

// The search finger is a per-context locality cache in the spirit of
// "finger search" skip lists: every operation that settles on a data-layer
// node remembers that node together with the seqlock version it validated.
// The next operation through the same context first asks whether its key
// is owned by the remembered node or by one a few hops to its right; if so,
// it skips the whole top-down descent (descendToData) and resumes directly
// at the data layer — O(1) instead of O(log_T n) for the spatially local
// access patterns the paper's chunking already favours (cursors, range
// scans, Zipfian traffic, ascending bulk ingest, and the groups of one
// ApplyBatch, which run left to right through the same context).
//
// Safety: the finger's authoritative content is (node, version); everything
// else it carries (cached bounds, backoff counters) is heuristic. Nothing
// about the node is trusted until the next operation (a) publishes a hazard
// pointer for it and (b) revalidates the remembered version. The
// publication/validation order is the same as everywhere else in the
// traversal: under Go's sequentially consistent atomics, a successful
// validation proves no writer locked, froze, or released the node between
// record and seek, and any writer that retires the node afterwards must
// first lock it — changing the word forever, since sequence numbers grow
// monotonically across node lifetimes — and will then see the published
// hazard pointer during its reclamation scan. An unchanged word also proves
// the node is still linked in the data layer (unlinking locks it), so its
// validated content says where it sits: it owns [min(n), succ(n).min).
// (c) The seek therefore proves min(n) ≤ k before moving, because a walk
// only goes right and cannot correct a start right of k's owner. (d) From
// there the walk is traverseRightN's ordinary hand-over-hand step under a
// hop budget, with the same validations as a descent's final traversal. A
// failure anywhere (or a frozen/locked word at record time, or an
// out-of-reach key) simply falls back to the full descent, so the finger can
// delay but never change any operation's outcome.
//
// Ownership is derived fresh at seek time from the validated chunk instead of
// being cached: succ(n).min cannot decrease while n's word is unchanged
// (linking or merging a successor requires locking n). Keys in
// (n.max, succ(n).min) — the common case for ascending ingest — are resolved
// by the walk's first validated read of the successor's minimum, even at
// budget 0.

// finger remembers where the previous operation through a context finished.
//
// Two refinements keep the finger near-free when locality is absent:
//
//   - Bound caching: a successful probe caches the node's exact [lo, hi] key
//     bounds. They are trusted again only while the node's lock word still
//     equals ver (any modification bumps the word), which lets a run of
//     read-only operations on the same chunk skip the O(T_D) bounds scan —
//     a probe is then one load, one compare against the word, and two key
//     compares.
//   - Probe backoff: every wasted full probe (failed validation or
//     out-of-span key) doubles a skip window, during which seeks decline to
//     probe at all (two branches). Any hit resets the window. Under uniform
//     or scrambled-Zipfian traffic — where consecutive operations almost
//     never share a chunk — the finger quickly throttles itself to one probe
//     per 2^maxFingerPenalty operations, bounding its overhead to well under
//     a percent; when the workload turns local again the first successful
//     probe restores full eagerness.
type finger[V any] struct {
	node *node[V]
	ver  seqlock.Version
	lo   int64 // cached bounds, exact while node's word == ver
	hi   int64
	// hasBounds marks lo/hi as valid for ver. Cleared whenever the finger
	// moves to a new (node, ver) pair without a validated bounds read.
	hasBounds bool
	backoff   uint8 // probes still to skip
	penalty   uint8 // log2 of the next skip window
}

// maxFingerPenalty caps the probe backoff at one probe per 2^6-1 = 63
// operations: small enough to notice a workload turning local within tens of
// operations, large enough to make wasted probes statistically invisible.
const maxFingerPenalty = 6

// punish widens the skip window after a wasted full probe.
func (f *finger[V]) punish() {
	if f.penalty < maxFingerPenalty {
		f.penalty++
	}
	f.backoff = (1 << f.penalty) - 1
}

// fingerMode selects the ownership test fingerSeek applies.
type fingerMode int

const (
	// fingerPoint accepts any key the remembered node owns, or that a node
	// the bounded walk reaches from it owns.
	fingerPoint fingerMode = iota
	// fingerRemove excludes key == min: removing a node's minimum must take
	// the full descent, because the key may own an index tower that only the
	// top-down pass can find and unlink. It needs budget 0 — a walk could
	// land on a node whose minimum is the key.
	fingerRemove
)

// fingerSeek is the one resume primitive: it tries to settle on the data node
// owning k starting from the remembered node n, instead of descending from
// the top. The sequence is fixed: publish a hazard pointer for n, Validate
// the remembered version, prove min(n) ≤ k from n's validated bounds, and
// then — if k lies past max(n) — walk right under the hop budget
// (traverseRightN). budget 0 still resolves keys in the gap before the
// successor's minimum; the point ops use it, Ceiling uses 1 so an ascending
// cursor hops chunk boundaries, and ApplyBatch uses batchHopBudget so the
// next group resumes where the previous one finished.
//
// On a hit the caller holds a hazard pointer on the returned node and a
// validated snapshot of its lock — exactly the postcondition of
// descendToData. On a miss nothing is held and the caller performs the full
// descent; fingerSeek is only called before an operation holds anything.
func (m *Map[V]) fingerSeek(ctx *opCtx[V], k int64, mode fingerMode, budget int) (*node[V], seqlock.Version, bool) {
	if m.cfg.DisableFinger {
		return nil, 0, false
	}
	f := &ctx.fing
	n := f.node
	if n == nil {
		m.fingerMisses.add(ctx.stripe, 1)
		return nil, 0, false
	}
	if f.backoff > 0 {
		// Still backing off after wasted probes: decline without touching
		// the node (misses here include skipped probes by design).
		f.backoff--
		m.fingerMisses.add(ctx.stripe, 1)
		return nil, 0, false
	}
	// Quick reject on the cached lower bound, before any shared-memory
	// write: a node's minimum can only change under its lock, so if the
	// bounds are stale the reject is merely conservative (a miss is always
	// safe). Keys above hi are NOT rejected here — they may sit in the gap
	// before the successor or within the walk's reach.
	if f.hasBounds && k < f.lo {
		m.fingerMisses.add(ctx.stripe, 1)
		return nil, 0, false
	}
	// Publish the hazard pointer first, then revalidate: a successful
	// validation proves the node was still live (not retired) when the
	// pointer became visible, so it is protected from here on.
	ctx.take(n)
	if chaos.Fail(chaos.CoreFinger) || !n.lock.Validate(f.ver) {
		f.node = nil // stale: the node changed (or was merged away) behind us
		return m.fingerMiss(ctx)
	}
	// n is unchanged since the finger was recorded, so its chunk reads below
	// are consistent — and cached bounds, taken under the same word, are
	// still exact and save the scan.
	if !f.hasBounds {
		minK, maxK, ok := n.data.Bounds()
		if !ok {
			return m.fingerMiss(ctx)
		}
		f.lo, f.hi, f.hasBounds = minK, maxK, true
	}
	// The walk's entry precondition: a rightward walk can never correct a
	// start that is already right of k's owner, and its stop test (k ≤ max)
	// would happily return such a node.
	if k < f.lo || (mode == fingerRemove && k == f.lo) {
		return m.fingerMiss(ctx)
	}
	curr, ver := n, f.ver
	if k > f.hi {
		// Reach prediction: the walk pays only when k's owner is within the
		// budget, and n's own key span is a free density estimate for the
		// chunks around it. When k lies past max(n) by more than budget×
		// that span — a uniform batch puts consecutive groups hundreds of
		// chunks apart — only the gap before the successor is worth a look.
		// Both subtractions are non-negative (lo ≤ hi < k), so the uint64
		// arithmetic is exact.
		if budget > 0 && (uint64(k)-uint64(f.hi))/(uint64(f.hi)-uint64(f.lo)+1) > uint64(budget) {
			budget = 0
		}
		var ok bool
		curr, ver, ok = m.traverseRightN(ctx, n, f.ver, k, modeRead, budget, true)
		if !ok {
			return m.fingerMiss(ctx)
		}
	}
	f.penalty = 0
	m.fingerHits.add(ctx.stripe, 1)
	return curr, ver, true
}

// fingerMiss drops whatever a failed probe published, widens the backoff
// window and counts the miss.
func (m *Map[V]) fingerMiss(ctx *opCtx[V]) (*node[V], seqlock.Version, bool) {
	ctx.dropAll()
	ctx.fing.punish()
	m.fingerMisses.add(ctx.stripe, 1)
	return nil, 0, false
}

// recordFinger remembers the data node an operation finished on, for the
// next operation through the same context to resume from. n must be a
// data-layer node. ver must be a snapshot the caller just validated (or the
// return of Release/Abort on a lock it held, or a clean Current() word of a
// node the caller just published). Locked or frozen words are not recorded —
// the writer's release would invalidate them immediately. Orphan nodes ARE
// recorded: capacity splits leave long-lived orphans that are exactly the
// hot node of an ascending ingest, and a merge that absorbs one bumps its
// lock, so the next seek's validation detects it. Recording is O(1) —
// ownership is recomputed at seek time.
//
// recordFinger must not dereference n: callers may invoke it after dropping
// hazard protection, when a concurrent retire could already be recycling the
// node — its non-atomic fields may be mid-reinitialization. Only the pointer
// and the version are stored; nothing about the node is trusted until the
// next probe re-publishes a hazard pointer and revalidates ver (which a
// recycled node's monotonic lock word always fails).
func (m *Map[V]) recordFinger(ctx *opCtx[V], n *node[V], ver seqlock.Version) {
	if m.cfg.DisableFinger || n == nil {
		return
	}
	if ver.Locked() || ver.Frozen() {
		return
	}
	f := &ctx.fing
	if f.node == n && f.ver == ver {
		return // unchanged — keep the cached bounds (and backoff state)
	}
	f.node, f.ver = n, ver
	f.hasBounds = false
}
