package core

import (
	"math/rand"
	"sort"
	"testing"
)

// These tests pin how ApplyBatch positions its groups: a group either
// resumes from the node the previous group (or singleton) finished on, or
// pays a full descent. Stats().BatchDescentsSaved counts the former. Every
// case also checks outcomes and contents against a model and the structural
// invariants, because a wrong resume shows up as a key landing in a node
// that does not own it.

// TestApplyBatchAscendingSavesDescents feeds ascending batches that each span
// several adjacent chunks: after the first group of a batch, the next group's
// owner is at most a hop away, so groups must resume without descending.
func TestApplyBatchAscendingSavesDescents(t *testing.T) {
	m := newTestMap(t, DefaultConfig())
	model := map[int64]int64{}
	for k := int64(0); k < 8192; k += 2 {
		m.Insert(k, v64(k))
		model[k] = k
	}
	before := m.Stats().BatchDescentsSaved
	for lo := int64(1); lo < 8192; lo += 128 {
		var ops []BatchOp[int64]
		for k := lo; k < lo+128; k += 2 {
			ops = append(ops, BatchOp[int64]{Key: k, Val: v64(-k)})
		}
		checkBatchAgainstModel(t, m, model, ops)
	}
	if saved := m.Stats().BatchDescentsSaved - before; saved <= 0 {
		t.Fatalf("ascending batches over adjacent chunks saved %d descents", saved)
	}
	checkMapMatchesModel(t, m, model, 8192)
	mustCheck(t, m)
}

// TestApplyBatchUniformDescends applies uniform batches to a 2^20-key map:
// consecutive sorted keys sit hundreds of chunks apart, far beyond any
// bounded walk, so almost every group must be positioned by a descent.
func TestApplyBatchUniformDescends(t *testing.T) {
	const n = 1 << 20
	keys := make([]int64, n)
	backing := make([]int64, n)
	vals := make([]*int64, n)
	for i := range keys {
		keys[i] = int64(2 * i) // even keys; odd keys start absent
		backing[i] = keys[i]
		vals[i] = &backing[i]
	}
	m, err := BulkLoad(DefaultConfig(), keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	// The model holds only keys the batches touched; a key enters it with
	// its preloaded state the first time a batch names it.
	model := map[int64]int64{}
	seen := map[int64]bool{}
	rng := rand.New(rand.NewSource(20))
	before := m.Stats().BatchDescentsSaved
	ops := 0
	for b := 0; b < 32; b++ {
		batch := make([]BatchOp[int64], 64)
		for i := range batch {
			k := rng.Int63n(2 * n)
			if !seen[k] {
				seen[k] = true
				if k%2 == 0 {
					model[k] = k
				}
			}
			if rng.Intn(4) == 0 {
				batch[i] = BatchOp[int64]{Key: k, Del: true}
			} else {
				batch[i] = BatchOp[int64]{Key: k, Val: v64(int64(b))}
			}
		}
		checkBatchAgainstModel(t, m, model, batch)
		ops += len(batch)
	}
	// Each op is its own group bar a handful of near collisions; allow one
	// lucky resume in twenty.
	if saved := m.Stats().BatchDescentsSaved - before; saved*20 > int64(ops) {
		t.Fatalf("uniform batches resumed %d of ~%d groups without a descent", saved, ops)
	}
	mustCheck(t, m)
	wantLen := n
	for k := range seen {
		mv, inModel := model[k]
		pv, ok := m.Lookup(k)
		if ok != inModel || (ok && *pv != mv) {
			t.Fatalf("Lookup(%d) = %v/%t, model = %d/%t", k, pv, ok, mv, inModel)
		}
		if k%2 == 0 && !inModel {
			wantLen--
		} else if k%2 != 0 && inModel {
			wantLen++
		}
	}
	if m.Len() != wantLen {
		t.Fatalf("Len = %d, want %d", m.Len(), wantLen)
	}
}

// TestApplyBatchTallKeyCutsResumeBelowSegment builds the ordering hazard a
// resume must not fall for. Group A splits a full chunk and finishes with the
// split's upper segment, whose minimum lies above every remaining batch key; a
// tall key then cuts the grouped span, so group B's first key sits below that
// segment's minimum. A rightward walk from the segment would place group B in
// a node right of its owner. Every key must still land in order.
func TestApplyBatchTallKeyCutsResumeBelowSegment(t *testing.T) {
	m := newTestMap(t, testConfigs()["tiny-chunks"])
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)
	model := map[int64]int64{}
	put := func(k int64) {
		t.Helper()
		if !m.insertWithHeight(ctx, k, v64(k), 0) {
			t.Fatalf("insert %d failed", k)
		}
		model[k] = k
	}
	for k := int64(1000); k <= 20000; k += 1000 {
		put(k)
	}
	// owned returns the sorted keys of the chunk owning k and whether it is
	// full, read under a validated snapshot.
	owned := func(k int64) ([]int64, bool) {
		t.Helper()
		c, ver, ok := m.descendToData(ctx, k, modeRead)
		if !ok {
			t.Fatalf("descent to %d failed", k)
		}
		keys, full := c.data.Keys(), c.data.Full()
		if !c.lock.Validate(ver) {
			t.Fatalf("chunk owning %d changed during the read", k)
		}
		ctx.dropAll()
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		return keys, full
	}
	// Fill the chunk owning 10000 to capacity with keys just above its
	// maximum (the 1000-wide gaps keep them in this chunk).
	keys, full := owned(10000)
	for !full {
		put(keys[len(keys)-1] + 100)
		keys, full = owned(10000)
	}
	if len(keys) != 4 || keys[1]-keys[0] < 4 {
		t.Fatalf("layout surprise: chunk owning 10000 = %v", keys)
	}

	// The full chunk {c0, c1, c2, c3} splits into {c0, c1} and {c2, c3} when
	// group A = {c0+1} inserts. Tall key c0+2 then runs as a singleton, and
	// group B = {c0+3} belongs left of c2, below the segment group A finished
	// on. Heights are drawn in key order, one per put key, from ctx's stream:
	// pick a stream position that draws short, tall, short.
	c0, c2 := keys[0], keys[2]
	ops := []BatchOp[int64]{
		{Key: c0 + 3, Val: v64(c0 + 3)},
		{Key: c0 + 1, Val: v64(c0 + 1)},
		{Key: c0 + 2, Val: v64(c0 + 2)},
	}
	seed := uint64(1)
	for ; ; seed++ {
		probe := opCtx[int64]{m: m, rng: seed}
		if probe.randomHeight() == 0 && probe.randomHeight() > 0 && probe.randomHeight() == 0 {
			break
		}
	}
	ctx.rng = seed
	want := applyBatchModel(model, ops)
	got := m.applyBatchCtx(ctx, ops)
	for i := range got {
		if got[i].Outcome != want[i] {
			t.Fatalf("op %d (%+v): outcome %v, model wants %v", i, ops[i], got[i].Outcome, want[i])
		}
	}
	mustCheck(t, m)
	checkMapMatchesModel(t, m, model, 21000)

	// The split happened: c2 now starts its own node, above group B's key.
	if seg, _ := owned(c2); seg[0] != c2 {
		t.Fatalf("chunk owning %d = %v; the split did not happen", c2, seg)
	}
}
