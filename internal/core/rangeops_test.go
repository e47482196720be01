package core

import "testing"

// TestRangeOpAllocsFlat is the allocation gate of the ordered scan: range
// ops keep their window and each node's ordered copy in the pooled context,
// so their allocations must not grow with the window. The data chunks are
// unsorted and filled by ascending batches of strided keys, so every chunk's
// slots interleave several batches and its ordered copy has real sorting
// to do. Allocations are counted, not timed, so the gate cannot flake on a
// loaded host. Finally, the pooled buffers must pin no node or value once
// the op has released its window.
func TestRangeOpAllocsFlat(t *testing.T) {
	m := newTestMap(t, DefaultConfig())
	const n, stride = 1 << 16, 64
	v := int64(1)
	for b := int64(0); b < stride; b++ {
		ops := make([]BatchOp[int64], 0, n/stride)
		for k := b; k < n; k += stride {
			ops = append(ops, BatchOp[int64]{Key: k, Val: &v})
		}
		m.ApplyBatch(ops)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	seen := 0
	query := func(lo, hi int64) func() {
		return func() {
			seen = 0
			m.RangeQuery(lo, hi, func(int64, *int64) bool { seen++; return true })
		}
	}
	w := int64(2)
	update := func(lo, hi int64) func() {
		return func() { m.RangeUpdate(lo, hi, func(int64, *int64) *int64 { return &w }) }
	}
	for _, op := range []struct {
		name string
		run  func(lo, hi int64) func()
	}{{"RangeQuery", query}, {"RangeUpdate", update}} {
		small := testing.AllocsPerRun(50, op.run(1000, 1000+63))
		large := testing.AllocsPerRun(50, op.run(1000, 1000+4095))
		t.Logf("%s: %.1f allocs over 64 keys, %.1f over 4096", op.name, small, large)
		if large > small {
			t.Errorf("%s: %.1f allocs over a 4096-key window, %.1f over 64 keys; want no growth", op.name, large, small)
		}
	}
	query(1000, 1000+4095)()
	if seen != 4096 {
		t.Fatalf("RangeQuery visited %d keys, want 4096", seen)
	}

	// The pooled buffers pin nothing after a pooled-size window, and after
	// a full-map Ascend they keep no window that long either.
	checkPooled := func(after string) {
		t.Helper()
		ctx := m.ctxs.get()
		defer m.ctxs.put(ctx)
		sc := &ctx.scan
		if c := cap(sc.window); c > maxPooledWindow {
			t.Fatalf("after %s: pooled window kept %d slots, want ≤ %d", after, c, maxPooledWindow)
		}
		for _, n := range sc.window[:cap(sc.window)] {
			if n != nil {
				t.Fatalf("after %s: pooled window pins a node", after)
			}
		}
		for _, v := range sc.vals[:cap(sc.vals)] {
			if v != nil {
				t.Fatalf("after %s: pooled scan buffer pins a value", after)
			}
		}
	}
	checkPooled("a 4096-key RangeQuery")
	m.Ascend(func(int64, *int64) bool { return true })
	checkPooled("a full-map Ascend")
}
