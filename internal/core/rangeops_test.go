package core

import (
	"testing"
	"time"
)

// TestRangeOpAllocsFlat is the allocation gate of the ordered scan: range
// ops keep their window and each node's ordered copy in the pooled context,
// so their allocations must not grow with the window. The data chunks are
// unsorted and filled by ascending batches of strided keys, so every chunk's
// slots interleave several batches and its ordered copy has real sorting
// to do. Allocations are counted, not timed, so the gate cannot flake on a
// loaded host. A quiescent RangeQuery always takes the optimistic path,
// which allocates nothing at all. Finally, the pooled buffers must pin no
// node or value once the op has released its window.
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
		if op.name == "RangeQuery" && large != 0 {
			t.Errorf("RangeQuery: %.1f allocs per optimistic read, want 0", large)
		}
	}
	query(1000, 1000+4095)()
	if seen != 4096 {
		t.Fatalf("RangeQuery visited %d keys, want 4096", seen)
	}

	// The pooled buffers pin nothing after either path's pooled-size
	// window, and after a full-map Ascend they keep nothing that long.
	checkScanScratch(t, m, "a 4096-key RangeQuery")
	update(1000, 1000+4095)()
	checkScanScratch(t, m, "a 4096-key RangeUpdate")
	m.Ascend(func(int64, *int64) bool { return true })
	checkScanScratch(t, m, "a full-map Ascend")
}

// checkScanScratch fails unless the range scratch of the context the last
// op released is within its pooled bounds and pins no node or value.
func checkScanScratch(t *testing.T, m *Map[int64], after string) {
	t.Helper()
	ctx := m.ctxs.get()
	defer m.ctxs.put(ctx)
	sc := &ctx.scan
	for _, c := range []struct {
		name     string
		cap, max int
	}{
		{"window", cap(sc.window), maxPooledWindow},
		{"version", cap(sc.vers), maxPooledWindow},
		{"key", cap(sc.keys), maxPooledPairs},
		{"value", cap(sc.vals), maxPooledPairs},
	} {
		if c.cap > c.max {
			t.Fatalf("after %s: pooled %s buffer kept %d slots, want ≤ %d", after, c.name, c.cap, c.max)
		}
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

// TestPooledScratchBounded runs one 2^20-op batch and one full-map Ascend
// and checks that the context they ran on keeps none of their buffers: each
// pooled buffer is at most maxPooledPairs (or maxPooledWindow) long and pins
// no value or node.
func TestPooledScratchBounded(t *testing.T) {
	m := newTestMap(t, DefaultConfig())
	// Every 16th key is a put, the rest remove absent keys: the batch sizes
	// every per-op buffer at 2^20 while the map stays at 2^16 keys, still
	// well over maxPooledWindow data nodes.
	const n = 1 << 20
	v := int64(1)
	ops := make([]BatchOp[int64], n)
	for k := range ops {
		ops[k] = BatchOp[int64]{Key: int64(k), Val: &v, Del: k%16 != 0}
	}
	m.ApplyBatch(ops)

	ctx := m.ctxs.get()
	sc := &ctx.batch
	for _, c := range []struct {
		name string
		cap  int
	}{
		{"order", cap(sc.order)}, {"tall", cap(sc.tall)}, {"heights", cap(sc.heights)},
		{"slots", cap(sc.slots)}, {"outs", cap(sc.outs)}, {"segs", cap(sc.segs)},
		{"segMins", cap(sc.segMins)}, {"commits", cap(sc.commits)},
	} {
		if c.cap > maxPooledPairs {
			t.Errorf("after a 2^20-op batch: pooled %s buffer kept %d slots, want ≤ %d", c.name, c.cap, maxPooledPairs)
		}
	}
	for _, s := range sc.slots[:cap(sc.slots)] {
		if s.Val != nil {
			t.Fatal("after a 2^20-op batch: pooled slot buffer pins a value")
		}
	}
	for _, n := range sc.segs[:cap(sc.segs)] {
		if n != nil {
			t.Fatal("after a 2^20-op batch: pooled segment buffer pins a node")
		}
	}
	m.ctxs.put(ctx)

	keys := 0
	prev := int64(-1)
	m.Ascend(func(k int64, _ *int64) bool {
		if k <= prev || k%16 != 0 {
			t.Fatalf("Ascend yielded %d after %d", k, prev)
		}
		prev = k
		keys++
		return true
	})
	if keys != n/16 {
		t.Fatalf("Ascend visited %d keys, want %d", keys, n/16)
	}
	checkScanScratch(t, m, "a full-map Ascend")
}

// TestRangeQueryCallbackHoldsNoLock parks a RangeQuery's callback mid-scan
// and requires an Upsert into the same window to complete meanwhile: the
// optimistic read delivers its copy with no lock held. Under two-phase
// locking the Upsert would wait for the whole scan.
func TestRangeQueryCallbackHoldsNoLock(t *testing.T) {
	m := newTestMap(t, DefaultConfig())
	for k := int64(0); k < 1000; k++ {
		m.Insert(k, v64(k))
	}
	parked, resume := make(chan struct{}), make(chan struct{})
	scanned := make(chan int)
	go func() {
		n := 0
		m.RangeQuery(0, 999, func(k int64, v *int64) bool {
			if n == 0 {
				close(parked)
				<-resume
			}
			n++
			return true
		})
		scanned <- n
	}()
	<-parked
	upserted := make(chan struct{})
	go func() {
		m.Upsert(500, v64(-500))
		close(upserted)
	}()
	select {
	case <-upserted:
	case <-time.After(10 * time.Second):
		t.Error("an Upsert into the window blocked behind a parked RangeQuery callback")
	}
	close(resume)
	<-upserted
	if n := <-scanned; n != 1000 {
		t.Fatalf("RangeQuery visited %d keys, want 1000", n)
	}
	mustCheck(t, m)
}

// TestRangeQueryLongWindowFallback runs a query whose window spans more
// than maxPooledWindow data nodes: the optimistic read gives up and the
// query runs under two-phase locking (seen as the first window node's lock
// held while fn runs). It must still return every key, in order.
func TestRangeQueryLongWindowFallback(t *testing.T) {
	m := newTestMap(t, DefaultConfig())
	const n = 1 << 16
	v := int64(1)
	ops := make([]BatchOp[int64], n)
	for k := range ops {
		ops[k] = BatchOp[int64]{Key: int64(k), Val: &v}
	}
	m.ApplyBatch(ops)
	if nodes := dataNodes(m); nodes <= maxPooledWindow {
		t.Fatalf("setup: %d data nodes, want more than %d", nodes, maxPooledWindow)
	}
	got := 0
	locked := false
	m.RangeQuery(0, n-1, func(k int64, _ *int64) bool {
		if got == 0 {
			locked = m.heads[0].lock.Current().Locked()
		}
		if k != int64(got) {
			t.Fatalf("RangeQuery yielded key %d at position %d", k, got)
		}
		got++
		return true
	})
	if got != n {
		t.Fatalf("RangeQuery visited %d keys, want %d", got, n)
	}
	if !locked {
		t.Error("a window over maxPooledWindow nodes ran fn without the 2PL fallback's locks")
	}
	mustCheck(t, m)
}

// dataNodes counts the data-layer nodes between the sentinels (quiescent).
func dataNodes(m *Map[int64]) int {
	c := 0
	for n := m.heads[0].next.Load(); n.next.Load() != nil; n = n.next.Load() {
		c++
	}
	return c
}
