package skipvector

import (
	"math/rand"
	"sync"
	"testing"
)

// TestHandleBasics drives every point op through a Handle and a
// ShardedHandle (four shards over [0, 40), so Floor and Ceiling walk across
// empty shards and the batch spans two) and checks the handle and its map
// see one structure.
func TestHandleBasics(t *testing.T) {
	type handle interface {
		Insert(k int64, v string) bool
		Upsert(k int64, v string) bool
		Lookup(k int64) (string, bool)
		Contains(k int64) bool
		Remove(k int64) bool
		Floor(k int64) (int64, string, bool)
		Ceiling(k int64) (int64, string, bool)
		ApplyBatch(ops []BatchOp[string]) []BatchResult
		Close()
	}
	type mapView interface {
		Len() int
		Lookup(k int64) (string, bool)
	}
	for _, tc := range []struct {
		name string
		open func(t *testing.T) (handle, mapView)
	}{
		{"Handle", func(*testing.T) (handle, mapView) { m := New[string](); return m.NewHandle(), m }},
		{"ShardedHandle", func(t *testing.T) (handle, mapView) { m := newShardedTest(t); return m.NewHandle(), m }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, m := tc.open(t)
			defer h.Close()
			if !h.Insert(5, "five") || h.Insert(5, "cinco") {
				t.Fatal("Insert semantics wrong")
			}
			if v, ok := h.Lookup(5); !ok || v != "five" {
				t.Fatalf("Lookup = %q,%t", v, ok)
			}
			if !h.Upsert(15, "fifteen") || h.Upsert(15, "fifteen'") {
				t.Fatal("Upsert semantics wrong")
			}
			if !h.Contains(15) || h.Contains(6) {
				t.Fatal("Contains wrong")
			}
			if k, v, ok := h.Floor(30); !ok || k != 15 || v != "fifteen'" {
				t.Fatalf("Floor(30) = %d,%q,%t", k, v, ok)
			}
			if k, v, ok := h.Ceiling(6); !ok || k != 15 || v != "fifteen'" {
				t.Fatalf("Ceiling(6) = %d,%q,%t", k, v, ok)
			}
			if _, _, ok := h.Floor(4); ok {
				t.Fatal("Floor(4) found a key below the smallest")
			}
			res := h.ApplyBatch([]BatchOp[string]{{Key: 25, Val: "c"}, {Key: 35, Val: "d"}})
			if len(res) != 2 || res[0].Outcome != BatchInserted || res[1].Outcome != BatchInserted {
				t.Fatalf("ApplyBatch: %+v", res)
			}
			if !h.Remove(5) || h.Remove(5) {
				t.Fatal("Remove semantics wrong")
			}
			// Handle and map views are the same structure.
			if m.Len() != 3 {
				t.Fatalf("Len = %d", m.Len())
			}
			if v, ok := m.Lookup(35); !ok || v != "d" {
				t.Fatalf("map Lookup(35) = %q,%t", v, ok)
			}
			h.Close()
			h.Close()
		})
	}
}

func TestHandleCloseIdempotent(t *testing.T) {
	m := New[int]()
	h := m.NewHandle()
	h.Insert(1, 1)
	h.Close()
	h.Close() // second Close must be a no-op
	if !m.Contains(1) {
		t.Fatal("key lost after handle close")
	}
}

// TestHandlesConcurrent runs one pinned handle per goroutine over disjoint
// key stripes — the intended usage pattern — and checks every result
// against a per-goroutine reference.
func TestHandlesConcurrent(t *testing.T) {
	m := New[int64]()
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := m.NewHandle()
			defer h.Close()
			base := int64(g) * 100_000
			ref := map[int64]int64{}
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 5000; i++ {
				k := base + int64(rng.Intn(512))
				switch rng.Intn(4) {
				case 0, 1:
					got := h.Insert(k, k)
					if _, had := ref[k]; got == had {
						errs <- "Insert mismatch"
						return
					}
					if got {
						ref[k] = k
					}
				case 2:
					got := h.Remove(k)
					if _, had := ref[k]; got != had {
						errs <- "Remove mismatch"
						return
					}
					delete(ref, k)
				default:
					v, got := h.Lookup(k)
					want, had := ref[k]
					if got != had || (got && v != want) {
						errs <- "Lookup mismatch"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestSearchFingerOption verifies the WithSearchFinger ablation switch: with
// the finger off no hits or misses are counted and results are unchanged;
// with it on (the default) an ascending handle workload registers hits.
func TestSearchFingerOption(t *testing.T) {
	build := func(enabled bool) *Map[int64] {
		m := New[int64](WithSearchFinger(enabled))
		h := m.NewHandle()
		defer h.Close()
		for k := int64(0); k < 2000; k++ {
			if !h.Insert(k, k) {
				t.Fatalf("Insert(%d) failed", k)
			}
			if v, ok := h.Lookup(k); !ok || v != k {
				t.Fatalf("Lookup(%d) = %d,%t", k, v, ok)
			}
		}
		return m
	}
	off := build(false)
	if st := off.Stats(); st.FingerHits != 0 || st.FingerMisses != 0 {
		t.Fatalf("disabled finger counted activity: %+v", st)
	}
	on := build(true)
	if st := on.Stats(); st.FingerHits == 0 {
		t.Fatal("enabled finger never hit on an ascending workload")
	}
	if off.Len() != on.Len() {
		t.Fatalf("ablation changed contents: %d vs %d", off.Len(), on.Len())
	}
}
