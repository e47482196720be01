package skipvector

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"skipvector/internal/wal"
)

func TestCursorFullScan(t *testing.T) {
	m := New[int64]()
	for k := int64(0); k < 100; k += 5 {
		m.Insert(k, k*2)
	}
	c := m.Cursor(MinKey + 1)
	var got []int64
	for {
		k, v, ok := c.Next()
		if !ok {
			break
		}
		if v != k*2 {
			t.Fatalf("value mismatch at %d", k)
		}
		got = append(got, k)
	}
	if len(got) != 20 {
		t.Fatalf("scanned %d keys", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("cursor not ascending")
		}
	}
	// Exhausted cursor stays exhausted.
	if _, _, ok := c.Next(); ok {
		t.Fatal("exhausted cursor yielded a key")
	}
}

func TestCursorSeek(t *testing.T) {
	m := New[int]()
	for k := int64(0); k < 50; k++ {
		m.Insert(k, int(k))
	}
	c := m.Cursor(40)
	if k, _, ok := c.Next(); !ok || k != 40 {
		t.Fatalf("first = %d,%t", k, ok)
	}
	c.SeekTo(10)
	if k, _, ok := c.Next(); !ok || k != 10 {
		t.Fatalf("after seek = %d,%t", k, ok)
	}
	c.SeekTo(1000)
	if _, _, ok := c.Next(); ok {
		t.Fatal("seek past end should exhaust")
	}
	c.SeekTo(0)
	if k, _, ok := c.Next(); !ok || k != 0 {
		t.Fatal("re-seek after exhaustion failed")
	}
}

func TestCursorSkipsRemovedSeesAhead(t *testing.T) {
	m := New[int]()
	for k := int64(0); k < 10; k++ {
		m.Insert(k, 0)
	}
	c := m.Cursor(0)
	k, _, _ := c.Next() // 0
	if k != 0 {
		t.Fatalf("first = %d", k)
	}
	m.Remove(1)
	m.Remove(2)
	m.Insert(100, 0) // ahead of the cursor
	var rest []int64
	for {
		k, _, ok := c.Next()
		if !ok {
			break
		}
		rest = append(rest, k)
	}
	want := []int64{3, 4, 5, 6, 7, 8, 9, 100}
	if len(rest) != len(want) {
		t.Fatalf("rest = %v", rest)
	}
	for i := range want {
		if rest[i] != want[i] {
			t.Fatalf("rest = %v, want %v", rest, want)
		}
	}
}

// cursorSources are the facades that hand out a Cursor, each built empty:
// Map, ShardedMap over three splits, and DurableMap on MemFS. insert adds a
// key to the facade's contents.
var cursorSources = []struct {
	name string
	open func(t *testing.T) (insert func(k, v int64), cursor func(start int64) *Cursor[int64])
}{
	{"Map", func(t *testing.T) (func(k, v int64), func(int64) *Cursor[int64]) {
		m := New[int64]()
		return func(k, v int64) { m.Insert(k, v) }, m.Cursor
	}},
	{"ShardedMap", func(t *testing.T) (func(k, v int64), func(int64) *Cursor[int64]) {
		m := NewSharded[int64]([]int64{-1000, 15, 1000})
		return func(k, v int64) { m.Insert(k, v) }, m.Cursor
	}},
	{"DurableMap", func(t *testing.T) (func(k, v int64), func(int64) *Cursor[int64]) {
		d, err := OpenDurable("/db", Int64Codec(), WithWALFS(wal.NewMemFS(1)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return func(k, v int64) {
			if _, err := d.Insert(k, v); err != nil {
				t.Fatal(err)
			}
		}, d.Cursor
	}},
}

// TestCursorEdgeKeys scans the two extreme legal keys on every cursor
// source, then revives the cursor with SeekTo after an explicit Close.
func TestCursorEdgeKeys(t *testing.T) {
	for _, src := range cursorSources {
		t.Run(src.name, func(t *testing.T) {
			insert, cursor := src.open(t)
			insert(MinKey+1, 1)
			insert(MaxKey-1, 2)
			c := cursor(MinKey + 1)
			k1, _, ok1 := c.Next()
			k2, _, ok2 := c.Next()
			_, _, ok3 := c.Next()
			if !ok1 || k1 != MinKey+1 || !ok2 || k2 != MaxKey-1 || ok3 {
				t.Fatalf("edge scan = (%d,%t) (%d,%t) (%t)", k1, ok1, k2, ok2, ok3)
			}
			c.SeekTo(MaxKey - 1)
			if k, v, ok := c.Next(); !ok || k != MaxKey-1 || v != 2 {
				t.Fatalf("SeekTo(MaxKey-1) then Next = %d,%d,%t", k, v, ok)
			}
			c.Close()
			c.SeekTo(MinKey + 1)
			if k, v, ok := c.Next(); !ok || k != MinKey+1 || v != 1 {
				t.Fatalf("SeekTo after Close then Next = %d,%d,%t", k, v, ok)
			}
			c.Close()
		})
	}
}

// TestCursorSessionLifecycle verifies the cursor's pinned session on every
// cursor source: it is acquired lazily on the first Next, released
// automatically when the scan exhausts, released by Close mid-scan
// (idempotently), and re-acquired when a closed cursor is revived with
// SeekTo.
func TestCursorSessionLifecycle(t *testing.T) {
	for _, src := range cursorSources {
		t.Run(src.name, func(t *testing.T) {
			insert, cursor := src.open(t)
			for k := int64(0); k < 30; k++ {
				insert(k, k)
			}
			c := cursor(0)
			if c.h != nil {
				t.Fatal("session pinned before first Next")
			}
			if k, _, ok := c.Next(); !ok || k != 0 {
				t.Fatalf("first = %d,%t", k, ok)
			}
			if c.h == nil {
				t.Fatal("first Next did not pin a session")
			}
			// Close mid-scan releases the session; a second Close is a no-op.
			c.Close()
			c.Close()
			if c.h != nil {
				t.Fatal("Close left the session pinned")
			}
			if _, _, ok := c.Next(); ok {
				t.Fatal("closed cursor yielded a key")
			}
			// SeekTo revives the cursor and Next re-pins a session.
			c.SeekTo(10)
			if k, _, ok := c.Next(); !ok || k != 10 {
				t.Fatalf("after revive = %d,%t", k, ok)
			}
			if c.h == nil {
				t.Fatal("revived cursor did not re-pin a session")
			}
			// Exhausting the scan auto-releases the session.
			n := 1
			for {
				if _, _, ok := c.Next(); !ok {
					break
				}
				n++
			}
			if n != 20 {
				t.Fatalf("revived scan returned %d keys, want 20", n)
			}
			if c.h != nil {
				t.Fatal("exhausted cursor kept its session")
			}
		})
	}
}

// TestCursorScanUsesFinger confirms a sequential scan actually rides the
// search finger: after the first step, each Next should resume at the chunk
// the previous step finished on.
func TestCursorScanUsesFinger(t *testing.T) {
	m := New[int64]()
	const n = 3000
	for k := int64(0); k < n; k++ {
		m.Insert(k, k)
	}
	before := m.Stats()
	c := m.Cursor(0)
	count := 0
	for {
		if _, _, ok := c.Next(); !ok {
			break
		}
		count++
	}
	if count != n {
		t.Fatalf("scanned %d keys, want %d", count, n)
	}
	st := m.Stats()
	hits := st.FingerHits - before.FingerHits
	misses := st.FingerMisses - before.FingerMisses
	if hits+misses == 0 {
		t.Fatal("scan recorded no finger activity")
	}
	if rate := float64(hits) / float64(hits+misses); rate < 0.5 {
		t.Fatalf("scan finger hit rate %.2f (hits=%d misses=%d)", rate, hits, misses)
	}
}

// TestCursorUnderConcurrentChurn verifies a cursor makes monotone progress
// and only ever reports stable keys while churn happens around it.
func TestCursorUnderConcurrentChurn(t *testing.T) {
	m := New[int64]()
	const stableStep = 10
	for k := int64(0); k <= 5000; k += stableStep {
		m.Insert(k, k)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30000; i++ {
			k := int64(i%5000) + 1
			if k%stableStep == 0 {
				k++
			}
			if i%2 == 0 {
				m.Insert(k, k)
			} else {
				m.Remove(k)
			}
		}
		close(stop)
	}()
	c := m.Cursor(0)
	prev := int64(-1)
	n := 0
	for {
		k, v, ok := c.Next()
		if !ok {
			c.SeekTo(0)
			prev = -1
			select {
			case <-stop:
				wg.Wait()
				if n == 0 {
					t.Fatal("cursor never scanned anything")
				}
				return
			default:
				continue
			}
		}
		if k <= prev {
			t.Fatalf("cursor went backwards: %d after %d", k, prev)
		}
		if v != k {
			t.Fatalf("corrupt value %d at %d", v, k)
		}
		prev = k
		n++
	}
}

// TestSnapshotCursorSeededReplay is the cursor-over-snapshot campaign: a
// seeded 10k-op tape mutates the map while snapshots pinned at known points
// carry exact model copies. Each snapshot's cursor — stepped lazily,
// interleaved with ongoing live churn and split/merge/orphan maintenance —
// must reproduce its pinned model exactly, key by key, value by value.
func TestSnapshotCursorSeededReplay(t *testing.T) {
	const (
		seed     = 0xC0FFEE
		ops      = 10_000
		keySpace = 2048
	)
	m := New[int64](WithTargetDataVectorSize(4), WithLayerCount(5))
	ref := map[int64]int64{}
	rng := rand.New(rand.NewSource(seed))

	type pinned struct {
		c     *SnapshotCursor[int64]
		s     *Snapshot[int64]
		model []int64 // interleaved key,value pairs, ascending by key
		at    int     // replay position (in pairs)
	}
	var pins []pinned

	takePin := func() {
		s := m.Snapshot()
		keys := make([]int64, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		model := make([]int64, 0, 2*len(keys))
		for _, k := range keys {
			model = append(model, k, ref[k])
		}
		pins = append(pins, pinned{c: s.Cursor(MinKey + 1), s: s, model: model})
	}

	stepPins := func(steps int) {
		for i := range pins {
			p := &pins[i]
			for n := 0; n < steps && p.c != nil; n++ {
				k, v, ok := p.c.Next()
				if !ok {
					if p.at != len(p.model)/2 {
						t.Fatalf("pin %d: cursor exhausted after %d of %d pairs",
							i, p.at, len(p.model)/2)
					}
					p.s.Close()
					p.c = nil
					break
				}
				if p.at >= len(p.model)/2 {
					t.Fatalf("pin %d: cursor produced extra pair (%d,%d)", i, k, v)
				}
				if wk, wv := p.model[2*p.at], p.model[2*p.at+1]; k != wk || v != wv {
					t.Fatalf("pin %d: pair %d: got (%d,%d), want (%d,%d)", i, p.at, k, v, wk, wv)
				}
				p.at++
			}
		}
	}

	for i := 0; i < ops; i++ {
		k := int64(rng.Intn(keySpace))
		switch rng.Intn(6) {
		case 0, 1:
			v := int64(i)
			if m.Insert(k, v) {
				ref[k] = v
			}
		case 2:
			m.Upsert(k, int64(-i))
			ref[k] = int64(-i)
		case 3:
			m.Remove(k)
			delete(ref, k)
		case 4:
			hi := k + int64(rng.Intn(64))
			m.RangeUpdate(k, hi, func(_ int64, v int64) int64 { return v + 1 })
			for rk := range ref {
				if rk >= k && rk <= hi {
					ref[rk]++
				}
			}
		default:
			v, ok := m.Lookup(k)
			want, had := ref[k]
			if ok != had || (ok && v != want) {
				t.Fatalf("op %d: Lookup(%d) diverged from model", i, k)
			}
		}
		if i%1000 == 999 && len(pins) < 8 {
			takePin()
		}
		if i%37 == 0 {
			stepPins(3) // lazy stepping, interleaved with churn
		}
	}
	// Drain every remaining cursor to exhaustion.
	stepPins(2 * keySpace)
	for i := range pins {
		if pins[i].c != nil {
			t.Fatalf("pin %d: cursor still unfinished after full drain", i)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}
