package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"skipvector/internal/chaos"
)

// stressConfigs are the configurations worth hammering concurrently: tiny
// chunks maximize splits/merges, usl/sl exercise degenerate chunking, and
// both reclamation modes run.
func stressConfigs() map[string]Config {
	all := testConfigs()
	return map[string]Config{
		"default":     all["default"],
		"tiny-chunks": all["tiny-chunks"],
		"usl":         all["usl"],
		"sl":          all["sl"],
		"leak":        all["leak"],
	}
}

// TestConcurrentDisjointKeys gives each goroutine a private key range; every
// operation's result is then fully deterministic even under concurrency.
func TestConcurrentDisjointKeys(t *testing.T) {
	for name, cfg := range stressConfigs() {
		t.Run(name, func(t *testing.T) {
			m := newTestMap(t, cfg)
			const (
				goroutines = 8
				perG       = 300
			)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(base int64) {
					defer wg.Done()
					for i := int64(0); i < perG; i++ {
						k := base + i
						if !m.Insert(k, v64(k)) {
							t.Errorf("Insert(%d) failed", k)
							return
						}
					}
					for i := int64(0); i < perG; i += 2 {
						k := base + i
						if !m.Remove(k) {
							t.Errorf("Remove(%d) failed", k)
							return
						}
					}
					for i := int64(0); i < perG; i++ {
						k := base + i
						v, found := m.Lookup(k)
						want := i%2 == 1
						if found != want {
							t.Errorf("Lookup(%d) = %t, want %t", k, found, want)
							return
						}
						if found && *v != k {
							t.Errorf("Lookup(%d) wrong value %d", k, *v)
							return
						}
					}
				}(int64(g) * 10_000)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if want := goroutines * perG / 2; m.Len() != want {
				t.Fatalf("Len = %d, want %d", m.Len(), want)
			}
			mustCheck(t, m)
		})
	}
}

// TestConcurrentSharedKeys hammers a small key space from many goroutines
// and checks the per-key accounting identity: successful inserts minus
// successful removes equals final presence.
func TestConcurrentSharedKeys(t *testing.T) {
	for name, cfg := range stressConfigs() {
		t.Run(name, func(t *testing.T) {
			m := newTestMap(t, cfg)
			const (
				goroutines = 8
				opsPerG    = 1500
				keySpace   = 64
			)
			var inserts, removes [keySpace]atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < opsPerG; i++ {
						k := int64(rng.Intn(keySpace))
						switch rng.Intn(3) {
						case 0:
							if m.Insert(k, v64(k)) {
								inserts[k].Add(1)
							}
						case 1:
							if m.Remove(k) {
								removes[k].Add(1)
							}
						case 2:
							if v, found := m.Lookup(k); found && *v != k {
								t.Errorf("Lookup(%d) = %d", k, *v)
								return
							}
						}
					}
				}(int64(g) + 1)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			mustCheck(t, m)
			total := 0
			for k := 0; k < keySpace; k++ {
				diff := inserts[k].Load() - removes[k].Load()
				if diff != 0 && diff != 1 {
					t.Fatalf("key %d: inserts-removes = %d", k, diff)
				}
				_, present := m.Lookup(int64(k))
				if present != (diff == 1) {
					t.Fatalf("key %d: present=%t but diff=%d", k, present, diff)
				}
				if present {
					total++
				}
			}
			if m.Len() != total {
				t.Fatalf("Len = %d, want %d", m.Len(), total)
			}
		})
	}
}

// TestConcurrentInsertRace has every goroutine insert the same keys; exactly
// one insert per key may succeed.
func TestConcurrentInsertRace(t *testing.T) {
	cfg := testConfigs()["tiny-chunks"]
	m := newTestMap(t, cfg)
	const (
		goroutines = 8
		keys       = 200
	)
	var wins [keys]atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for k := int64(0); k < keys; k++ {
				if m.Insert(k, v64(id)) {
					wins[k].Add(1)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		if w := wins[k].Load(); w != 1 {
			t.Fatalf("key %d won %d times", k, w)
		}
	}
	if m.Len() != keys {
		t.Fatalf("Len = %d", m.Len())
	}
	mustCheck(t, m)
}

// TestConcurrentRemoveRace pre-fills and lets every goroutine remove the
// same keys; exactly one remove per key may succeed.
func TestConcurrentRemoveRace(t *testing.T) {
	cfg := testConfigs()["tiny-chunks"]
	m := newTestMap(t, cfg)
	const (
		goroutines = 8
		keys       = 200
	)
	for k := int64(0); k < keys; k++ {
		m.Insert(k, v64(k))
	}
	var wins [keys]atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int64(0); k < keys; k++ {
				if m.Remove(k) {
					wins[k].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		if w := wins[k].Load(); w != 1 {
			t.Fatalf("key %d removed %d times", k, w)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
	mustCheck(t, m)
}

// TestConcurrentRangeQueryConsistency runs range queries concurrently with
// point mutations; every query result must be strictly ascending and confined
// to [lo,hi] — a torn traversal would violate one of those.
func TestConcurrentRangeQueryConsistency(t *testing.T) {
	cfg := testConfigs()["tiny-chunks"]
	m := newTestMap(t, cfg)
	const keySpace = 512
	for k := int64(0); k < keySpace; k += 2 {
		m.Insert(k, v64(k))
	}
	var stop atomic.Bool
	var mutators, readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		mutators.Add(1)
		go func(seed int64) {
			defer mutators.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				k := int64(rng.Intn(keySpace))
				if rng.Intn(2) == 0 {
					m.Insert(k, v64(k))
				} else {
					m.Remove(k)
				}
			}
		}(int64(g) + 11)
	}
	// Range readers.
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				lo := int64(rng.Intn(keySpace))
				hi := lo + int64(rng.Intn(128))
				prev := int64(-1)
				okScan := true
				m.RangeQuery(lo, hi, func(k int64, v *int64) bool {
					if k < lo || k > hi || k <= prev || v == nil || *v != k {
						okScan = false
						return false
					}
					prev = k
					return true
				})
				if !okScan {
					t.Errorf("inconsistent range scan [%d,%d]", lo, hi)
					return
				}
			}
		}(int64(g) + 101)
	}
	readers.Wait()
	stop.Store(true)
	mutators.Wait()
	mustCheck(t, m)
}

// TestConcurrentRangeQueryAtomicity checks that a RangeQuery reads its whole
// window at one instant. Updaters increment every key at once with
// RangeUpdate, so every state the map passes through holds a single value
// throughout, and every window a reader delivers must hold a single value
// too. A read that validated each node only as it passed it (and not the
// whole window at the end) would mix values from before and after an
// update whose locks it waited out. Injected yields at the seqlock reads
// and validations stretch the reads so that such updates happen.
func TestConcurrentRangeQueryAtomicity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetDataVectorSize = 2
	m := newTestMap(t, cfg)
	const keySpace = 128
	for k := int64(0); k < keySpace; k++ {
		m.Insert(k, v64(0))
	}
	chaos.Enable(chaos.Config{Seed: 0x5ca1, YieldOneIn: 8, Sites: chaos.MaskOf(chaos.SeqlockRead, chaos.SeqlockValidate)})
	defer chaos.Disable()
	var stop atomic.Bool
	var updaters, readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		updaters.Add(1)
		go func() {
			defer updaters.Done()
			for !stop.Load() {
				m.RangeUpdate(0, keySpace-1, func(_ int64, v *int64) *int64 {
					nv := *v + 1
					return &nv
				})
			}
		}()
	}
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 1000 && !t.Failed(); i++ {
				lo := int64(rng.Intn(keySpace))
				hi := lo + int64(rng.Intn(keySpace))
				var first int64
				n := 0
				m.RangeQuery(lo, hi, func(k int64, v *int64) bool {
					if n == 0 {
						first = *v
					} else if *v != first {
						t.Errorf("window [%d,%d]: key %d holds %d, an earlier key %d", lo, hi, k, *v, first)
						return false
					}
					n++
					return true
				})
				if want := min(hi, keySpace-1) - lo + 1; n != int(want) && !t.Failed() {
					t.Errorf("window [%d,%d]: %d keys, want %d", lo, hi, n, want)
				}
			}
		}(int64(g) + 7)
	}
	readers.Wait()
	stop.Store(true)
	updaters.Wait()
	mustCheck(t, m)
}

// TestConcurrentRangeUpdateAtomicity: each RangeUpdate adds 1 to every value
// in a window. Concurrent point lookups must never observe a value that is
// impossible (greater than total updates applied to that key's windows).
// After quiescence, each key's value equals its initial value plus the
// number of updates covering it.
func TestConcurrentRangeUpdateAtomicity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetDataVectorSize = 4
	m := newTestMap(t, cfg)
	const keySpace = 256
	for k := int64(0); k < keySpace; k++ {
		m.Insert(k, v64(0))
	}
	var covered [keySpace]atomic.Int64
	var wg sync.WaitGroup
	const updaters = 4
	const updatesPerG = 60
	for g := 0; g < updaters; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < updatesPerG; i++ {
				lo := int64(rng.Intn(keySpace))
				hi := lo + int64(rng.Intn(64))
				if hi >= keySpace {
					hi = keySpace - 1
				}
				m.RangeUpdate(lo, hi, func(k int64, v *int64) *int64 {
					nv := *v + 1
					return &nv
				})
				for k := lo; k <= hi; k++ {
					covered[k].Add(1)
				}
			}
		}(int64(g) + 31)
	}
	wg.Wait()
	mustCheck(t, m)
	for k := int64(0); k < keySpace; k++ {
		v, found := m.Lookup(k)
		if !found {
			t.Fatalf("key %d vanished", k)
		}
		if *v != covered[k].Load() {
			t.Fatalf("key %d: value %d, want %d", k, *v, covered[k].Load())
		}
	}
}

// TestConcurrentChurnWithReclamation drives sustained insert/remove churn in
// hazard mode so nodes are retired, scanned, recycled, and reused while
// readers traverse — the scenario hazard pointers exist for.
func TestConcurrentChurnWithReclamation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetDataVectorSize = 2
	cfg.TargetIndexVectorSize = 2
	cfg.LayerCount = 5
	m := newTestMap(t, cfg)
	const keySpace = 128
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 4000; i++ {
				k := int64(rng.Intn(keySpace))
				switch rng.Intn(3) {
				case 0:
					m.Insert(k, v64(k))
				case 1:
					m.Remove(k)
				default:
					if v, found := m.Lookup(k); found && *v != k {
						t.Errorf("corrupt value for %d: %d", k, *v)
						return
					}
				}
			}
		}(int64(g) + 77)
	}
	wg.Wait()
	stop.Store(true)
	if t.Failed() {
		return
	}
	mustCheck(t, m)
	if s := m.Stats(); s.Reuses == 0 {
		t.Logf("warning: churn produced no node reuse (stats %+v)", s)
	}
}

// TestConcurrentLookupDuringSplits drives inserts that force splits while
// readers look up keys known to be present; a reader must never miss one.
func TestConcurrentLookupDuringSplits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetDataVectorSize = 2
	cfg.TargetIndexVectorSize = 2
	m := newTestMap(t, cfg)
	const stable = 200
	// Stable keys at even positions; they are never removed.
	for k := int64(0); k < stable; k++ {
		m.Insert(k*10, v64(k*10))
	}
	var wg sync.WaitGroup
	var stop atomic.Bool
	wg.Add(1)
	go func() { // writer: churns keys between the stable ones
		defer wg.Done()
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < 8000; i++ {
			k := int64(rng.Intn(stable*10))*1 + 1 // odd-ish keys, never multiples of 10
			if k%10 == 0 {
				k++
			}
			if rng.Intn(2) == 0 {
				m.Insert(k, v64(k))
			} else {
				m.Remove(k)
			}
		}
		stop.Store(true)
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				k := int64(rng.Intn(stable)) * 10
				if v, found := m.Lookup(k); !found || *v != k {
					t.Errorf("stable key %d missing or corrupt", k)
					return
				}
			}
		}(int64(r) + 991)
	}
	wg.Wait()
	mustCheck(t, m)
}
