package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skipvector/internal/chaos"
	"skipvector/internal/lincheck"
)

// stressChaosConfig is the injector tuning shared by the chaos stress
// suite: frequent forced validation/CAS failures drive the restart and
// checkpoint-resume paths, yields and occasional delays stretch the
// freeze/split/merge/orphan windows other goroutines must navigate.
// SV_SEED (via stressSeed) replaces the per-test seed for replays; the
// chaos.Report each campaign logs on completion prints the seed in effect.
func stressChaosConfig(seed uint64) chaos.Config {
	return chaos.Config{
		Seed:       stressSeed(seed),
		FailOneIn:  48,
		YieldOneIn: 24,
		DelayOneIn: 4096,
		Delay:      5 * time.Microsecond,
	}
}

// TestChaosStressDifferential runs chaos-perturbed concurrent workloads
// against a mutex-guarded reference map. Each goroutine owns a disjoint
// key stripe, so its (skip vector op, reference op) pairs need not be
// atomic and every operation's result is exactly predicted by the
// reference. The run ends with a full content comparison and
// CheckInvariants, proving the forced interleavings never corrupted the
// structure.
func TestChaosStressDifferential(t *testing.T) {
	cfgs := map[string]Config{
		"tiny-chunks": testConfigs()["tiny-chunks"],
		"default":     testConfigs()["default"],
		"leak":        testConfigs()["leak"],
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			const goroutines = 6
			opsPerG := 2500
			if testing.Short() {
				opsPerG = 600
			}
			m := newTestMap(t, cfg)
			ref := make(map[int64]int64)
			var refMu sync.Mutex

			seed := uint64(0xd1ff + len(name))
			chaos.Enable(stressChaosConfig(seed))
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					base := int64(g) * 10_000 // disjoint stripe per goroutine
					rng := rand.New(rand.NewSource(int64(g) + 42))
					for i := 0; i < opsPerG; i++ {
						k := base + int64(rng.Intn(256))
						switch rng.Intn(6) {
						case 0, 1:
							v := int64(i)
							got := m.Insert(k, &v)
							refMu.Lock()
							_, had := ref[k]
							if got == had {
								refMu.Unlock()
								t.Errorf("Insert(%d) = %t but reference had=%t (chaos seed %#x)", k, got, had, seed)
								return
							}
							if got {
								ref[k] = v
							}
							refMu.Unlock()
						case 2:
							got := m.Remove(k)
							refMu.Lock()
							_, had := ref[k]
							if got != had {
								refMu.Unlock()
								t.Errorf("Remove(%d) = %t but reference had=%t (chaos seed %#x)", k, got, had, seed)
								return
							}
							delete(ref, k)
							refMu.Unlock()
						default:
							v, got := m.Lookup(k)
							refMu.Lock()
							want, had := ref[k]
							if got != had || (got && *v != want) {
								refMu.Unlock()
								t.Errorf("Lookup(%d) mismatch (chaos seed %#x)", k, seed)
								return
							}
							refMu.Unlock()
						}
					}
				}(g)
			}
			wg.Wait()
			rep := chaos.Disable()
			t.Logf("%v", rep)
			if t.Failed() {
				return
			}
			if rep.Fails() == 0 || rep.Perturbations() == 0 {
				t.Fatalf("chaos injected nothing: %v", rep)
			}
			// Differential sweep: the map must equal the reference exactly.
			if m.Len() != len(ref) {
				t.Fatalf("Len = %d, reference holds %d", m.Len(), len(ref))
			}
			for k, want := range ref {
				v, ok := m.Lookup(k)
				if !ok || *v != want {
					t.Fatalf("key %d: got (%v,%t), want %d", k, v, ok, want)
				}
			}
			for _, k := range m.Keys() {
				if _, ok := ref[k]; !ok {
					t.Fatalf("map holds key %d absent from reference", k)
				}
			}
			mustCheck(t, m)
		})
	}
}

// TestChaosStressSharedKeys hammers a small shared key space under chaos
// so every forced failure lands amid real contention, then verifies the
// per-key accounting identity and the structural invariants. Insertion
// races, merge/freeze collisions, and hand-over-hand removals all run
// against injected yields here.
func TestChaosStressSharedKeys(t *testing.T) {
	cfg := testConfigs()["tiny-chunks"]
	const goroutines, keySpace = 8, 48
	opsPerG := 2000
	if testing.Short() {
		opsPerG = 500
	}
	m := newTestMap(t, cfg)
	var inserts, removes [keySpace]atomic.Int64
	chaos.Enable(stressChaosConfig(0x5a7ed))
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
				default:
					if v, found := m.Lookup(k); found && *v != k {
						t.Errorf("Lookup(%d) = %d", k, *v)
						return
					}
				}
			}
		}(int64(g) + 5)
	}
	wg.Wait()
	rep := chaos.Disable()
	t.Logf("%v", rep)
	if t.Failed() {
		return
	}
	if rep.Sites[chaos.SeqlockValidate].Fails == 0 {
		t.Fatalf("no forced validation failures under contention: %v", rep)
	}
	mustCheck(t, m)
	for k := 0; k < keySpace; k++ {
		diff := inserts[k].Load() - removes[k].Load()
		if diff != 0 && diff != 1 {
			t.Fatalf("key %d: inserts-removes = %d", k, diff)
		}
		_, present := m.Lookup(int64(k))
		if present != (diff == 1) {
			t.Fatalf("key %d: present=%t but diff=%d", k, present, diff)
		}
	}
}

// TestChaosStressRangeOps runs serializable range queries against
// chaos-perturbed point mutations: forced validation failures make the
// optimistic window read restart and fall back to 2PL, forced upgrade
// failures hit lockedRange's acquisition loop, and yields stretch both the
// unlocked read and the locked window.
func TestChaosStressRangeOps(t *testing.T) {
	cfg := testConfigs()["tiny-chunks"]
	const keySpace = 192
	iters := 120
	if testing.Short() {
		iters = 40
	}
	m := newTestMap(t, cfg)
	for k := int64(0); k < keySpace; k += 2 {
		m.Insert(k, v64(k))
	}
	chaos.Enable(stressChaosConfig(0xa11f))
	var stop atomic.Bool
	var mutators, readers sync.WaitGroup
	for g := 0; g < 3; g++ {
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
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				lo := int64(rng.Intn(keySpace))
				hi := lo + int64(rng.Intn(64))
				prev := int64(-1)
				m.RangeQuery(lo, hi, func(k int64, v *int64) bool {
					if k < lo || k > hi || k <= prev || v == nil || *v != k {
						t.Errorf("inconsistent range scan [%d,%d] at key %d", lo, hi, k)
						return false
					}
					prev = k
					return true
				})
				if t.Failed() {
					return
				}
			}
		}(int64(g) + 101)
	}
	readers.Wait()
	stop.Store(true)
	mutators.Wait()
	rep := chaos.Disable()
	t.Logf("%v", rep)
	if t.Failed() {
		return
	}
	if r := m.Stats().RestartsRange; r == 0 {
		t.Error("injected failures caused no range restart")
	} else {
		t.Logf("range restarts: %d", r)
	}
	mustCheck(t, m)
}

// TestChaosLinearizability records short concurrent histories while chaos
// forces the restart paths, and checks each against the sequential map
// specification — the hard interleavings must stay linearizable, not just
// structurally sound.
func TestChaosLinearizability(t *testing.T) {
	cfg := testConfigs()["tiny-chunks"]
	rounds := 40
	if testing.Short() {
		rounds = 12
	}
	const (
		procs    = 3
		opsEach  = 4
		keySpace = 3
	)
	seed := uint64(0x11c)
	chaos.Enable(stressChaosConfig(seed))
	defer chaos.Disable()
	for round := 0; round < rounds; round++ {
		m := newTestMap(t, cfg)
		rec := lincheck.NewRecorder()
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(p int, rseed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(rseed))
				for i := 0; i < opsEach; i++ {
					k := int64(rng.Intn(keySpace))
					switch rng.Intn(3) {
					case 0:
						v := int64(p*1000 + i)
						inv := rec.Begin()
						ok := m.Insert(k, &v)
						rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindInsert, Key: k, Val: v, RetOK: ok}, inv)
					case 1:
						inv := rec.Begin()
						ok := m.Remove(k)
						rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindRemove, Key: k, RetOK: ok}, inv)
					default:
						inv := rec.Begin()
						pv, ok := m.Lookup(k)
						var rv int64
						if ok {
							rv = *pv
						}
						rec.End(lincheck.Event{Proc: p, Kind: lincheck.KindLookup, Key: k, RetOK: ok, RetVal: rv}, inv)
					}
				}
			}(p, int64(round*131+p))
		}
		wg.Wait()
		if ok, msg := lincheck.Check(rec.History()); !ok {
			t.Fatalf("round %d (chaos seed %#x): %s\n%s", round, seed, msg, m.Dump())
		}
		mustCheck(t, m)
	}
}

// TestChaosSeedReproducesSchedule drives a fixed single-goroutine workload
// twice with the same chaos seed: the recorded injection schedule and the
// resulting map contents must be identical, which is the seed-reproduction
// workflow a failing stress run's log line hands to the investigator.
func TestChaosSeedReproducesSchedule(t *testing.T) {
	run := func(seed uint64) ([]int64, chaos.Report) {
		m := newTestMap(t, testConfigs()["tiny-chunks"])
		chaos.Enable(chaos.Config{Seed: seed, FailOneIn: 16, YieldOneIn: 8, Record: true})
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 800; i++ {
			k := int64(rng.Intn(64))
			switch rng.Intn(3) {
			case 0:
				v := int64(i)
				m.Insert(k, &v)
			case 1:
				m.Remove(k)
			default:
				m.Lookup(k)
			}
		}
		rep := chaos.Disable()
		mustCheck(t, m)
		return m.Keys(), rep
	}
	keys1, rep1 := run(0x51eed)
	keys2, rep2 := run(0x51eed)
	if rep1.Steps != rep2.Steps {
		t.Fatalf("step counts differ: %d vs %d", rep1.Steps, rep2.Steps)
	}
	if len(rep1.Trace) == 0 {
		t.Fatal("no injections recorded; tuning too weak for the test")
	}
	if len(rep1.Trace) != len(rep2.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(rep1.Trace), len(rep2.Trace))
	}
	for i := range rep1.Trace {
		if rep1.Trace[i] != rep2.Trace[i] {
			t.Fatalf("decision %d differs: %+v vs %+v", i, rep1.Trace[i], rep2.Trace[i])
		}
	}
	if len(keys1) != len(keys2) {
		t.Fatalf("final contents differ: %d vs %d keys", len(keys1), len(keys2))
	}
	for i := range keys1 {
		if keys1[i] != keys2[i] {
			t.Fatalf("final key %d differs: %d vs %d", i, keys1[i], keys2[i])
		}
	}
}
