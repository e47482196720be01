package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"skipvector/internal/core"
	"skipvector/internal/workload"
)

// scanMode selects the long-scan strategy of the writers-vs-scanners trial.
type scanMode int

const (
	// scanSnapshot pins an MVCC snapshot and iterates it: consistent by
	// construction, never restarts, never blocks the writers.
	scanSnapshot scanMode = iota
	// scanOptimistic is the strategy an application is forced into without
	// snapshots: scan the live map hand-over-hand, then validate against a
	// global write counter and throw the scan away if anything changed.
	// Under sustained writes it almost never validates.
	scanOptimistic
	// scanLocked reads through the live map's Ascend. A full-map window is
	// longer than the optimistic range read accepts, so Ascend takes its
	// 2PL fallback: consistent and restart-free, but it holds every data
	// lock for the whole scan and stalls the writers.
	scanLocked
)

func (m scanMode) String() string {
	switch m {
	case scanSnapshot:
		return "snapshot"
	case scanOptimistic:
		return "optimistic"
	case scanLocked:
		return "locked"
	}
	return fmt.Sprintf("scanMode(%d)", int(m))
}

// snapTrialResult is one writers-vs-scanners trial's outcome.
type snapTrialResult struct {
	// scans is the number of consistent full-map scans the scanner finished.
	// For the optimistic mode only validated scans count.
	scans int64
	// restarts is the number of scans thrown away by failed validation.
	// Snapshot and locked scans are restart-free by construction.
	restarts int64
	// keys is the total number of pairs delivered by counted scans.
	keys int64
	// writerOps is the total operation count across the writer goroutines.
	writerOps int64
	elapsed   time.Duration
}

// FigSnapshot runs the writers-vs-scanners ablation behind the snapshot
// subsystem: W uniform writers churn the map at full speed while one scanner
// repeatedly performs a consistent full-map scan, once per strategy. The
// snapshot column must finish long scans with zero restarts while the
// writers keep their throughput; the optimistic baseline shows why that is
// not trivial (its validation loop restarts essentially every attempt), and
// the locked column shows the cost of the classic alternative (consistency
// bought by stalling every writer for the scan's duration).
func FigSnapshot(s Scale) (*Table, error) {
	keyRange := Pow2(s.SensitivityRangeExp)
	threads := s.SensitivityThreads
	t := NewTable(
		fmt.Sprintf("Writers vs. scanners: full-map scans against %d uniform writers, 2^%d keys",
			threads, s.SensitivityRangeExp),
		"scan strategy", []string{"scans", "restarts", "scan keys/s", "writer ops/s"})
	for _, mode := range []scanMode{scanSnapshot, scanOptimistic, scanLocked} {
		var agg snapTrialResult
		for rep := 0; rep < s.Reps; rep++ {
			cfg := TrialConfig{
				Threads:  threads,
				Duration: s.Duration,
				KeyRange: keyRange,
				Mix:      workload.MixWriteOnly,
				Seed:     s.Seed + uint64(rep)*0x9e37,
			}
			r, err := runSnapshotScanTrial(cfg, mode)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", mode, err)
			}
			agg.scans += r.scans
			agg.restarts += r.restarts
			agg.keys += r.keys
			agg.writerOps += r.writerOps
			agg.elapsed += r.elapsed
		}
		secs := agg.elapsed.Seconds()
		t.AddRow(mode.String(), []float64{
			float64(agg.scans),
			float64(agg.restarts),
			float64(agg.keys) / secs,
			float64(agg.writerOps) / secs,
		})
	}
	return t, nil
}

// runSnapshotScanTrial runs one timed trial: cfg.Threads writer goroutines
// churn uniform keys (insert/remove/upsert in rotation) while a single
// scanner goroutine repeats full-map scans with the given strategy. Writers
// publish a shared write counter; the optimistic scanner uses it as its
// validation token, which is exactly the consistency protocol an application
// without snapshots would have to build.
func runSnapshotScanTrial(cfg TrialConfig, mode scanMode) (snapTrialResult, error) {
	if err := cfg.Validate(); err != nil {
		return snapTrialResult{}, err
	}
	sv := NewSkipVector(svConfig(cfg.KeyRange, 32, 32, core.ReclaimHazard)).(*svMap)
	Prefill(sv, cfg.KeyRange, cfg.Seed, cfg.Threads)

	var (
		stop         atomic.Bool
		writes       atomic.Int64
		start, done  sync.WaitGroup
		writerCounts = make([]int64, cfg.Threads)
		res          snapTrialResult
		scanErr      error
	)
	root := workload.NewRNG(cfg.Seed ^ 0x5eed)
	start.Add(1)
	for t := 0; t < cfg.Threads; t++ {
		rng := root.Split()
		keys := workload.NewUniform(rng, cfg.KeyRange)
		done.Add(1)
		go func(id int, keys workload.KeyGen) {
			defer done.Done()
			sess := sv.NewSession()
			defer sess.Close()
			us := sess.(*svSession)
			start.Wait()
			var local int64
			for !stop.Load() {
				for i := 0; i < 64; i++ {
					k := keys.Next()
					switch local % 3 {
					case 0:
						us.Insert(k, uint64(k))
					case 1:
						us.Remove(k)
					default:
						us.Upsert(k, uint64(k))
					}
					local++
					writes.Add(1)
				}
			}
			writerCounts[id] = local
		}(t, keys)
	}

	// ascendingCheck returns a visitor that counts pairs and verifies the
	// scan stays sorted — a cheap teeth check that the scan delivered a real
	// ordered view rather than garbage.
	ascendingCheck := func(n *int64, prev *int64) func(k int64, v *uint64) bool {
		*prev = core.MinKey
		return func(k int64, _ *uint64) bool {
			if k <= *prev {
				scanErr = fmt.Errorf("scan went backwards: %d after %d", k, *prev)
				return false
			}
			*prev = k
			*n++
			return true
		}
	}

	done.Add(1)
	go func() {
		defer done.Done()
		start.Wait()
		switch mode {
		case scanSnapshot:
			for !stop.Load() && scanErr == nil {
				snap := sv.m.Snapshot()
				var n, prev int64
				snap.Ascend(ascendingCheck(&n, &prev))
				snap.Close()
				res.keys += n
				res.scans++
			}
		case scanOptimistic:
			h := sv.m.NewHandle()
			defer h.Close()
			for !stop.Load() && scanErr == nil {
				w0 := writes.Load()
				var n int64
				k := int64(core.MinKey) + 1
				for {
					kk, _, ok := h.Ceiling(k)
					if !ok || kk >= core.MaxKey-1 {
						break
					}
					n++
					k = kk + 1
				}
				if writes.Load() != w0 {
					res.restarts++
					continue
				}
				res.keys += n
				res.scans++
			}
		case scanLocked:
			for !stop.Load() && scanErr == nil {
				var n, prev int64
				sv.m.Ascend(ascendingCheck(&n, &prev))
				res.keys += n
				res.scans++
			}
		}
	}()

	begin := time.Now()
	start.Done()
	timer := time.NewTimer(cfg.Duration)
	<-timer.C
	stop.Store(true)
	done.Wait()
	res.elapsed = time.Since(begin)
	if scanErr != nil {
		return snapTrialResult{}, scanErr
	}
	for _, c := range writerCounts {
		res.writerOps += c
	}
	return res, nil
}
