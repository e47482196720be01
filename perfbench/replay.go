package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"skipvector"
	"skipvector/internal/core"
	"skipvector/internal/shard"
	"skipvector/internal/vectormap"
	"skipvector/internal/wal"
)

// stream is a workload's seeded op stream, recorded once before any replay,
// split by the kind of call each layer replays.
type stream struct {
	base   []int64    // resident keys before the first op, ascending
	reads  []int64    // point reads; a window scan contributes its low key
	puts   []int64    // written keys in stream order
	dels   []int64    // removed keys in stream order
	ranges [][2]int64 // window scans, inclusive bounds
}

// replayOps bounds how many requests a stream records.
const replayOps = 1 << 16

// durableBatches bounds the fsync-bound replays (log and DurableMap).
const durableBatches = 256

// scanLen is the scan length replayed from each read key for streams
// without window scans of their own.
const scanLen = 64

// removeKeys is what the remove pass replays: the stream's own removes, or
// for streams without any, the keys it wrote.
func (st *stream) removeKeys() []int64 {
	if len(st.dels) > 0 {
		return st.dels
	}
	return st.puts
}

// batches groups the written keys in stream order into sorted groups of 64,
// the unit of ApplyBatch in every batch replay.
func (st *stream) batches(limit int) [][]int64 {
	var out [][]int64
	for i := 0; i+64 <= len(st.puts) && len(out) < limit; i += 64 {
		g := slices.Clone(st.puts[i : i+64])
		slices.Sort(g)
		out = append(out, slices.Compact(g))
	}
	return out
}

// runTraced is the per-layer run: an untraced and a traced phase of half
// the run each, the library's counters across both, then single-goroutine
// replays of the recorded stream through each layer.
func runTraced(w scenario, cfg runCfg, name string) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	if _, err := w.setup(); err != nil {
		return nil, err
	}
	st := w.stream()
	if _, err := w.phase(warmup, nil); err != nil {
		return nil, err
	}
	c0 := w.counters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	half := secondsDur(cfg.seconds / 2)
	plain, err := w.phase(half, nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	tr := newTracer()
	traced, err := w.phase(half, tr)
	if err != nil {
		return nil, err
	}
	c1 := w.counters()
	for _, p := range []*phaseResult{plain, traced} {
		o.attempted += p.attempted
		o.failed += p.failed
	}
	w.verify(o)

	counterMetrics(o.metrics, c0, c1, plain.ops+traced.ops)
	o.metrics["gc.alloc_bytes_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(plain.ops)
	o.metrics["gc.pause_ms_total"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	o.metrics["gen.lag_p99_us"] = plain.gen.quantile(0.99) / 1e3
	o.metrics["trace.overhead_ratio"] = (float64(traced.ops) / traced.elapsed.Seconds()) /
		(float64(plain.ops) / plain.elapsed.Seconds())

	// The live structure is done with; free it before the replays build
	// their own copies of the initial state.
	w.close()
	debug.FreeOSMemory()

	rp, err := replayLayers(st, tr, cfg.workDir, c1.dataOccupancy)
	if err != nil {
		return nil, err
	}
	for k, v := range rp.metrics {
		o.metrics[k] = v
	}
	migrationMetrics(o.metrics, rp.migrations, rp.shards)
	if c1.wal == nil {
		c1.wal = rp.wal
	}
	walMetrics(o.metrics, c0.wal, c1.wal)

	fmt.Fprintf(cfg.out, "clock read pair %.1f ns (subtracted from every per-call figure)\n", tr.clockNs)
	fmt.Fprintf(cfg.out, "replayed %d reads, %d puts, %d removes, %d window scans over %d resident keys\n",
		len(st.reads), len(st.puts), len(st.removeKeys()), len(st.ranges), len(st.base))
	printSelfTimes(cfg.out, tr)
	path := filepath.Join(cfg.workDir, "..", "trace", fmt.Sprintf("%s-seed%d.spans.tsv.gz", name, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out, "spans: %d written to %s (%d live spans past the buffer limit dropped)\n",
		len(tr.spans), filepath.Clean(path), tr.dropped)
	return o, nil
}

// counters is what the library reports about itself through Stats() and
// Metrics().
type counters struct {
	stats         core.StatsSnapshot
	wal           map[string]float64
	dataOccupancy float64
}

func counterMetrics(m map[string]float64, c0, c1 counters, ops int64) {
	d, a := c1.stats, c0.stats
	d.Restarts -= a.Restarts
	d.Splits -= a.Splits
	d.Merges -= a.Merges
	d.RetiredTotal -= a.RetiredTotal
	d.Reclaimed -= a.Reclaimed
	d.FingerHits -= a.FingerHits
	d.FingerMisses -= a.FingerMisses
	d.BatchDescentsSaved -= a.BatchDescentsSaved
	kops := float64(ops) / 1e3
	m["core.restarts_per_kop"] = float64(d.Restarts) / kops
	m["core.splits_per_kop"] = float64(d.Splits) / kops
	m["core.merges_per_kop"] = float64(d.Merges) / kops
	m["hazard.reclaimed_ratio"] = ratio(d.Reclaimed, d.RetiredTotal)
	m["core.finger_hit_ratio"] = ratio(d.FingerHits, d.FingerHits+d.FingerMisses)
	m["core.batch_descents_saved_ratio"] = float64(d.BatchDescentsSaved) / float64(ops)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// migrationSpan is one forced split or merge of the S=1 replay map.
type migrationSpan struct {
	dur   time.Duration
	moved bool
	mig   shard.Migration
}

func migrationMetrics(m map[string]float64, migs []migrationSpan, shards int) {
	var total time.Duration
	var moved, copied, reconciled, aborts int
	var sealMax time.Duration
	for _, s := range migs {
		total += s.dur
		if !s.moved {
			continue
		}
		moved++
		copied += s.mig.Copied
		reconciled += s.mig.Reconciled
		sealMax = max(sealMax, s.mig.Sealed)
		if s.mig.Aborted {
			aborts++
		}
	}
	m["shard.migrations"] = float64(moved)
	m["shard.rebalance_ms"] = total.Seconds() * 1e3
	m["shard.seal_ms_max"] = sealMax.Seconds() * 1e3
	m["shard.keys_copied"] = float64(copied)
	m["shard.reconciled"] = float64(reconciled)
	m["shard.aborts"] = float64(aborts)
	m["shard.count_final"] = float64(shards)
}

func walMetrics(m map[string]float64, w0, w1 map[string]float64) {
	d := func(name string) float64 { return w1[name] - w0[name] } // a nil w0 reads as zeros
	bytes, recs := d("sv_wal_bytes_appended_total"), d("sv_wal_records_appended_total")
	m["wal.group_commit_size"] = recs / max(d("sv_wal_fsyncs_total"), 1)
	m["wal.bytes_per_record"] = bytes / max(recs, 1)
	m["wal.bytes_per_user_byte"] = bytes / max(w1["user_bytes"]-w0["user_bytes"], 1)
}

type replayResult struct {
	metrics    map[string]float64
	migrations []migrationSpan
	shards     int
	wal        map[string]float64
}

// replayLayers replays st through each layer alone and stacked, one
// goroutine, each layer starting from the same resident keys.
func replayLayers(st *stream, tr *tracer, dir string, occupancy float64) (*replayResult, error) {
	r := &replayResult{metrics: map[string]float64{}}
	m := r.metrics
	val := uint64(1)
	// Two copies of the initial state are live at once below; collect
	// early so the process stays near their size rather than twice it.
	defer debug.SetGCPercent(debug.SetGCPercent(25))

	cfg := core.DefaultConfig()
	ptrs := make([]*uint64, len(st.base))
	for i := range ptrs {
		ptrs[i] = &val
	}
	cm, err := core.BulkLoad(cfg, st.base, ptrs)
	if err != nil {
		return nil, err
	}
	if occupancy <= 0 {
		// The facade does not expose its chunk fill: use the bulk-loaded fill.
		occupancy = cm.Occupancy().DataMean
	}

	// vectormap: standalone chunks filled to the measured occupancy.
	occ := max(int(math.Round(occupancy)), 1)
	cd := newChunkDir(st.base, occ, &val)
	m["vectormap.search_ns"] = tr.pass("vectormap/get", len(st.reads), func(i int) int {
		cd.at(st.reads[i]).Get(st.reads[i])
		return 1
	})
	writes := append(slices.Clone(st.puts), st.dels...)
	m["vectormap.update_ns"] = tr.pass("vectormap/update", len(writes), func(i int) int {
		k := writes[i]
		if i < len(st.puts) {
			cd.room(k).Insert(k, &val)
		} else {
			cd.at(k).Remove(k)
		}
		return 1
	})
	cd = nil
	debug.FreeOSMemory()

	// core against shard (S=1) and against the facade, in lockstep: each
	// request goes through both, so a layer's own cost is the per-request
	// difference, measured under the same host conditions.
	ch := cm.NewHandle()
	sm, err := shard.New[uint64](cfg, nil)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(st.base); i += 4096 {
		sm.ApplyBatch(coreBatch(st.base[i:min(i+4096, len(st.base))], &val))
	}
	sh := sm.NewHandle()
	m["core.lookup_ns"], m["shard.route_ns"] = tr.pair("core/lookup", "shard/lookup", len(st.reads),
		func(i int) int { ch.Lookup(st.reads[i]); return 1 },
		func(i int) int { sh.Lookup(st.reads[i]); return 1 })
	sh.Close()
	if len(st.base) >= 2 {
		mid := st.base[len(st.base)/2]
		for _, move := range []func() (shard.Migration, error){
			func() (shard.Migration, error) { return sm.SplitShard(0, mid) },
			func() (shard.Migration, error) { return sm.MergeShards(0) },
		} {
			sp := tr.open("shard/migrate", -1, -1)
			t0 := time.Now()
			mig, err := move()
			r.migrations = append(r.migrations, migrationSpan{dur: time.Since(t0), moved: err == nil, mig: mig})
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("shard replay migration: %w", err)
			}
		}
	}
	r.shards = sm.ShardCount()
	sm = nil
	debug.FreeOSMemory()

	vals := make([]uint64, len(st.base))
	fm, err := skipvector.NewFromSorted(st.base, vals)
	if err != nil {
		return nil, err
	}
	fh := fm.NewHandle()
	_, m["facade.lookup_ns"] = tr.pair("core/lookup", "facade/lookup", len(st.reads),
		func(i int) int { ch.Lookup(st.reads[i]); return 1 },
		func(i int) int { fh.Lookup(st.reads[i]); return 1 })
	m["core.insert_ns"], _ = tr.pair("core/insert", "facade/insert", len(st.puts),
		func(i int) int { ch.Insert(st.puts[i], &val); return 1 },
		func(i int) int { fh.Insert(st.puts[i], 1); return 1 })
	rm := st.removeKeys()
	m["core.remove_ns"], _ = tr.pair("core/remove", "facade/remove", len(rm),
		func(i int) int { ch.Remove(rm[i]); return 1 },
		func(i int) int { fh.Remove(rm[i]); return 1 })
	m["core.upsert_ns"], m["facade.upsert_ns"] = tr.pair("core/upsert", "facade/upsert", len(st.puts),
		func(i int) int { ch.Upsert(st.puts[i], &val); return 1 },
		func(i int) int { fh.Upsert(st.puts[i], 1); return 1 })
	fh.Close()
	fm, vals = nil, nil
	debug.FreeOSMemory()

	groups := st.batches(math.MaxInt)
	m["core.batch64_ns_per_key"] = tr.pass("core/batch", len(groups), func(i int) int {
		ch.ApplyBatch(coreBatch(groups[i], &val))
		return len(groups[i])
	})
	m["core.range_ns_per_key"] = replayScans(tr, st, cm)
	ch.Close()
	cm, ptrs = nil, nil
	debug.FreeOSMemory()

	// Commit tax: the same batches into an empty core.Map and an empty
	// DurableMap under the default fsync-per-commit policy, in lockstep.
	dg := st.batches(durableBatches)
	em, err := core.NewMap[uint64](cfg)
	if err != nil {
		return nil, err
	}
	ddir, err := os.MkdirTemp(dir, "replay-durable-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ddir)
	dm, err := skipvector.OpenDurable(ddir, skipvector.Int64Codec())
	if err != nil {
		return nil, err
	}
	var derr error
	_, m["facade.durable_commit_ns_per_key"] = tr.pair("core/batch-empty", "durable/batch", len(dg),
		func(i int) int { em.ApplyBatch(coreBatch(dg[i], &val)); return len(dg[i]) },
		func(i int) int {
			ops := make([]skipvector.BatchOp[int64], len(dg[i]))
			for j, k := range dg[i] {
				ops[j] = skipvector.BatchOp[int64]{Key: k, Val: int64(k)}
			}
			if _, err := dm.ApplyBatch(ops); err != nil && derr == nil {
				derr = err
			}
			return len(ops)
		})
	if err := dm.Close(); err != nil && derr == nil {
		derr = err
	}
	if derr != nil {
		return nil, fmt.Errorf("durable replay: %w", derr)
	}

	return r, replayLog(r, tr, dg, dir)
}

// replayLog drives wal.Log directly: one commit unit per batch, then a
// Commit (fsync) per unit, then a timed reopen of the whole log.
func replayLog(r *replayResult, tr *tracer, groups [][]int64, dir string) error {
	ldir, err := os.MkdirTemp(dir, "replay-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(ldir)
	l, _, err := wal.Open(ldir, wal.Options{})
	if err != nil {
		return err
	}
	units := make([][]wal.Op, len(groups))
	var userBytes float64
	for i, g := range groups {
		for _, k := range g {
			v := make([]byte, 8)
			skipvector.Int64Codec().Append(v[:0], k)
			units[i] = append(units[i], wal.Op{Key: k, Val: v})
			userBytes += 16
		}
	}
	var lerr error
	note := func(err error) {
		if err != nil && lerr == nil {
			lerr = err
		}
	}
	// Each unit's appends (its batch part and commit marker: two records)
	// and its Commit (the fsync) are separate spans of one request.
	parent := tr.open("wal/replay", -1, -1)
	appendID, commitID := tr.id("wal/append"), tr.id("wal/commit")
	var appends, fsyncs []float64
	for i, ops := range units {
		s := tr.now()
		u := l.BeginUnit()
		note(l.AppendBatchPart(u, ops))
		note(l.EndUnit(u))
		e := tr.now()
		note(l.Commit())
		f := tr.now()
		tr.spans = append(tr.spans,
			span{name: appendID, parent: parent, op: int64(i), start: s, end: e},
			span{name: commitID, parent: parent, op: int64(i), start: e, end: f})
		appends = append(appends, (float64(e-s)-tr.clockNs)/2)
		fsyncs = append(fsyncs, float64(f-e)-tr.clockNs)
	}
	tr.end(parent)
	r.metrics["wal.append_ns_per_record"] = iqMean(appends)
	r.metrics["wal.fsync_us"] = iqMean(fsyncs) / 1e3
	r.wal = promValues(l.Registry().WritePrometheus)
	r.wal["user_bytes"] = userBytes
	note(l.Close())
	if lerr != nil {
		return fmt.Errorf("log replay: %w", lerr)
	}
	sp := tr.open("wal/reopen", -1, -1)
	t0 := time.Now()
	l2, rec, err := wal.Open(ldir, wal.Options{})
	el := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return err
	}
	r.metrics["wal.replay_ns_per_record"] = float64(el.Nanoseconds()) / float64(max(rec.ScannedRecords, 1))
	return l2.Close()
}

// promValues reads every unlabelled sample of a Prometheus text exposition.
func promValues(write func(io.Writer) error) map[string]float64 {
	var b strings.Builder
	out := map[string]float64{}
	if write(&b) != nil {
		return out
	}
	for _, line := range strings.Split(b.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] += v
		}
	}
	return out
}

func coreBatch(keys []int64, v *uint64) []core.BatchOp[uint64] {
	ops := make([]core.BatchOp[uint64], len(keys))
	for i, k := range keys {
		ops[i] = core.BatchOp[uint64]{Key: k, Val: v}
	}
	return ops
}

// replayScans replays the stream's window scans, or for streams without
// any, a window from each read key holding about scanLen resident keys.
// RangeQuery locks its whole window before delivering, so the window must
// be bounded, not left open and stopped early.
func replayScans(tr *tracer, st *stream, cm *core.Map[uint64]) float64 {
	wins := st.ranges
	if len(wins) == 0 && len(st.base) > 1 {
		span := (st.base[len(st.base)-1] - st.base[0]) / int64(len(st.base)) * scanLen
		for _, k := range st.reads {
			wins = append(wins, [2]int64{k, k + span})
		}
	}
	return tr.pass("core/range", len(wins), func(i int) int {
		n := 0
		cm.RangeQuery(wins[i][0], wins[i][1], func(int64, *uint64) bool { n++; return true })
		return n
	})
}

// chunkDir is a sorted directory of standalone chunks: the data layer of a
// skip vector without the index above it. Locating a chunk is not timed.
type chunkDir struct {
	mins []int64
	cs   []*vectormap.Chunk[uint64]
}

func newChunkDir(keys []int64, occ int, v *uint64) *chunkDir {
	target := core.DefaultConfig().TargetDataVectorSize
	occ = min(occ, 2*target)
	d := &chunkDir{}
	for i := 0; i < len(keys) || i == 0; i += occ {
		c := new(vectormap.Chunk[uint64])
		c.Init(target, core.DefaultConfig().SortedData)
		lo := int64(math.MinInt64 + 1)
		if i > 0 {
			lo = keys[i]
		}
		for _, k := range keys[i:min(i+occ, len(keys))] {
			c.Insert(k, v)
		}
		d.mins = append(d.mins, lo)
		d.cs = append(d.cs, c)
	}
	return d
}

func (d *chunkDir) index(k int64) int {
	return max(sort.Search(len(d.mins), func(j int) bool { return d.mins[j] > k })-1, 0)
}

func (d *chunkDir) at(k int64) *vectormap.Chunk[uint64] { return d.cs[d.index(k)] }

// room returns the chunk for k, splitting it first when an insert of k
// would overflow it.
func (d *chunkDir) room(k int64) *vectormap.Chunk[uint64] {
	i := d.index(k)
	c := d.cs[i]
	if !c.Full() || c.Contains(k) {
		return c
	}
	nc := new(vectormap.Chunk[uint64])
	nc.Init(core.DefaultConfig().TargetDataVectorSize, c.Sorted())
	sep := c.SplitUpperHalfTo(nc)
	d.mins = slices.Insert(d.mins, i+1, sep)
	d.cs = slices.Insert(d.cs, i+1, nc)
	return d.at(k)
}

func printSelfTimes(w io.Writer, tr *tracer) {
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "span self times:")
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %12.3f ms\n", n, float64(self[n])/1e6)
	}
}
