package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"skipvector"
	"skipvector/internal/wal"
	"skipvector/internal/workload"
)

const (
	ingWriters   = 2
	ingBatch     = 64
	ingWindow    = 16      // clock ticks per window scan: the latest 1024 keys
	ingRetain    = 1 << 12 // batches each writer keeps; older ones are deleted
	ingPreloadTS = 1 << 13 // preload timestamps, 64 keys each
	ingPreload   = ingPreloadTS * ingBatch
	ingPreloadW  = 2     // writer id of the preload keys
	ingCrashRuns = 200   // batches per writer in the crash-discard pass
	userBytesKey = 16    // an int64 key and an Int64Codec value
	ingCrashDir  = "/db" // the crash-discard pass's log, on wal.MemFS
)

// ingestKey packs a logical timestamp and a sequence number as
// examples/eventindex does (ts<<20 | seq). Writers take timestamps from one
// shared clock, a batch per tick, so keys ascend at a single right edge.
// The sequence holds the writer id, a per-batch jitter and the position in
// the batch.
func ingestKey(ts int64, w int, jitter int64, j int) int64 {
	return ts<<20 | int64(w)<<16 | jitter<<6 | int64(j)
}

func keyWriter(k int64) int { return int(k>>16) & 0xf }

// sinkFS is the operating system's filesystem until sink is set; from then
// on it drops every byte appended and returns from every Sync at once. The
// preload and its recovery run on the real filesystem; the live run then
// measures the log path (encoding, framing, staging, group commit and the
// Sync call) without the device. fsync latency on a shared virtual disk
// swings several-fold between runs, so no bound could hold on it; the
// traced run times real fsyncs.
type sinkFS struct {
	wal.FS
	sink atomic.Bool
}

type sinkFile struct {
	wal.File
	fs *sinkFS
}

func (f *sinkFS) Create(name string) (wal.File, error) { return f.wrap(f.FS.Create(name)) }

func (f *sinkFS) OpenAppend(name string) (wal.File, error) { return f.wrap(f.FS.OpenAppend(name)) }

func (f *sinkFS) wrap(h wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	return &sinkFile{File: h, fs: f}, nil
}

func (f *sinkFile) Write(p []byte) (int, error) {
	if f.fs.sink.Load() {
		return len(p), nil
	}
	return f.File.Write(p)
}

func (f *sinkFile) Sync() error {
	if f.fs.sink.Load() {
		return nil
	}
	return f.File.Sync()
}

// ingest runs two closed-loop writers on a DurableMap under the default
// SyncEveryCommit policy. Each loops on one ApplyBatch (64 new ascending
// keys at the next clock tick, plus deletes of its batch from ingRetain
// batches ago so the map stays bounded), then scans the latest ingWindow
// ticks: the most recent 1024 keys of both writers.
type ingest struct {
	cfg      runCfg
	dir      string // the log directory, under cfg.workDir
	d        *skipvector.DurableMap[int64]
	clock    atomic.Int64 // last timestamp handed out
	acked    [ingWriters]int64
	batches  [ingWriters][]batchID // each writer's retained batches, by acked mod ingRetain
	rngs     [ingWriters]*workload.RNG
	recovery []float64 // seconds per reopen of the preload log
	user     float64   // user bytes committed since the reopen
	crashed  bool      // the crash-discard pass has run
}

func newIngest(cfg runCfg) *ingest {
	p := &ingest{cfg: cfg}
	for w := range p.rngs {
		p.rngs[w] = clientRNG(cfg.seed, w)
		p.batches[w] = make([]batchID, ingRetain)
	}
	return p
}

// batchOps appends the 64 inserts of batch ts.
func batchOps(ops []skipvector.BatchOp[int64], ts int64, w int, jitter int64) []skipvector.BatchOp[int64] {
	for j := range ingBatch {
		k := ingestKey(ts, w, jitter, j)
		ops = append(ops, skipvector.BatchOp[int64]{Key: k, Val: int64(mix(k)), InsertOnly: true})
	}
	return ops
}

// setup writes the fixed preload into a fresh log, closes it and reopens
// it, so recovery always replays the same log. The preload is written under
// SyncOS, so set-up time does not hang on the device either; the reopened
// map runs under the default SyncEveryCommit.
func (p *ingest) setup() (float64, error) {
	p.close()
	runtime.GC() // the previous map is garbage; do not charge its collection
	dir, err := os.MkdirTemp(p.cfg.workDir, "ingest-")
	if err != nil {
		return 0, err
	}
	p.dir = dir
	fs := &sinkFS{FS: wal.OSFS()}
	t0 := time.Now()
	pre, err := skipvector.OpenDurable(dir, skipvector.Int64Codec(), skipvector.WithWALFS(fs),
		skipvector.WithSyncPolicy(skipvector.SyncOS))
	if err != nil {
		return 0, err
	}
	ops := make([]skipvector.BatchOp[int64], 0, 16*ingBatch)
	for ts := int64(1); ts <= ingPreloadTS; ts += 16 {
		ops = ops[:0]
		for t := ts; t < ts+16; t++ {
			ops = batchOps(ops, t, ingPreloadW, 0)
		}
		if _, err := pre.ApplyBatch(ops); err != nil {
			pre.Close()
			return 0, err
		}
	}
	if err := pre.Close(); err != nil {
		return 0, err
	}
	t1 := time.Now()
	d, err := skipvector.OpenDurable(dir, skipvector.Int64Codec(), skipvector.WithWALFS(fs))
	if err != nil {
		return 0, err
	}
	t2 := time.Now()
	fs.sink.Store(true)
	p.d = d
	p.recovery = append(p.recovery, t2.Sub(t1).Seconds())
	if n := d.Len(); n != ingPreload {
		return 0, fmt.Errorf("ingest: reopened preload holds %d keys, want %d", n, ingPreload)
	}
	p.clock.Store(ingPreloadTS)
	p.acked = [ingWriters]int64{}
	p.user = 0
	return t2.Sub(t0).Seconds(), nil
}

func (p *ingest) resident() int { return p.d.Len() }

// batchID names one writer's batch: its tick and its jitter.
type batchID struct{ ts, jitter int64 }

type writerResult struct {
	clientResult
	keys, scanned int64
}

func (p *ingest) phase(d time.Duration, tr *tracer) (*phaseResult, error) {
	var names [2]int32
	if tr != nil {
		names = [2]int32{tr.id("live/apply-batch"), tr.id("live/range-query")}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	outs := make([]writerResult, ingWriters)
	start := time.Now()
	for w := range ingWriters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[w] = p.writer(w, &stop, tr, names)
		}()
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	res := &phaseResult{elapsed: time.Since(start), gen: newHist()}
	for _, o := range outs {
		res.ops += o.ops
		res.attempted += o.ops
		res.failed += o.failed
		res.reads = append(res.reads, o.rd)
		res.writes = append(res.writes, o.wr)
		res.gen.merge(o.gap)
		res.scanned += o.scanned
		p.user += float64(o.keys * userBytesKey)
		if tr != nil {
			tr.fold(o.spans)
		}
	}
	return res, nil
}

func (p *ingest) writer(w int, stop *atomic.Bool, tr *tracer, names [2]int32) writerResult {
	rng := p.rngs[w]
	r := writerResult{clientResult: clientResult{rd: newHist(), wr: newHist(), gap: newHist()}}
	if tr != nil {
		r.spans = tr.live(spanLimit)
	}
	ops := make([]skipvector.BatchOp[int64], 0, 2*ingBatch)
	var last time.Time
	for !stop.Load() {
		ts := p.clock.Add(1)
		slot := &p.batches[w][p.acked[w]%ingRetain]
		ops = ops[:0]
		if p.acked[w] >= ingRetain {
			for j := range ingBatch {
				ops = append(ops, skipvector.BatchOp[int64]{Key: ingestKey(slot.ts, w, slot.jitter, j), Delete: true})
			}
		}
		dels := len(ops)
		jitter := rng.Intn(1024)
		ops = batchOps(ops, ts, w, jitter)
		t0 := time.Now()
		if !last.IsZero() {
			r.gap.add(t0.Sub(last))
		}
		res, err := p.d.ApplyBatch(ops)
		t1 := time.Now()
		r.wr.add(t1.Sub(t0))
		r.ops += int64(len(ops))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: ApplyBatch:", err)
			r.failed += int64(len(ops))
			last = t1
			continue
		}
		for i, x := range res {
			want := skipvector.BatchInserted
			if i < dels {
				want = skipvector.BatchRemoved
			}
			if x.Outcome != want {
				r.failed++
			}
		}
		*slot = batchID{ts, jitter}
		p.acked[w]++
		r.keys += int64(len(ops))

		// Every own batch in the window must be there in full; the other
		// writer's may still be in flight.
		lo := ts - ingWindow + 1
		var wantOwn int64
		for i := int64(0); i < min(p.acked[w], ingWindow); i++ {
			if p.batches[w][(p.acked[w]-1-i)%ingRetain].ts >= lo {
				wantOwn += ingBatch
			}
		}
		own, n := int64(0), int64(0)
		p.d.RangeQuery(lo<<20, (ts+1)<<20-1, func(k int64, v int64) bool {
			n++
			if keyWriter(k) == w {
				own++
			}
			if v != int64(mix(k)) {
				r.failed++
			}
			return true
		})
		t2 := time.Now()
		last = t2
		r.rd.add(t2.Sub(t1))
		r.ops++
		r.scanned += n
		if own != wantOwn {
			r.failed++
		}
		if r.spans != nil {
			r.spans.add(names[0], int64(w)<<40|r.ops, t0, t1)
			r.spans.add(names[1], int64(w)<<40|r.ops, t1, t2)
		}
	}
	return r
}

func (p *ingest) verify(o *outcome) {
	if err := p.d.CheckInvariants(); err != nil {
		fmt.Fprintln(p.cfg.out, "invariant check:", err)
		o.failed++
	}
	var per [16]int64
	p.d.Ascend(func(k int64, v int64) bool {
		per[keyWriter(k)]++
		if v != int64(mix(k)) {
			o.failed++
		}
		return true
	})
	want := [16]int64{ingPreloadW: ingPreload}
	for w := range ingWriters {
		want[w] = min(p.acked[w], ingRetain) * ingBatch
	}
	for w := range per {
		if per[w] != want[w] {
			fmt.Fprintf(p.cfg.out, "final sweep: writer %d has %d keys, %d acknowledged and retained\n", w, per[w], want[w])
			o.failed += max(per[w]-want[w], want[w]-per[w])
		}
	}
	if !p.crashed {
		p.crashed = true
		p.crashCheck(o)
	}
}

// crashCheck runs the ingest stream on an in-memory filesystem, drops every
// byte not yet synced with MemFS.Crash, reopens, and requires every
// acknowledged batch to be present. A clean Close on a real filesystem
// could not show a lost write.
func (p *ingest) crashCheck(o *outcome) {
	fs := wal.NewMemFS(p.cfg.seed)
	d, err := skipvector.OpenDurable(ingCrashDir, skipvector.Int64Codec(), skipvector.WithWALFS(fs))
	if err != nil {
		fmt.Fprintln(p.cfg.out, "crash pass open:", err)
		o.failed++
		return
	}
	var acked [ingWriters][]int64 // jitter per acknowledged batch, ts = index+1
	var wg sync.WaitGroup
	for w := range ingWriters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := clientRNG(p.cfg.seed^0xc4a54, w)
			ops := make([]skipvector.BatchOp[int64], 0, ingBatch)
			for ts := int64(1); ts <= ingCrashRuns; ts++ {
				j := rng.Intn(1024)
				if _, err := d.ApplyBatch(batchOps(ops[:0], ts, w, j)); err != nil {
					return
				}
				acked[w] = append(acked[w], j)
			}
		}()
	}
	wg.Wait()
	fs.Crash() // d is abandoned, as a crashed process would leave it
	d2, err := skipvector.OpenDurable(ingCrashDir, skipvector.Int64Codec(), skipvector.WithWALFS(fs))
	if err != nil {
		fmt.Fprintln(p.cfg.out, "crash pass reopen:", err)
		o.failed++
		return
	}
	defer d2.Close()
	var lost int64
	for w := range ingWriters {
		o.attempted += int64(len(acked[w])) * ingBatch
		if len(acked[w]) < ingCrashRuns {
			o.failed++ // a write failed on a healthy filesystem
		}
		for i, j := range acked[w] {
			for x := range ingBatch {
				k := ingestKey(int64(i+1), w, j, x)
				if v, ok := d2.Lookup(k); !ok || v != int64(mix(k)) {
					lost++
				}
			}
		}
	}
	o.failed += lost
	fmt.Fprintf(p.cfg.out, "crash-discard pass: %d acknowledged keys, %d lost after Crash and reopen\n",
		(len(acked[0])+len(acked[1]))*ingBatch, lost)
}

func (p *ingest) counters() counters {
	c := counters{stats: p.d.Stats(), wal: promValues(p.d.WriteMetrics)}
	c.wal["user_bytes"] = p.user
	return c
}

func (p *ingest) stream() *stream {
	st := &stream{}
	for ts := int64(1); ts <= ingPreloadTS; ts++ {
		for j := range ingBatch {
			st.base = append(st.base, ingestKey(ts, ingPreloadW, 0, j))
		}
	}
	rng := clientRNG(p.cfg.seed, 0)
	first := map[int64]int64{} // ts → first key of that batch
	for i := range int64(replayOps / ingBatch) {
		ts := ingPreloadTS + 1 + i
		j := rng.Intn(1024)
		for x := range ingBatch {
			st.puts = append(st.puts, ingestKey(ts, 0, j, x))
		}
		first[ts] = ingestKey(ts, 0, j, 0)
		lo := max(ts-ingWindow+1, ingPreloadTS+1)
		st.reads = append(st.reads, first[lo])
		st.ranges = append(st.ranges, [2]int64{(ts - ingWindow + 1) << 20, (ts+1)<<20 - 1})
	}
	return st
}

func (p *ingest) report(w io.Writer, r *phaseResult) {
	c := p.counters()
	fmt.Fprintf(w, "scan_keys_s %.1f keys/s\n", float64(r.scanned)/r.elapsed.Seconds())
	fmt.Fprintf(w, "recovery_s %.4f s (median of %d reopens of a %d-key preload)\n", median(p.recovery), len(p.recovery), ingPreload)
	fmt.Fprintf(w, "wal_bytes_per_user_byte %.4f (%.0f log bytes and %.0f fsyncs since the reopen)\n",
		c.wal["sv_wal_bytes_appended_total"]/max(p.user, 1), c.wal["sv_wal_bytes_appended_total"], c.wal["sv_wal_fsyncs_total"])
}

func (p *ingest) close() {
	if p.d != nil {
		if err := p.d.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: close:", err)
		}
		p.d = nil
	}
	if p.dir != "" {
		if err := os.RemoveAll(p.dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: remove log:", err)
		}
		p.dir = ""
	}
}
