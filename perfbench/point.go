package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"skipvector"
	"skipvector/internal/workload"
)

const (
	puKeys    = 1 << 21 // resident keys after the bulk load
	puRange   = 1 << 22 // key space the clients draw from
	puClients = 2
	// spanLimit bounds each goroutine's span buffer in a traced phase;
	// spans past it are counted, not kept.
	spanLimit = 1 << 17
)

// pointUniform bulk-loads a Map and runs two closed-loop clients sending
// uniform keys: 90% Lookup, 5% Insert, 5% Remove. Client c owns the keys
// with bit 1 equal to c, so it knows exactly which of its keys are present
// and every result can be checked without sharing state.
type pointUniform struct {
	cfg     runCfg
	keys    []int64 // initial keys, ascending: 2i or 2i+1 for each i
	m       *skipvector.Map[uint64]
	present []uint8 // model: present[k] == 1 iff k is in the map
	rngs    [puClients]*workload.RNG
	dropped bool // the teeth write has been dropped
}

// clientRNG derives stream c of a seed. The generator's state advances by
// a fixed odd constant per draw, so seeds must be hashed, not offset, or
// two streams would be the same sequence shifted.
func clientRNG(seed uint64, c int) *workload.RNG {
	return workload.NewRNG(mix(int64(mix(int64(seed)) + uint64(c))))
}

func newPointUniform(cfg runCfg) *pointUniform {
	rng := workload.NewRNG(cfg.seed)
	p := &pointUniform{cfg: cfg, keys: make([]int64, puKeys), present: make([]uint8, puRange)}
	for i := range p.keys {
		p.keys[i] = int64(2*i) + int64(rng.Uint64()&1)
	}
	for c := range p.rngs {
		p.rngs[c] = clientRNG(cfg.seed, c)
	}
	return p
}

func (p *pointUniform) setup() (float64, error) {
	p.m = nil
	runtime.GC() // the previous map is garbage; do not charge its collection
	t0 := time.Now()
	vals := make([]uint64, len(p.keys))
	for i, k := range p.keys {
		vals[i] = mix(k)
	}
	m, err := skipvector.NewFromSorted(p.keys, vals)
	el := time.Since(t0)
	if err != nil {
		return 0, err
	}
	p.m = m
	clear(p.present)
	for _, k := range p.keys {
		p.present[k] = 1
	}
	return el.Seconds(), nil
}

func (p *pointUniform) resident() int { return p.m.Len() }

// next draws client c's next op: its key and a roll in [0,100).
func next(rng *workload.RNG, c int) (int64, int64) {
	k := rng.Intn(puRange)&^2 | int64(c)<<1
	return k, rng.Intn(100)
}

type clientResult struct {
	ops, failed int64
	rd, wr      *hist
	gap         *hist
	spans       *liveSpans
}

func (p *pointUniform) phase(d time.Duration, tr *tracer) (*phaseResult, error) {
	var names [3]int32
	if tr != nil {
		names = [3]int32{tr.id("live/lookup"), tr.id("live/insert"), tr.id("live/remove")}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	outs := make([]clientResult, puClients)
	start := time.Now()
	for c := range puClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[c] = p.client(c, &stop, tr, names)
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
		if tr != nil {
			tr.fold(o.spans)
		}
	}
	return res, nil
}

func (p *pointUniform) client(c int, stop *atomic.Bool, tr *tracer, names [3]int32) clientResult {
	h := p.m.NewHandle()
	defer h.Close()
	rng := p.rngs[c]
	r := clientResult{rd: newHist(), wr: newHist(), gap: newHist()}
	if tr != nil {
		r.spans = tr.live(spanLimit)
	}
	var last time.Time
	for !stop.Load() {
		k, roll := next(rng, c)
		want := p.present[k] == 1
		t0 := time.Now()
		if !last.IsZero() {
			r.gap.add(t0.Sub(last))
		}
		var ok bool
		var v uint64
		kind := 0
		switch {
		case roll < 90:
			v, ok = h.Lookup(k)
		case roll < 95:
			kind = 1
			if p.cfg.dropWrite && c == 0 && !want && !p.dropped {
				p.dropped, ok = true, true // acknowledged, never sent
			} else {
				ok = h.Insert(k, mix(k))
			}
		default:
			kind = 2
			ok = h.Remove(k)
		}
		t1 := time.Now()
		last = t1
		if r.spans != nil {
			r.spans.add(names[kind], int64(c)<<40|r.ops, t0, t1)
		}
		r.ops++
		switch kind {
		case 0:
			r.rd.add(t1.Sub(t0))
			if ok != want || (ok && v != mix(k)) {
				r.failed++
			}
		case 1:
			r.wr.add(t1.Sub(t0))
			if ok == want {
				r.failed++
			}
			p.present[k] = 1
		case 2:
			r.wr.add(t1.Sub(t0))
			if ok != want {
				r.failed++
			}
			p.present[k] = 0
		}
	}
	return r
}

func (p *pointUniform) verify(o *outcome) {
	if err := p.m.CheckInvariants(); err != nil {
		fmt.Fprintln(p.cfg.out, "invariant check:", err)
		o.failed++
	}
	var n, want int64
	p.m.Ascend(func(k int64, v uint64) bool {
		n++
		if k < 0 || k >= puRange || p.present[k] != 1 || v != mix(k) {
			o.failed++
		}
		return true
	})
	for _, x := range p.present {
		want += int64(x)
	}
	if n != want {
		fmt.Fprintf(p.cfg.out, "final sweep: %d keys in the map, model expects %d\n", n, want)
		o.failed += max(want-n, n-want)
	}
}

func (p *pointUniform) counters() counters {
	return counters{stats: p.m.Stats(), dataOccupancy: p.m.Occupancy().DataMean}
}

func (p *pointUniform) stream() *stream {
	st := &stream{base: p.keys}
	rng := clientRNG(p.cfg.seed, 0)
	for range replayOps {
		k, roll := next(rng, 0)
		switch {
		case roll < 90:
			st.reads = append(st.reads, k)
		case roll < 95:
			st.puts = append(st.puts, k)
		default:
			st.dels = append(st.dels, k)
		}
	}
	return st
}

func (p *pointUniform) report(w io.Writer, r *phaseResult) {
	fmt.Fprintf(w, "client gap between ops p99 %.2f us\n", r.gen.quantile(0.99)/1e3)
}

func (p *pointUniform) close() { p.m = nil }
