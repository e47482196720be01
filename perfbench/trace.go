package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call made from the benchmark into a layer. Spans of one
// request share op; parent is the index of the enclosing span, -1 for a
// root. Times are nanoseconds since the tracer's base.
type span struct {
	name       int32
	parent     int32
	op         int64
	start, end int64
}

// tracer keeps spans in memory and writes them out once, at exit. Nothing
// inside the library is traced: every span wraps a call the benchmark makes
// into a layer's public API.
type tracer struct {
	base    time.Time
	names   []string
	ids     map[string]int32
	spans   []span
	dropped int64   // live spans past a buffer's limit, counted but not kept
	clockNs float64 // cost of one clock read pair, subtracted from per-call figures
}

func newTracer() *tracer {
	t := &tracer{base: time.Now(), ids: map[string]int32{}}
	t.clockNs = clockOverhead()
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// id interns a span name. Not safe for concurrent use: intern every name a
// phase needs before its goroutines start.
func (t *tracer) id(name string) int32 {
	if i, ok := t.ids[name]; ok {
		return i
	}
	i := int32(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = i
	return i
}

// open starts a span and returns its index; end closes it.
func (t *tracer) open(name string, parent int32, op int64) int32 {
	t.spans = append(t.spans, span{name: t.id(name), parent: parent, op: op, start: t.now()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = t.now() }

// pass replays n calls, each as a span under one parent span, and returns
// the interquartile mean of the nanoseconds per unit of work, net of the
// clock's own cost. call returns its units (keys for a batch or a scan);
// calls with no units are recorded but do not enter the mean.
func (t *tracer) pass(name string, n int, call func(i int) int) float64 {
	parent := t.open(name, -1, -1)
	child := t.id(name + "/call")
	per := make([]float64, 0, n)
	for i := range n {
		s := t.now()
		units := call(i)
		e := t.now()
		t.spans = append(t.spans, span{name: child, parent: parent, op: int64(i), start: s, end: e})
		if units > 0 {
			per = append(per, (float64(e-s)-t.clockNs)/float64(units))
		}
	}
	t.end(parent)
	return iqMean(per)
}

// pair replays n requests through two layers in lockstep, a then b on the
// same input, so both meet the same moment of the host. It returns the
// interquartile means per unit of a, and of b's excess over a: the cost of
// the layer b adds when it wraps a.
func (t *tracer) pair(nameA, nameB string, n int, a, b func(i int) int) (aMean, bExtra float64) {
	parent := t.open(nameA+"+"+nameB, -1, -1)
	ca, cb := t.id(nameA+"/call"), t.id(nameB+"/call")
	as, ds := make([]float64, 0, n), make([]float64, 0, n)
	for i := range n {
		s := t.now()
		ua := a(i)
		e := t.now()
		ub := b(i)
		f := t.now()
		t.spans = append(t.spans,
			span{name: ca, parent: parent, op: int64(i), start: s, end: e},
			span{name: cb, parent: parent, op: int64(i), start: e, end: f})
		if ua > 0 && ub > 0 {
			x := (float64(e-s) - t.clockNs) / float64(ua)
			as = append(as, x)
			ds = append(ds, (float64(f-e)-t.clockNs)/float64(ub)-x)
		}
	}
	t.end(parent)
	return iqMean(as), iqMean(ds)
}

// liveSpans is one client goroutine's span buffer during a traced phase;
// it is folded into the tracer once the goroutine has finished.
type liveSpans struct {
	base    time.Time
	spans   []span
	limit   int
	dropped int64
}

func (t *tracer) live(limit int) *liveSpans {
	return &liveSpans{base: t.base, spans: make([]span, 0, limit), limit: limit}
}

func (l *liveSpans) add(name int32, op int64, start, end time.Time) {
	if len(l.spans) == l.limit {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{name: name, parent: -1, op: op,
		start: int64(start.Sub(l.base)), end: int64(end.Sub(l.base))})
}

func (t *tracer) fold(ls ...*liveSpans) {
	for _, l := range ls {
		t.spans = append(t.spans, l.spans...)
		t.dropped += l.dropped
	}
}

// selfTimes returns, per span name, the total duration minus the part its
// child spans cover.
func (t *tracer) selfTimes() map[string]int64 {
	self := make(map[string]int64, len(t.names))
	for _, s := range t.spans {
		d := s.end - s.start
		self[t.names[s.name]] += d
		if s.parent >= 0 {
			self[t.names[t.spans[s.parent].name]] -= d
		}
	}
	return self
}

// write stores every span as tab-separated text, gzip-compressed.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // valid level: cannot fail
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tparent\top\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.op, t.names[s.name], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// clockOverhead is the median cost of two back-to-back clock reads.
func clockOverhead() float64 {
	base := time.Now()
	d := make([]float64, 0, 4096)
	for range 4096 {
		a := int64(time.Since(base))
		b := int64(time.Since(base))
		d = append(d, float64(b-a))
	}
	return median(d)
}
