// Command perfbench is the repository's benchmark. It runs one named
// workload through the public facade (Map, DurableMap), checks
// every output it can, and prints the end-to-end metrics; with -trace 1 it
// instead prints per-layer metrics, taken from the library's own counters
// and from single-goroutine replays of the workload's recorded op stream
// through each layer's public functions.
//
// Run it from the repository root through perfbench/run.py, which builds it:
//
//	python3 perfbench/run.py --workload point-uniform --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. Everything before it is a human-readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type runCfg struct {
	seed      uint64
	seconds   float64
	trace     bool
	dropWrite bool   // teeth: acknowledge one write the map never saw
	workDir   string // scratch space inside the checkout
	out       io.Writer
}

// setupReps is how many times a run builds its initial state; setup_s is
// the median, and the last build is the one measured.
const setupReps = 5

// warmup runs before any measured phase so caches fill and lazy set-up
// finishes.
const warmup = time.Second

// window is the length of one measured sub-phase. Each end-to-end rate and
// latency is the median over a run's windows, so a burst of host noise
// that spoils a window or two does not move it.
const window = time.Second

// outcome accumulates one run's checks and metrics.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
}

// scenario is one workload over one facade.
type scenario interface {
	// setup builds the initial state from scratch, replacing any previous
	// one, and returns the seconds the library took.
	setup() (float64, error)
	// resident is the number of keys the map holds now.
	resident() int
	// phase runs the clients for d. With tr set, every facade call is
	// recorded as a span.
	phase(d time.Duration, tr *tracer) (*phaseResult, error)
	// verify runs the end-of-run checks against the workload's model.
	verify(o *outcome)
	// counters reads the library's Stats()/Metrics() counters.
	counters() counters
	// stream returns the seeded op stream and initial keys for replay.
	stream() *stream
	// report prints workload-specific figures for a measured phase.
	report(w io.Writer, p *phaseResult)
	close()
}

// phaseResult is what one measured phase observed.
type phaseResult struct {
	elapsed           time.Duration
	ops               int64 // completed key operations; a batch of 64 counts 64
	attempted, failed int64
	reads, writes     []*hist
	gen               *hist // gap between a client's consecutive ops
	scanned           int64 // keys delivered by window scans
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
		list    = flag.Bool("list", false, "print the workload and metric catalogue and exit")
	)
	flag.Parse()
	if *list {
		printCatalogue(os.Stdout)
		return 0
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := runCfg{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		workDir: filepath.Join(wd, ".bench_build", "work"), out: os.Stdout,
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	w, err := newWorkload(*name, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer w.close()
	printStamp(cfg.out, *name, cfg)
	var o *outcome
	if cfg.trace {
		o, err = runTraced(w, cfg, *name)
	} else {
		o, err = runMeasured(w, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return emit(cfg.out, o, cfg.trace)
}

func newWorkload(name string, cfg runCfg) (scenario, error) {
	switch name {
	case "point-uniform":
		return newPointUniform(cfg), nil
	case "ingest-durable":
		return newIngest(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runMeasured is the untraced end-to-end run.
func runMeasured(w scenario, cfg runCfg) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	base := heapInUse()
	var setups []float64
	for range setupReps {
		s, err := w.setup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	o.metrics["setup_s"] = median(setups)
	if _, err := w.phase(warmup, nil); err != nil {
		return nil, err
	}
	if err := measureWindows(w, cfg, o); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out, "setup runs: %v s\n", setups)
	w.verify(o)
	// Measured after the run, so the garbage and fill its churn leaves
	// behind count.
	o.metrics["heap_bytes_per_key"] = float64(int64(heapInUse())-int64(base)) / float64(w.resident())
	return o, nil
}

// measureWindows runs the measured phase as a series of windows and sets
// each rate and latency metric to its median over them.
func measureWindows(w scenario, cfg runCfg, o *outcome) error {
	n := max(1, int(math.Round(cfg.seconds/window.Seconds())))
	all := &phaseResult{reads: []*hist{newHist()}, writes: []*hist{newHist()}, gen: newHist()}
	fig := map[string][]float64{}
	for i := range n {
		p, err := w.phase(secondsDur(cfg.seconds)/time.Duration(n), nil)
		if err != nil {
			return err
		}
		rd, wr := summarize(p.reads...), summarize(p.writes...)
		ops := float64(p.ops) / p.elapsed.Seconds()
		fmt.Fprintf(cfg.out, "window %2d: ops_s %.0f, read p50 %.2f p99 %.2f us, write p50 %.2f p99 %.2f us\n",
			i, ops, rd.p50/1e3, rd.p99/1e3, wr.p50/1e3, wr.p99/1e3)
		fig["ops_s"] = append(fig["ops_s"], ops)
		fig["read_p50_us"] = append(fig["read_p50_us"], rd.p50/1e3)
		fig["read_p99_us"] = append(fig["read_p99_us"], rd.p99/1e3)
		fig["write_p50_us"] = append(fig["write_p50_us"], wr.p50/1e3)
		fig["write_p99_us"] = append(fig["write_p99_us"], wr.p99/1e3)
		all.merge(p)
	}
	for k, v := range fig {
		o.metrics[k] = median(v)
	}
	o.attempted += all.attempted
	o.failed += all.failed
	fmt.Fprintf(cfg.out, "samples: read %d, write %d over %d windows\n", all.reads[0].n, all.writes[0].n, n)
	w.report(cfg.out, all)
	return nil
}

// merge folds another phase of the same workload into p, whose reads and
// writes are one histogram each.
func (p *phaseResult) merge(q *phaseResult) {
	p.elapsed += q.elapsed
	p.ops += q.ops
	p.attempted += q.attempted
	p.failed += q.failed
	for _, h := range q.reads {
		p.reads[0].merge(h)
	}
	for _, h := range q.writes {
		p.writes[0].merge(h)
	}
	p.gen.merge(q.gen)
	p.scanned += q.scanned
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func emit(out io.Writer, o *outcome, trace bool) int {
	cat := endToEnd
	if trace {
		cat = perLayer
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	fmt.Fprintln(out, "metrics:")
	for _, m := range cat {
		v, ok := o.metrics[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", m.name)
			return 1
		}
		ms[m.name] = val{v, m.unit}
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", m.name, v, m.unit)
	}
	ratio := 0.0
	if o.attempted > 0 {
		ratio = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(out, "fail_ratio %.6g (%d failed / %d attempted)\n", ratio, o.failed, o.attempted)
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(b))
	return 0
}

func printCatalogue(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-18s %s\n", wl.name, wl.why)
	}
	fmt.Fprintln(w, "end-to-end metrics (-trace 0):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-34s %-14s %-6s bound %.2f\n", m.name, m.unit, m.better, m.bound)
	}
	fmt.Fprintln(w, "per-layer metrics (-trace 1):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-34s %-14s %-6s moves %s\n", m.name, m.unit, m.better, m.moves)
	}
}

// heapInUse forces a GC and returns the live heap.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
