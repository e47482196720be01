// Command svbench regenerates the paper's microbenchmark figures (1, 4, 5,
// 7a, 7b, 8) plus the repo's own ablations (hazard-pointer cost, merge
// threshold, memory footprint, B-link-tree comparator, search-finger locality
// sweep, chunk-fanout sweep, WAL durability cost), printing each figure as an
// aligned table (or CSV) of throughput numbers.
//
// Usage:
//
//	svbench -fig 4 -scale paper
//	svbench -fig all -scale quick -csv
//	svbench -fig finger -scale paper -reps 6 -json BENCH_finger.json
//
// The "paper" scale is the scaled-down reproduction documented in
// EXPERIMENTS.md; "quick" is a smoke-test setting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"skipvector/internal/bench"
	"skipvector/internal/telemetry"
	"skipvector/internal/walbench"
	"skipvector/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "svbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("svbench", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "all", "figure to run: 1, 4, 5, 7a, 7b, 8, hp, merge, mem, blt, finger, batch, snapshot, fanout, wal, shard, all")
		scale    = fs.String("scale", "paper", "experiment scale: quick or paper")
		duration = fs.Duration("duration", 0, "override per-trial duration")
		reps     = fs.Int("reps", 0, "override repetitions per cell")
		threads  = fs.String("threads", "", "override the thread-count axis (comma-separated, e.g. 1,2,4,8)")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut  = fs.String("json", "", "also write the emitted tables to this file as JSON")
		metrics  = fs.String("metrics", "", "serve Prometheus metrics on this address (e.g. :8090) while figures run; implies telemetry recording")
		metOut   = fs.String("metrics-out", "", "write a Prometheus snapshot to this file after the run; implies telemetry recording")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The structures under test are created per trial inside the figure
	// runners, so the stable scrape target is the process-global registry:
	// the seqlock spin/CAS and vectormap shift-distance instruments, which
	// accumulate across every trial in the run. Per-map catalogs (restarts,
	// occupancy, hazard counters) are reachable programmatically through
	// bench.Metricser.
	if *metrics != "" || *metOut != "" {
		telemetry.SetEnabled(true)
	}
	if *metrics != "" {
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = telemetry.Global.WritePrometheus(w)
		})
		fmt.Fprintf(os.Stderr, "[serving metrics on http://%s/metrics]\n", ln.Addr())
		go func() { _ = http.Serve(ln, mux) }()
	}
	if *metOut != "" {
		defer func() {
			f, err := os.Create(*metOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "svbench: metrics-out:", err)
				return
			}
			defer f.Close()
			if err := telemetry.Global.WritePrometheus(f); err != nil {
				fmt.Fprintln(os.Stderr, "svbench: metrics-out:", err)
			}
		}()
	}

	var s bench.Scale
	switch *scale {
	case "quick":
		s = bench.QuickScale()
	case "paper":
		s = bench.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	if *duration > 0 {
		s.Duration = *duration
	}
	if *reps > 0 {
		s.Reps = *reps
	}
	if *threads != "" {
		ts, err := parseThreads(*threads)
		if err != nil {
			return err
		}
		s.Threads = ts
		s.YCSBThreads = ts
		if n := ts[len(ts)-1]; n > 0 {
			s.SensitivityThreads = n
		}
	}

	var emitted []*bench.Table
	emit := func(tables ...*bench.Table) {
		for _, t := range tables {
			emitted = append(emitted, t)
			if *csv {
				fmt.Print(t.CSV())
			} else {
				fmt.Println(t.Render())
			}
		}
	}
	writeJSON := func() error {
		if *jsonOut == "" {
			return nil
		}
		data, err := json.MarshalIndent(emitted, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
	}

	runFig := func(name string) error {
		start := time.Now()
		defer func() {
			fmt.Fprintf(os.Stderr, "[fig %s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
		}()
		switch name {
		case "1":
			emit(bench.Fig1(s))
		case "4":
			ts, err := bench.Fig4(s)
			if err != nil {
				return err
			}
			emit(ts...)
		case "5":
			ts, err := bench.Fig5(s)
			if err != nil {
				return err
			}
			emit(ts...)
		case "7a":
			t, err := bench.Fig7a(s)
			if err != nil {
				return err
			}
			emit(t)
		case "7b":
			t, err := bench.Fig7b(s)
			if err != nil {
				return err
			}
			emit(t)
		case "8":
			ts, err := bench.Fig8(s)
			if err != nil {
				return err
			}
			emit(ts...)
		case "hp":
			t, err := bench.AblationHazardCost(s)
			if err != nil {
				return err
			}
			emit(t)
		case "merge":
			t, err := bench.AblationMergeThreshold(s)
			if err != nil {
				return err
			}
			emit(t)
		case "mem":
			emit(bench.MemoryFootprint(s.MixedRangeExps, s.Seed))
		case "blt":
			t, err := bench.AblationBLinkTree(s, workload.MixReadHeavy)
			if err != nil {
				return err
			}
			emit(t)
		case "finger":
			t, err := bench.FigFinger(s)
			if err != nil {
				return err
			}
			emit(t)
		case "batch":
			t, err := bench.FigBatch(s)
			if err != nil {
				return err
			}
			emit(t)
		case "snapshot":
			t, err := bench.FigSnapshot(s)
			if err != nil {
				return err
			}
			emit(t)
		case "fanout":
			t, err := bench.FigFanout(s)
			if err != nil {
				return err
			}
			emit(t)
		case "wal":
			t, err := walbench.FigWAL(s)
			if err != nil {
				return err
			}
			emit(t)
		case "shard":
			ts, err := bench.FigShard(s)
			if err != nil {
				return err
			}
			rt, err := bench.FigRebalance(s)
			if err != nil {
				return err
			}
			emit(append(ts, rt)...)
		default:
			return fmt.Errorf("unknown figure %q", name)
		}
		return nil
	}

	if *fig == "all" {
		for _, name := range []string{"1", "4", "5", "7a", "7b", "8", "hp", "merge", "mem", "blt", "finger", "batch", "snapshot", "fanout", "wal", "shard"} {
			if err := runFig(name); err != nil {
				return err
			}
		}
		return writeJSON()
	}
	if err := runFig(*fig); err != nil {
		return err
	}
	return writeJSON()
}

// parseThreads parses the -threads axis override ("1,2,4,8").
func parseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -threads element %q (want positive ints, comma-separated)", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -threads list")
	}
	return out, nil
}
