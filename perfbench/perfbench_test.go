package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
	"unicode"
)

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// tables the program reports from in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Seconds   int      `json:"run_seconds"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the catalogue lists %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: json %q, catalogue %q", i, w.Name, workloads[i].name)
		}
		if n := len(w.Why); n < 1 || n > 200 || strings.ContainsFunc(w.Why, func(r rune) bool { return !unicode.IsPrint(r) }) {
			t.Errorf("workload %s: why must be 1 to 200 printable characters, has %d", w.Name, n)
		}
	}
	if len(bench.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: json %d metrics, catalogue %d", len(bench.EndToEnd), len(endToEnd))
	}
	for i, m := range bench.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better || m.Bound != c.bound {
			t.Errorf("end_to_end %d: json %+v, catalogue %+v", i, m, c)
		}
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer: json %d metrics, catalogue %d", len(bench.PerLayer), len(perLayer))
	}
	for i, m := range bench.PerLayer {
		c := perLayer[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per_layer %d: json %+v, catalogue %+v", i, m, c)
		}
	}
}

// TestDroppedWriteRaisesFailRatio is the teeth check: acknowledging one
// insert the map never received must be caught, and the same run without
// the drop must come out clean.
func TestDroppedWriteRaisesFailRatio(t *testing.T) {
	for _, drop := range []bool{false, true} {
		cfg := runCfg{seed: 7, seconds: 0.2, dropWrite: drop, workDir: t.TempDir(), out: io.Discard}
		w := newPointUniform(cfg)
		if _, err := w.setup(); err != nil {
			t.Fatal(err)
		}
		p, err := w.phase(200*time.Millisecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		o := &outcome{attempted: p.attempted, failed: p.failed}
		w.verify(o)
		w.close()
		switch {
		case drop && !w.dropped:
			t.Fatal("no insert was dropped")
		case drop && o.failed == 0:
			t.Errorf("dropped write went unnoticed: 0 failed of %d", o.attempted)
		case !drop && o.failed != 0:
			t.Errorf("clean run: %d failed of %d", o.failed, o.attempted)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	h := newHist()
	for i := 1; i <= 10000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 5000e3}, {0.99, 9900e3}} {
		if got := h.quantile(c.q); got < c.want*0.997 || got > c.want*1.003 {
			t.Errorf("q%.2f = %.0f ns, want %.0f ±0.3%%", c.q, got, c.want)
		}
	}
}
