package skipvector

import (
	"bytes"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"skipvector/internal/wal"
)

// TestMetricCatalogMatchesREADME keeps README's metrics table in step with the
// code: every sv_* family a Map, a DurableMap or a ShardedMap registers must
// have a row, and every name the table lists must still be registered.
func TestMetricCatalogMatchesREADME(t *testing.T) {
	var buf bytes.Buffer
	m := New[int64]()
	if err := m.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDurable[int64]("/db", Int64Codec(), WithWALFS(wal.NewMemFS(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	s := NewSharded[int64]([]int64{100})
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, f := range regexp.MustCompile(`(?m)^# TYPE (sv_\w+) `).FindAllStringSubmatch(buf.String(), -1) {
		registered[f[1]] = true
	}
	if len(registered) == 0 {
		t.Fatal("no sv_* family rendered")
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := readmeMetricNames(t, string(readme))
	for _, name := range sortedKeys(registered) {
		if !documented[name] {
			t.Errorf("%s is registered but missing from README's metrics table", name)
		}
	}
	for _, name := range sortedKeys(documented) {
		if !registered[name] {
			t.Errorf("README's metrics table lists %s, which no map registers", name)
		}
	}
}

// readmeMetricNames returns the metric names in the first column of the
// table under README's "## Metrics" heading, with {a,b} groups expanded.
func readmeMetricNames(t *testing.T, readme string) map[string]bool {
	t.Helper()
	_, section, ok := strings.Cut(readme, "\n## Metrics\n")
	if !ok {
		t.Fatal(`README has no "## Metrics" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	names := map[string]bool{}
	code := regexp.MustCompile("`([^`]+)`")
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(line, "| `") {
			continue
		}
		for _, c := range code.FindAllStringSubmatch(cells[1], -1) {
			for _, name := range expandBraces(c[1]) {
				names[name] = true
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("README's metrics table lists no names")
	}
	return names
}

// expandBraces expands every {a,b,...} group in s, left to right.
func expandBraces(s string) []string {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return []string{s}
	}
	n := strings.IndexByte(s[open:], '}')
	if n < 0 {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[open+1:open+n], ",") {
		out = append(out, expandBraces(s[:open]+alt+s[open+n+1:])...)
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
