package skipvector

import (
	"strings"
	"testing"
)

// newShardedTest builds a 4-shard map over [0, 40) with small chunks.
func newShardedTest(t *testing.T) *ShardedMap[string] {
	t.Helper()
	return NewSharded[string](EvenShardBounds(0, 40, 4),
		WithLayerCount(3), WithTargetDataVectorSize(2), WithTargetIndexVectorSize(2))
}

func TestShardedMapBasics(t *testing.T) {
	m := newShardedTest(t)
	if m.ShardCount() != 4 {
		t.Fatalf("ShardCount = %d", m.ShardCount())
	}
	if b := m.ShardBounds(); len(b) != 3 || b[0] != 10 || b[1] != 20 || b[2] != 30 {
		t.Fatalf("ShardBounds = %v", b)
	}
	if m.ShardFor(9) != 0 || m.ShardFor(10) != 1 || m.ShardFor(39) != 3 {
		t.Fatal("routing off")
	}

	if !m.Insert(5, "five") || m.Insert(5, "dup") {
		t.Fatal("Insert semantics")
	}
	if !m.Upsert(15, "fifteen") || m.Upsert(15, "fifteen'") {
		t.Fatal("Upsert semantics")
	}
	if v, ok := m.Lookup(15); !ok || v != "fifteen'" {
		t.Fatalf("Lookup(15) = %q,%v", v, ok)
	}
	if !m.Contains(5) || m.Contains(6) {
		t.Fatal("Contains")
	}
	m.Upsert(25, "twentyfive")
	m.Upsert(35, "thirtyfive")
	if m.Len() != 4 {
		t.Fatalf("Len = %d", m.Len())
	}
	if k, v, ok := m.Min(); !ok || k != 5 || v != "five" {
		t.Fatalf("Min = %d,%q,%v", k, v, ok)
	}
	if k, _, ok := m.Max(); !ok || k != 35 {
		t.Fatalf("Max = %d,%v", k, ok)
	}
	if k, _, ok := m.Floor(24); !ok || k != 15 {
		t.Fatalf("Floor(24) = %d,%v (cross-shard walk)", k, ok)
	}
	if k, _, ok := m.Ceiling(26); !ok || k != 35 {
		t.Fatalf("Ceiling(26) = %d,%v", k, ok)
	}
	if got := m.Keys(); len(got) != 4 || got[0] != 5 || got[3] != 35 {
		t.Fatalf("Keys = %v", got)
	}
	var seen []int64
	m.Ascend(func(k int64, _ string) bool { seen = append(seen, k); return true })
	if len(seen) != 4 || seen[0] != 5 || seen[3] != 35 {
		t.Fatalf("Ascend = %v", seen)
	}
	if !m.Remove(5) || m.Remove(5) {
		t.Fatal("Remove semantics")
	}
	if n := m.RangeUpdate(0, 40, func(_ int64, v string) string { return v + "!" }); n != 3 {
		t.Fatalf("RangeUpdate visited %d", n)
	}
	if v, _ := m.Lookup(25); v != "twentyfive!" {
		t.Fatalf("RangeUpdate result %q", v)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(m.ShardStats()) != 4 {
		t.Fatal("ShardStats")
	}
	m.FlushRetired()
}

func TestShardedApplyBatchOutcomes(t *testing.T) {
	m := newShardedTest(t)
	res := m.ApplyBatch([]BatchOp[string]{
		{Key: 5, Val: "a"},
		{Key: 15, Val: "b"},
		{Key: 25, Val: "c"},
		{Key: 35, Val: "d"},
	})
	for i, r := range res {
		if r.Outcome != BatchInserted {
			t.Fatalf("op %d: %v", i, r.Outcome)
		}
	}
	// Unsorted, duplicates, deletes, insert-only — spanning shards.
	res = m.ApplyBatch([]BatchOp[string]{
		{Key: 35, Val: "d2"},
		{Key: 5, Delete: true},
		{Key: 15, Val: "b2"},
		{Key: 15, Val: "b3"},
		{Key: 25, Val: "x", InsertOnly: true},
		{Key: 7, Delete: true},
	})
	want := []BatchOutcome{BatchUpdated, BatchRemoved, BatchUpdated, BatchUpdated, BatchExists, BatchAbsent}
	for i, w := range want {
		if res[i].Outcome != w {
			t.Fatalf("op %d: %v, want %v", i, res[i].Outcome, w)
		}
	}
	if v, _ := m.Lookup(15); v != "b3" {
		t.Fatalf("duplicate key resolved to %q, want b3", v)
	}
	if v, _ := m.Lookup(25); v != "c" {
		t.Fatalf("InsertOnly clobbered value: %q", v)
	}
}

// TestShardedCursorAcrossBoundaries scans a cursor through all four shards,
// seeks backwards across a boundary, and revives a closed cursor.
func TestShardedCursorAcrossBoundaries(t *testing.T) {
	m := newShardedTest(t)
	keys := []int64{1, 9, 10, 19, 20, 29, 30, 39}
	for _, k := range keys {
		m.Upsert(k, "v")
	}
	c := m.Cursor(0)
	defer c.Close()
	var got []int64
	for {
		k, _, ok := c.Next()
		if !ok {
			break
		}
		got = append(got, k)
	}
	if len(got) != len(keys) {
		t.Fatalf("scan = %v", got)
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("scan = %v, want %v", got, keys)
		}
	}
	// Exhausted cursor stays exhausted...
	if _, _, ok := c.Next(); ok {
		t.Fatal("cursor revived itself")
	}
	// ...until SeekTo revives it, mid-keyspace, across a boundary.
	c.SeekTo(15)
	if k, _, ok := c.Next(); !ok || k != 19 {
		t.Fatalf("after SeekTo(15): %d,%v", k, ok)
	}
	if k, _, ok := c.Next(); !ok || k != 20 {
		t.Fatalf("boundary crossing: %d,%v", k, ok)
	}
	c.Close()
	c.Close() // idempotent
}

// TestShardedWriteMetrics pins the exported exposition: the router gauge and
// per-shard labeled series are present, with one TYPE header per family.
func TestShardedWriteMetrics(t *testing.T) {
	m := newShardedTest(t)
	for k := int64(0); k < 40; k += 2 {
		m.Upsert(k, "v")
	}
	var b strings.Builder
	if err := m.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"sv_shard_count 4",
		`sv_len{shard="0"}`,
		`sv_len{shard="3"}`,
		"sv_shard_batch_fanout_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE sv_len gauge"); n != 1 {
		t.Fatalf("sv_len TYPE headers = %d", n)
	}
	if m.Metrics() == nil {
		t.Fatal("Metrics() nil")
	}
}

func TestNewShardedPanicsOnBadSplits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on descending splits")
		}
	}()
	NewSharded[int]([]int64{20, 10})
}
