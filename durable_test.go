package skipvector

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"path"
	"sort"
	"strconv"
	"strings"
	"testing"

	"skipvector/internal/wal"
)

// durableHash fingerprints a durable map's full content; comparable with
// modelHash over a reference map.
func durableHash[V any](d *DurableMap[V]) uint64 {
	h := fnv.New64a()
	d.Ascend(func(k int64, v V) bool {
		fmt.Fprintf(h, "%d=%v;", k, v)
		return true
	})
	return h.Sum64()
}

// modelHash fingerprints a reference map the same way.
func modelHash(m map[int64]string) uint64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%d=%v;", k, m[k])
	}
	return h.Sum64()
}

// metricValue extracts one metric from a durable map's Prometheus
// exposition.
func metricValue[V any](t *testing.T, d *DurableMap[V], name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
			if err != nil {
				t.Fatalf("metric %s: bad value in %q", name, line)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// verifyWALMetricIdentities gates the recovery accounting identities on a
// freshly reopened map: every scanned record was either replayed or dropped
// (uncommitted batch parts), the RecoveryInfo mirror matches the metrics,
// and no more records were scanned than the previous life appended
// (prevAppended < 0 skips the cross-life check).
func verifyWALMetricIdentities[V any](t *testing.T, d *DurableMap[V], prevAppended float64) {
	t.Helper()
	scanned := metricValue(t, d, "sv_wal_records_scanned_total")
	replayed := metricValue(t, d, "sv_wal_records_replayed_total")
	dropped := metricValue(t, d, "sv_wal_records_dropped_total")
	if scanned != replayed+dropped {
		t.Fatalf("identity violated: scanned %v != replayed %v + dropped %v", scanned, replayed, dropped)
	}
	info := d.Recovery()
	if uint64(scanned) != info.ScannedRecords || uint64(replayed) != info.ReplayedRecords || uint64(dropped) != info.DroppedRecords {
		t.Fatalf("RecoveryInfo %+v disagrees with metrics scanned=%v replayed=%v dropped=%v",
			info, scanned, replayed, dropped)
	}
	truncs := metricValue(t, d, "sv_wal_recovery_truncations_total")
	if info.Truncated != (truncs > 0) {
		t.Fatalf("truncation flag %v vs metric %v", info.Truncated, truncs)
	}
	if prevAppended >= 0 && scanned > prevAppended {
		t.Fatalf("scanned %v records but previous life appended only %v", scanned, prevAppended)
	}
}

func TestDurableRoundTrip(t *testing.T) {
	fs := wal.NewMemFS(1)
	d, err := OpenDurable[string]("/db", StringCodec(), WithWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := d.Insert(1, "one"); !ok || err != nil {
		t.Fatalf("Insert: %v %v", ok, err)
	}
	if ok, err := d.Insert(1, "dup"); ok || err != nil {
		t.Fatalf("duplicate Insert: %v %v", ok, err)
	}
	if _, err := d.Upsert(2, "two"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyBatch([]BatchOp[string]{
		{Key: 3, Val: "three"}, {Key: 4, Val: "four"}, {Key: 2, Delete: true},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert(5, "five"); err != nil {
		t.Fatal(err)
	}
	if n, err := d.RangeUpdate(3, 5, func(k int64, v string) string { return v + "!" }); n != 3 || err != nil {
		t.Fatalf("RangeUpdate: %d %v", n, err)
	}
	prevAppended := metricValue(t, d, "sv_wal_records_appended_total")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable[string]("/db", StringCodec(), WithWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	want := map[int64]string{1: "one", 3: "three!", 4: "four!", 5: "five!"}
	if durableHash(d2) != modelHash(want) {
		t.Fatalf("recovered content differs: keys %v", d2.Keys())
	}
	if info := d2.Recovery(); info.Truncated || info.CheckpointKeys != 3 {
		t.Fatalf("recovery info: %+v", info)
	}
	if err := d2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	verifyWALMetricIdentities(t, d2, prevAppended)
}

func TestDurableBatchAtomicityAcrossReopen(t *testing.T) {
	// A batch's groups commit under several chunk locks; the log frames them
	// as one unit. With tiny chunks the batch spans many groups, and every
	// reopen must see all of it.
	fs := wal.NewMemFS(2)
	small := WithMapOptions(WithTargetDataVectorSize(4), WithLayerCount(3))
	d, err := OpenDurable[string]("/db", StringCodec(), WithWALFS(fs), small)
	if err != nil {
		t.Fatal(err)
	}
	var ops []BatchOp[string]
	for k := int64(0); k < 100; k++ {
		ops = append(ops, BatchOp[string]{Key: k * 3, Val: fmt.Sprintf("b%d", k)})
	}
	if _, err := d.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	d.Close()

	d2, err := OpenDurable[string]("/db", StringCodec(), WithWALFS(fs), small)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != 100 {
		t.Fatalf("recovered %d of 100 batch keys", d2.Len())
	}
}

func TestDurableWriteAfterCloseFails(t *testing.T) {
	fs := wal.NewMemFS(3)
	d, err := OpenDurable[string]("/db", StringCodec(), WithWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	if _, err := d.Upsert(1, "late"); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("write after close acknowledged: %v", err)
	}
	if _, err := d.ApplyBatch([]BatchOp[string]{{Key: 2, Val: "late"}}); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("batch after close acknowledged: %v", err)
	}
}

func TestDurableCodecs(t *testing.T) {
	t.Run("bytes", func(t *testing.T) {
		fs := wal.NewMemFS(4)
		d, err := Open("/db", WithWALFS(fs))
		if err != nil {
			t.Fatal(err)
		}
		d.Insert(1, []byte{0x00, 0xff, 0x7f})
		d.Insert(2, nil)
		d.Close()
		d2, err := Open("/db", WithWALFS(fs))
		if err != nil {
			t.Fatal(err)
		}
		defer d2.Close()
		if v, ok := d2.Lookup(1); !ok || !bytes.Equal(v, []byte{0x00, 0xff, 0x7f}) {
			t.Fatalf("bytes round trip: %v %v", v, ok)
		}
		if v, ok := d2.Lookup(2); !ok || len(v) != 0 {
			t.Fatalf("empty bytes round trip: %v %v", v, ok)
		}
	})
	t.Run("int64", func(t *testing.T) {
		fs := wal.NewMemFS(5)
		d, err := OpenDurable[int64]("/db", Int64Codec(), WithWALFS(fs))
		if err != nil {
			t.Fatal(err)
		}
		d.Insert(1, -1<<62)
		d.Insert(2, 42)
		d.Compact()
		d.Close()
		d2, err := OpenDurable[int64]("/db", Int64Codec(), WithWALFS(fs))
		if err != nil {
			t.Fatal(err)
		}
		defer d2.Close()
		if v, _ := d2.Lookup(1); v != -1<<62 {
			t.Fatalf("int64 round trip: %d", v)
		}
		if v, _ := d2.Lookup(2); v != 42 {
			t.Fatalf("int64 round trip: %d", v)
		}
	})
}

func TestDurableOSFilesystem(t *testing.T) {
	// One pass over the real filesystem: the osFS seam (create, append,
	// fsync, rename + directory sync, truncate) behind a tmp dir.
	dir := t.TempDir() + "/db"
	d, err := OpenDurable[string](dir, StringCodec())
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 200; k++ {
		if _, err := d.Upsert(k, fmt.Sprintf("v%d", k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	d.Remove(100)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable[string](dir, StringCodec())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != 199 {
		t.Fatalf("recovered %d keys, want 199", d2.Len())
	}
	if _, ok := d2.Lookup(100); ok {
		t.Fatal("removed key resurrected")
	}
	if info := d2.Recovery(); info.CheckpointKeys != 200 || info.TailRecords != 1 {
		t.Fatalf("recovery info: %+v", info)
	}
}

// failCkptFS is a MemFS whose Create fails for checkpoint files: Compact's
// BeginCheckpoint pins its snapshot and then fails to create ckpt-*.wal.
type failCkptFS struct{ *wal.MemFS }

var errCkptCreate = errors.New("injected checkpoint create failure")

func (fs failCkptFS) Create(name string) (wal.File, error) {
	if strings.HasPrefix(path.Base(name), "ckpt-") {
		return nil, errCkptCreate
	}
	return fs.MemFS.Create(name)
}

// TestDurableCompactCheckpointErrorReleasesSnapshot checks that a Compact
// failing after the snapshot is pinned still releases it: a pin left behind
// would hold every pre-image in the version store until a finalizer counted
// it as a caller leak.
func TestDurableCompactCheckpointErrorReleasesSnapshot(t *testing.T) {
	d, err := OpenDurable[string]("/db", StringCodec(), WithWALFS(failCkptFS{wal.NewMemFS(6)}))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for k := int64(0); k < 50; k++ {
		if _, err := d.Upsert(k, "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Compact(); !errors.Is(err, errCkptCreate) {
		t.Fatalf("Compact = %v, want the injected create failure", err)
	}
	if n := metricValue(t, d, "sv_snapshots_active"); n != 0 {
		t.Fatalf("sv_snapshots_active = %v after a failed Compact, want 0", n)
	}
	pinned := metricValue(t, d, "sv_snapshots_pinned_total")
	released := metricValue(t, d, "sv_snapshots_released_total")
	if pinned == 0 || released != pinned {
		t.Fatalf("snapshots pinned %v, released %v", pinned, released)
	}
}
