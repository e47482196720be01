package skipvector

import (
	"io"
	"reflect"
	"sort"
	"testing"

	"skipvector/internal/core"
	"skipvector/internal/telemetry"
)

// apiSurface is the exported method set of every public map, session and
// cursor type, instantiated at V=int: method name → a nil func of the method's
// signature without its receiver. Signatures compare by type identity, so an
// alias (ShardedCursor) matches the type it names.
var apiSurface = []struct {
	name    string
	typ     reflect.Type
	methods map[string]any
}{
	{"Map", reflect.TypeOf((*Map[int])(nil)), map[string]any{
		"ApplyBatch":      (func([]BatchOp[int]) []BatchResult)(nil),
		"Ascend":          (func(func(int64, int) bool))(nil),
		"Ceiling":         (func(int64) (int64, int, bool))(nil),
		"CheckInvariants": (func() error)(nil),
		"Contains":        (func(int64) bool)(nil),
		"Cursor":          (func(int64) *Cursor[int])(nil),
		"Floor":           (func(int64) (int64, int, bool))(nil),
		"FlushRetired":    (func())(nil),
		"Insert":          (func(int64, int) bool)(nil),
		"Keys":            (func() []int64)(nil),
		"Len":             (func() int)(nil),
		"Lookup":          (func(int64) (int, bool))(nil),
		"Max":             (func() (int64, int, bool))(nil),
		"Metrics":         (func() *telemetry.View)(nil),
		"Min":             (func() (int64, int, bool))(nil),
		"NewHandle":       (func() *Handle[int])(nil),
		"Occupancy":       (func() core.OccupancySnapshot)(nil),
		"RangeQuery":      (func(int64, int64, func(int64, int) bool))(nil),
		"RangeUpdate":     (func(int64, int64, func(int64, int) int) int)(nil),
		"Remove":          (func(int64) bool)(nil),
		"Snapshot":        (func() *Snapshot[int])(nil),
		"Stats":           (func() core.StatsSnapshot)(nil),
		"Upsert":          (func(int64, int) bool)(nil),
		"WriteMetrics":    (func(io.Writer) error)(nil),
	}},
	{"Handle", reflect.TypeOf((*Handle[int])(nil)), map[string]any{
		"ApplyBatch": (func([]BatchOp[int]) []BatchResult)(nil),
		"Ceiling":    (func(int64) (int64, int, bool))(nil),
		"Close":      (func())(nil),
		"Contains":   (func(int64) bool)(nil),
		"Floor":      (func(int64) (int64, int, bool))(nil),
		"Insert":     (func(int64, int) bool)(nil),
		"Lookup":     (func(int64) (int, bool))(nil),
		"Remove":     (func(int64) bool)(nil),
		"Upsert":     (func(int64, int) bool)(nil),
	}},
	{"Cursor", reflect.TypeOf((*Cursor[int])(nil)), map[string]any{
		"Close":  (func())(nil),
		"Next":   (func() (int64, int, bool))(nil),
		"SeekTo": (func(int64))(nil),
	}},
	{"ShardedMap", reflect.TypeOf((*ShardedMap[int])(nil)), map[string]any{
		"ApplyBatch":      (func([]BatchOp[int]) []BatchResult)(nil),
		"Ascend":          (func(func(int64, int) bool))(nil),
		"Ceiling":         (func(int64) (int64, int, bool))(nil),
		"CheckInvariants": (func() error)(nil),
		"Contains":        (func(int64) bool)(nil),
		"Cursor":          (func(int64) *ShardedCursor[int])(nil),
		"Floor":           (func(int64) (int64, int, bool))(nil),
		"FlushRetired":    (func())(nil),
		"Insert":          (func(int64, int) bool)(nil),
		"Keys":            (func() []int64)(nil),
		"Len":             (func() int)(nil),
		"Lookup":          (func(int64) (int, bool))(nil),
		"Max":             (func() (int64, int, bool))(nil),
		"MergeShards":     (func(int) (Migration, error))(nil),
		"Metrics":         (func() *telemetry.View)(nil),
		"Min":             (func() (int64, int, bool))(nil),
		"NewHandle":       (func() *ShardedHandle[int])(nil),
		"RangeQuery":      (func(int64, int64, func(int64, int) bool))(nil),
		"RangeUpdate":     (func(int64, int64, func(int64, int) int) int)(nil),
		"Rebalance":       (func(RebalanceConfig) (Migration, bool, error))(nil),
		"Remove":          (func(int64) bool)(nil),
		"ShardBounds":     (func() []int64)(nil),
		"ShardCount":      (func() int)(nil),
		"ShardFor":        (func(int64) int)(nil),
		"ShardLoadStats":  (func() []ShardLoadStat)(nil),
		"ShardStats":      (func() []core.StatsSnapshot)(nil),
		"SplitShard":      (func(int, int64) (Migration, error))(nil),
		"StartRebalancer": (func(RebalanceConfig) error)(nil),
		"StopRebalancer":  (func())(nil),
		"Upsert":          (func(int64, int) bool)(nil),
		"WriteMetrics":    (func(io.Writer) error)(nil),
	}},
	{"ShardedHandle", reflect.TypeOf((*ShardedHandle[int])(nil)), map[string]any{
		"ApplyBatch": (func([]BatchOp[int]) []BatchResult)(nil),
		"Ceiling":    (func(int64) (int64, int, bool))(nil),
		"Close":      (func())(nil),
		"Contains":   (func(int64) bool)(nil),
		"Floor":      (func(int64) (int64, int, bool))(nil),
		"Insert":     (func(int64, int) bool)(nil),
		"Lookup":     (func(int64) (int, bool))(nil),
		"Remove":     (func(int64) bool)(nil),
		"Upsert":     (func(int64, int) bool)(nil),
	}},
	{"ShardedCursor", reflect.TypeOf((*ShardedCursor[int])(nil)), map[string]any{
		"Close":  (func())(nil),
		"Next":   (func() (int64, int, bool))(nil),
		"SeekTo": (func(int64))(nil),
	}},
	{"DurableMap", reflect.TypeOf((*DurableMap[int])(nil)), map[string]any{
		"ApplyBatch":      (func([]BatchOp[int]) ([]BatchResult, error))(nil),
		"Ascend":          (func(func(int64, int) bool))(nil),
		"Ceiling":         (func(int64) (int64, int, bool))(nil),
		"CheckInvariants": (func() error)(nil),
		"Close":           (func() error)(nil),
		"Compact":         (func() error)(nil),
		"Contains":        (func(int64) bool)(nil),
		"Cursor":          (func(int64) *Cursor[int])(nil),
		"Dir":             (func() string)(nil),
		"Floor":           (func(int64) (int64, int, bool))(nil),
		"Insert":          (func(int64, int) (bool, error))(nil),
		"Keys":            (func() []int64)(nil),
		"Len":             (func() int)(nil),
		"Lookup":          (func(int64) (int, bool))(nil),
		"Max":             (func() (int64, int, bool))(nil),
		"Metrics":         (func() *telemetry.View)(nil),
		"Min":             (func() (int64, int, bool))(nil),
		"RangeQuery":      (func(int64, int64, func(int64, int) bool))(nil),
		"RangeUpdate":     (func(int64, int64, func(int64, int) int) (int, error))(nil),
		"Recovery":        (func() RecoveryInfo)(nil),
		"Remove":          (func(int64) (bool, error))(nil),
		"Snapshot":        (func() *Snapshot[int])(nil),
		"Stats":           (func() core.StatsSnapshot)(nil),
		"Sync":            (func() error)(nil),
		"Upsert":          (func(int64, int) (bool, error))(nil),
		"WriteMetrics":    (func(io.Writer) error)(nil),
	}},
	{"Snapshot", reflect.TypeOf((*Snapshot[int])(nil)), map[string]any{
		"Ascend":   (func(func(int64, int) bool))(nil),
		"Close":    (func())(nil),
		"Closed":   (func() bool)(nil),
		"Contains": (func(int64) bool)(nil),
		"Cursor":   (func(int64) *SnapshotCursor[int])(nil),
		"Epoch":    (func() uint64)(nil),
		"Get":      (func(int64) (int, bool))(nil),
		"Len":      (func() int)(nil),
		"Range":    (func(int64, int64, func(int64, int) bool))(nil),
	}},
	{"SnapshotCursor", reflect.TypeOf((*SnapshotCursor[int])(nil)), map[string]any{
		"Next": (func() (int64, int, bool))(nil),
	}},
}

// TestPublicAPISurface pins the exported method set of the public types: no
// method may appear, disappear or change signature, whichever internal pieces
// a facade is assembled from. The value types carry no methods at all.
func TestPublicAPISurface(t *testing.T) {
	for _, tc := range apiSurface {
		if n := tc.typ.Elem().NumMethod(); n != 0 {
			t.Errorf("%s: value type has %d methods, want 0", tc.name, n)
		}
		seen := map[string]bool{}
		for i := 0; i < tc.typ.NumMethod(); i++ {
			m := tc.typ.Method(i)
			seen[m.Name] = true
			want, ok := tc.methods[m.Name]
			if !ok {
				t.Errorf("%s.%s: unexpected exported method %v", tc.name, m.Name, m.Type)
				continue
			}
			if got := withoutReceiver(m.Type); got != reflect.TypeOf(want) {
				t.Errorf("%s.%s: signature %v, want %v", tc.name, m.Name, got, reflect.TypeOf(want))
			}
		}
		var missing []string
		for name := range tc.methods {
			if !seen[name] {
				missing = append(missing, name)
			}
		}
		sort.Strings(missing)
		for _, name := range missing {
			t.Errorf("%s.%s: method missing", tc.name, name)
		}
	}
}

// withoutReceiver drops a method type's leading receiver parameter.
func withoutReceiver(ft reflect.Type) reflect.Type {
	in := make([]reflect.Type, ft.NumIn()-1)
	for i := range in {
		in[i] = ft.In(i + 1)
	}
	out := make([]reflect.Type, ft.NumOut())
	for i := range out {
		out[i] = ft.Out(i)
	}
	return reflect.FuncOf(in, out, ft.IsVariadic())
}
