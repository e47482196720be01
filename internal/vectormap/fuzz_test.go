package vectormap

import (
	"encoding/binary"
	"sort"
	"testing"
)

// FuzzChunkModel drives a chunk with an op byte-stream cross-checked
// against a map model. After every op, AppendOrdered must reproduce the
// model in key order; on unsorted chunks, swap-with-last removes leave the
// slots in arbitrary orders for it to sort. Run with
// `go test -fuzz FuzzChunkModel` for continuous fuzzing; `go test` replays
// the seed corpus.
func FuzzChunkModel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, true)
	f.Add([]byte{10, 200, 30, 40, 5, 60, 7, 80}, false)
	f.Add([]byte{255, 255, 0, 0, 128, 128}, true)

	f.Fuzz(func(t *testing.T, ops []byte, sorted bool) {
		var c Chunk[int64]
		c.Init(4, sorted) // capacity 8
		model := map[int64]int64{}
		var gotK, wantK []int64
		var gotV []*int64
		for _, b := range ops {
			k := int64(b % 16)
			switch (b >> 4) % 3 {
			case 0:
				if len(model) == c.Cap() {
					continue
				}
				_, inModel := model[k]
				got := c.Insert(k, val(k*7))
				if got == inModel {
					t.Fatalf("Insert(%d) = %t, model has=%t", k, got, inModel)
				}
				if got {
					model[k] = k * 7
				}
			case 1:
				_, inModel := model[k]
				_, got := c.Remove(k)
				if got != inModel {
					t.Fatalf("Remove(%d) = %t, model has=%t", k, got, inModel)
				}
				delete(model, k)
			default:
				v, got := c.Get(k)
				mv, inModel := model[k]
				if got != inModel || (got && *v != mv) {
					t.Fatalf("Get(%d) mismatch", k)
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("invariants: %v", err)
			}
			if c.Size() != len(model) {
				t.Fatalf("size %d != model %d", c.Size(), len(model))
			}
			gotK, gotV = c.AppendOrdered(gotK[:0], gotV[:0])
			wantK = wantK[:0]
			for k := range model {
				wantK = append(wantK, k)
			}
			sort.Slice(wantK, func(i, j int) bool { return wantK[i] < wantK[j] })
			if len(gotK) != len(wantK) || len(gotV) != len(wantK) {
				t.Fatalf("AppendOrdered = %v, model %v", gotK, wantK)
			}
			for i, k := range wantK {
				if gotK[i] != k || *gotV[i] != model[k] {
					t.Fatalf("AppendOrdered = %v, model %v", gotK, wantK)
				}
			}
		}
	})
}

// FuzzLowerBound checks the sorted-chunk searches (search.go): on every
// *non-decreasing* key array — duplicates included — lowerBound/upperBound
// must agree with a linear scan, and on *arbitrary* array contents (the torn
// sizes and mid-shift states an optimistic reader can observe before seqlock
// validation rejects them) both must still terminate with a result in
// [0, s]. Keys are raw little-endian int64s so the fuzzer can reach the
// sentinel extremes (NegInf/PosInf).
func FuzzLowerBound(f *testing.F) {
	k8 := func(ks ...int64) []byte {
		b := make([]byte, 8*len(ks))
		for i, k := range ks {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(k))
		}
		return b
	}
	f.Add(k8(1, 2, 3, 4), int64(3), uint8(4))
	f.Add(k8(5, 5, 5, 9), int64(5), uint8(4))             // duplicates
	f.Add(k8(NegInf, 0, PosInf), int64(NegInf), uint8(3)) // sentinel extremes
	f.Add(k8(9, 2, -7, 2), int64(2), uint8(200))          // unsorted + torn size
	f.Add(k8(), int64(0), uint8(0))                       // empty
	f.Add(k8(PosInf, NegInf), int64(PosInf-1), uint8(2))  // reversed at extremes

	f.Fuzz(func(t *testing.T, raw []byte, k int64, rawSize uint8) {
		var c Chunk[int64]
		c.Init(16, true) // capacity 32
		n := len(raw) / 8
		if n > c.Cap() {
			n = c.Cap()
		}
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
			c.keys[i].Store(keys[i])
		}
		// A torn size may exceed the populated prefix or the capacity; the
		// clamp in snapshotSize is part of what this fuzz exercises.
		c.size.Store(int32(rawSize))
		s := c.snapshotSize()

		// Arbitrary contents: in-bounds and terminating, nothing more.
		for _, got := range []int{c.lowerBound(k, s), c.upperBound(k, s)} {
			if got < 0 || got > s {
				t.Fatalf("result %d outside [0, %d] on arbitrary keys", got, s)
			}
		}

		// Non-decreasing contents: exact agreement with the linear scan. Sort
		// the populated prefix and cap s there, so the whole probed window
		// [0, s) is ordered (the zero-filled torn tail may break the order
		// when keys are negative).
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for i, kk := range keys {
			c.keys[i].Store(kk)
		}
		if s > n {
			s = n
		}
		// The first position whose key is >= k (lower) or > k (upper).
		wantLower, wantUpper := s, s
		for i := s - 1; i >= 0; i-- {
			if keys[i] >= k {
				wantLower = i
			}
			if keys[i] > k {
				wantUpper = i
			}
		}
		if got := c.lowerBound(k, s); got != wantLower {
			t.Fatalf("lowerBound(%d, %d) = %d, linear scan = %d (keys %v)", k, s, got, wantLower, keys[:s])
		}
		if got := c.upperBound(k, s); got != wantUpper {
			t.Fatalf("upperBound(%d, %d) = %d, linear scan = %d (keys %v)", k, s, got, wantUpper, keys[:s])
		}
	})
}
