package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// histSub is the log2 of the sub-buckets per power of two: a recorded
// duration is kept to within 2^-histSub (0.2%) of itself.
const histSub = 9

// histBuckets covers durations up to 2^48 ns, far beyond any run.
const histBuckets = (48 - histSub) << histSub

// hist is a log-linear latency histogram in nanoseconds. One goroutine
// records into it; merge combines several after they are done.
type hist struct {
	counts []uint64
	n      uint64
}

func newHist() *hist { return &hist{counts: make([]uint64, histBuckets)} }

func bucketOf(v int64) int {
	if v < 1<<histSub {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - histSub - 1
	i := (e+1)<<histSub + int(v>>e) - 1<<histSub
	return min(i, histBuckets-1)
}

// bucketMid is the midpoint of bucket i in nanoseconds.
func bucketMid(i int) float64 {
	if i < 1<<histSub {
		return float64(i)
	}
	e := i>>histSub - 1
	low := int64(i&(1<<histSub-1)+1<<histSub) << e
	return float64(low) + float64(int64(1)<<e)/2
}

func (h *hist) add(d time.Duration) {
	h.counts[bucketOf(int64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	rank = max(rank, 1)
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(histBuckets - 1)
}

// latency summarises one op type across all recorders of a run.
type latency struct {
	n        uint64
	p50, p99 float64 // ns
}

func summarize(hs ...*hist) latency {
	all := newHist()
	for _, h := range hs {
		all.merge(h)
	}
	return latency{n: all.n, p50: all.quantile(0.50), p99: all.quantile(0.99)}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// iqMean is the mean of the values between the first and third quartiles:
// as robust to a descheduled call as the median, with the resolution of a
// mean.
func iqMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// mix is a bijective 64-bit finaliser: the value every workload stores for
// a key, so any read can be checked without shared bookkeeping.
func mix(k int64) uint64 {
	z := uint64(k) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
