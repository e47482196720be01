package vectormap

// Ordering for unsorted chunks. It runs on AppendOrdered's private copy of
// a chunk's slots, never on the slots themselves, so it needs no atomics
// and terminates on any contents — including the torn ones an optimistic
// reader copies before its seqlock validation fails.

// sortPairs sorts keys ascending and permutes vals alongside. It is an
// insertion sort, which is linear on ascending slots and cheap at chunk
// sizes. A shift budget bounds it: past the budget it
// finishes with a heapsort, so a badly ordered large chunk costs
// O(n log n). At the default capacity of 64 slots, at most 2016 shifts can
// occur, so the budget is never reached there.
func sortPairs[P any](keys []int64, vals []*P) {
	budget := max(8*len(keys), 2048)
	for i := 1; i < len(keys); i++ {
		k, v := keys[i], vals[i]
		j := i
		for j > 0 && keys[j-1] > k {
			keys[j], vals[j] = keys[j-1], vals[j-1]
			j--
		}
		keys[j], vals[j] = k, v
		if budget -= i - j; budget < 0 {
			heapSortPairs(keys, vals)
			return
		}
	}
}

// heapSortPairs is sortPairs' O(n log n), allocation-free fallback.
func heapSortPairs[P any](keys []int64, vals []*P) {
	n := len(keys)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(keys, vals, i, n)
	}
	for end := n - 1; end > 0; end-- {
		keys[0], keys[end] = keys[end], keys[0]
		vals[0], vals[end] = vals[end], vals[0]
		siftDown(keys, vals, 0, end)
	}
}

// siftDown restores the max-heap property of keys[:n] below root.
func siftDown[P any](keys []int64, vals []*P, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n && keys[child] < keys[child+1] {
			child++
		}
		if keys[root] >= keys[child] {
			return
		}
		keys[root], keys[child] = keys[child], keys[root]
		vals[root], vals[child] = vals[child], vals[root]
		root = child
	}
}
