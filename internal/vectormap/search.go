package vectormap

// The sorted-chunk searches of indexOf, FindLE and FindGE share these two
// binary searches. Both run over a size the caller has already clamped
// (snapshotSize), so a torn size or keys shifting under a concurrent writer
// can only yield a wrong position — discarded when the seqlock validation
// fails — never an out-of-bounds probe. FuzzLowerBound checks them against a
// linear scan on sorted contents and for termination in bounds on arbitrary
// ones.

// lowerBound returns the first position in [0, s) whose key is ≥ k, or s
// when no key qualifies.
func (c *Chunk[P]) lowerBound(k int64, s int) int {
	lo, hi := 0, s
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.keys[mid].Load() < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first position in [0, s) whose key is > k, or s
// when no key qualifies. A distinct ≤ comparison instead of lowerBound(k+1)
// sidesteps the k == PosInf overflow.
func (c *Chunk[P]) upperBound(k int64, s int) int {
	lo, hi := 0, s
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.keys[mid].Load() <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
