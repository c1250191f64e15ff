package main

import "math/bits"

// hist is a log-linear latency histogram: values below 2^subBits are
// exact, larger ones fall into one of 2^subBits equal sub-buckets of
// their power of two, so a quantile read from a bucket midpoint is
// within 1/2^(subBits+1) (0.4%) of some recorded value at that rank.
type hist struct {
	counts [numBuckets]uint64
	n      uint64
}

const (
	subBits    = 7
	subCount   = 1 << subBits
	numBuckets = (64 - subBits + 1) * subCount
)

func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	return (shift+1)*subCount + int(v>>uint(shift)) - subCount
}

// bucketMid returns the midpoint of bucket i's value range.
func bucketMid(i int) float64 {
	if i < subCount {
		return float64(i)
	}
	shift := i/subCount - 1
	lo := uint64(i%subCount+subCount) << uint(shift)
	return float64(lo) + float64(uint64(1)<<uint(shift)-1)/2
}

func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(uint64(v))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the value at rank ceil(q*n) (q in (0,1]), or 0 for
// an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(numBuckets - 1)
}
