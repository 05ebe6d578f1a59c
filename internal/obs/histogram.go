package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the histogram resolution: bucket b counts values (in
// nanoseconds) whose bit length is b+1, i.e. v in [2^b, 2^(b+1)) — except
// bucket 0, which holds 0 and 1, and the last bucket, which absorbs
// everything at or above 2^(NumBuckets-1) ns (~9 minutes; no span latency
// this system measures legitimately exceeds it).
const NumBuckets = 40

// Histogram is a lock-free latency histogram with power-of-two buckets.
// Observe is wait-free (three atomic adds plus a bounded CAS for the max)
// and safe for any number of concurrent writers and snapshotting readers. A
// nil *Histogram discards observations, so a call site with no series to
// record into needs no branch.
//
// The pow2 bucketing is what makes fleet aggregation exact: two histograms
// recorded on different nodes merge by adding their buckets, and any
// quantile of the merged snapshot is the quantile of the combined sample to
// within one bucket's width (a factor of two) — see Snapshot.Quantile for
// the precise bound.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	sum     atomic.Int64 // total nanoseconds observed
	max     atomic.Int64 // largest single observation, ns
}

// bucketOf maps a nanosecond value to its bucket index.
func bucketOf(ns int64) int {
	if ns < 2 {
		return 0
	}
	b := bits.Len64(uint64(ns)) - 1
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// BucketBound returns the exclusive upper bound of bucket b in nanoseconds
// (2^(b+1)); the last bucket is unbounded and reports its inclusive lower
// bound's double like the rest — render it as +Inf when presenting.
func BucketBound(b int) int64 { return int64(1) << uint(b+1) }

// Observe records one duration. Negative durations clamp to zero (the clock
// went backwards; losing the sample would skew counts more than flooring
// it).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketOf(ns)].Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Snapshot captures a mergeable copy of the histogram. Readers never block
// writers: each counter is read atomically, so a snapshot taken while
// recording is a valid histogram of some interleaving — Count is derived
// from the buckets (never torn against them), while Sum and Max may lag or
// lead the buckets by in-flight observations.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	s.SumNS = h.sum.Load()
	s.MaxNS = h.max.Load()
	return s
}

// Snapshot is an immutable, mergeable histogram state. The JSON form is the
// /v1/metricsz wire unit routers merge for exact fleet quantiles.
type Snapshot struct {
	Buckets [NumBuckets]uint64 `json:"buckets"`
	Count   uint64             `json:"count"`
	SumNS   int64              `json:"sum_ns"`
	MaxNS   int64              `json:"max_ns"`
}

// Merge folds o into s (element-wise bucket addition — associative and
// commutative, so any fan-in order yields the same fleet histogram).
func (s *Snapshot) Merge(o Snapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.Count += o.Count
	s.SumNS += o.SumNS
	if o.MaxNS > s.MaxNS {
		s.MaxNS = o.MaxNS
	}
}

// Quantile estimates the q-quantile (q in [0,1]) by locating the bucket
// holding the rank-⌈q·Count⌉ sample and interpolating linearly inside it.
// The estimate lands in the same pow2 bucket as the true sample quantile,
// so for true values ≥ 2 ns the estimate is within a factor of two:
// est/true ∈ (1/2, 2] — the bound HistogramQuantileErrorBounds pins.
// Returns 0 on an empty snapshot.
func (s Snapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for b, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo := int64(0)
			if b > 0 {
				lo = int64(1) << uint(b)
			}
			hi := BucketBound(b)
			within := float64(rank-cum) / float64(n)
			est := time.Duration(float64(lo) + float64(hi-lo)*within)
			// The interpolated estimate can overshoot the exactly-tracked max
			// when the top bucket is sparsely filled; no sample exceeds max,
			// so neither should any quantile (this keeps p99 ≤ max in every
			// statusz row and only ever tightens the factor-of-two bound).
			if s.MaxNS > 0 && est > time.Duration(s.MaxNS) {
				est = time.Duration(s.MaxNS)
			}
			return est
		}
		cum += n
	}
	return time.Duration(s.MaxNS)
}

// Mean returns the average observation, 0 when empty.
func (s Snapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNS / int64(s.Count))
}

// Max returns the largest single observation.
func (s Snapshot) Max() time.Duration { return time.Duration(s.MaxNS) }
