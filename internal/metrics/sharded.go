// Sharded hot-path primitives: cache-line-padded counter stripes and a
// fixed log-bucketed (HDR-style) histogram. At fleet rates (~160k
// submissions/s across many goroutines) a single atomic word — let
// alone a mutex — becomes a coherence hotspot: every increment bounces
// one cache line between cores. Striping spreads writers over
// stripeCount independent lines and folds them back together only on
// the read side (Value/Snapshot), which runs orders of magnitude less
// often than the write side.
package metrics

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// stripeCount is the number of independent cache-line-padded stripes a
// sharded metric spreads its writers over. Must be a power of two so
// stripe selection is a mask, not a modulo.
const stripeCount = 8

// paddedInt64 is an atomic counter alone on its cache line, so two
// stripes never share a line and increments on different stripes never
// contend.
type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte // pad to 64 bytes
}

// stripeIndex picks a stripe. rand/v2's global generator is backed by
// a per-thread source (no lock, no allocation), so concurrent writers
// scatter across stripes instead of convoying on one.
func stripeIndex() int {
	return int(rand.Uint64() & (stripeCount - 1))
}

// Log-bucketed histogram layout: an observation is a non-negative
// int64 of nanoseconds. Values below bhSubBuckets get exact unit
// buckets; above that, each power of two is split into bhSubBuckets
// sub-buckets, bounding the relative quantile error at
// 1/bhSubBuckets (~3.1%). The whole int64 range fits in bhBuckets
// fixed buckets, so quantiles are an O(bhBuckets) scan — no window,
// no sort, no per-observation allocation.
const (
	bhSubBits    = 5
	bhSubBuckets = 1 << bhSubBits
	// int64's highest set bit is 62, so exponent groups run
	// bhSubBits..62 and the top bucket's upper bound is exactly
	// MaxInt64 — one more group would overflow the bound arithmetic.
	bhBuckets = (63 - bhSubBits + 1) * bhSubBuckets
)

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(ns int64) int {
	if ns < bhSubBuckets {
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 1 // position of the highest set bit, >= bhSubBits
	sub := int((uint64(ns) >> uint(exp-bhSubBits)) & (bhSubBuckets - 1))
	return (exp-bhSubBits+1)*bhSubBuckets + sub
}

// bucketUpperNS returns the largest nanosecond value bucket idx holds —
// the bucket's inclusive upper bound, which quantile queries report
// (then clamp into [min, max]).
func bucketUpperNS(idx int) int64 {
	if idx < bhSubBuckets {
		return int64(idx)
	}
	group := idx / bhSubBuckets // >= 1
	sub := idx % bhSubBuckets
	shift := uint(group - 1)
	lower := (int64(bhSubBuckets) + int64(sub)) << shift
	return lower + (int64(1)<<shift - 1)
}

// bhStripe is one writer stripe: per-bucket counts plus lifetime
// count/sum/min/max, all plain atomics.
type bhStripe struct {
	counts [bhBuckets]atomic.Int64
	count  atomic.Int64
	sumNS  atomic.Int64
	minNS  atomic.Int64
	maxNS  atomic.Int64
	// Pad to a whole number of cache lines so neighbouring stripes
	// never share one (ecolint/atomicshape checks the arithmetic).
	_ [32]byte
}

// BucketedHistogram is a log-bucketed latency histogram sharded across
// cache-line-padded stripes: Observe is lock-free and allocation-free,
// and p50/p99/p999 come from an O(bhBuckets) merge with no per-query
// sort, at ~3% relative error over the histogram's whole lifetime.
//
// The zero value is not usable; call NewBucketedHistogram (or
// Registry.BucketedHistogram). A nil *BucketedHistogram is a valid
// no-op, like every other metric type here.
type BucketedHistogram struct {
	stripes [stripeCount]bhStripe
}

// NewBucketedHistogram returns an empty bucketed histogram.
func NewBucketedHistogram() *BucketedHistogram {
	h := &BucketedHistogram{}
	for i := range h.stripes {
		h.stripes[i].minNS.Store(math.MaxInt64)
		h.stripes[i].maxNS.Store(math.MinInt64)
	}
	return h
}

// maxObservableSeconds saturates float observations so the ns
// conversion cannot overflow (≈292 years).
const maxObservableSeconds = float64(math.MaxInt64) / 1e9

// Observe records one value in seconds (the unit every histogram here
// observes latencies in). Negative values clamp to zero, NaN is
// dropped, and values beyond the int64-nanosecond range saturate.
func (h *BucketedHistogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	switch {
	case v <= 0:
		h.observeNS(0)
	case v >= maxObservableSeconds:
		h.observeNS(math.MaxInt64)
	default:
		h.observeNS(int64(v * 1e9))
	}
}

// ObserveDuration records a latency. This is the hot-path entry: no
// float conversion, no lock, no allocation.
func (h *BucketedHistogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.observeNS(ns)
}

func (h *BucketedHistogram) observeNS(ns int64) {
	st := &h.stripes[stripeIndex()]
	st.counts[bucketIndex(ns)].Add(1)
	st.count.Add(1)
	st.sumNS.Add(ns)
	for {
		old := st.minNS.Load()
		if ns >= old || st.minNS.CompareAndSwap(old, ns) {
			break
		}
	}
	for {
		old := st.maxNS.Load()
		if ns <= old || st.maxNS.CompareAndSwap(old, ns) {
			break
		}
	}
}

// Count returns the lifetime observation count.
func (h *BucketedHistogram) Count() int64 {
	if h == nil {
		return 0
	}
	var total int64
	for i := range h.stripes {
		total += h.stripes[i].count.Load()
	}
	return total
}

// bhMerged is the read-side fold of every stripe.
type bhMerged struct {
	counts       []int64
	total, sumNS int64
	minNS, maxNS int64
}

func (h *BucketedHistogram) merge() bhMerged {
	m := bhMerged{counts: make([]int64, bhBuckets), minNS: math.MaxInt64, maxNS: math.MinInt64}
	for i := range h.stripes {
		st := &h.stripes[i]
		m.total += st.count.Load()
		m.sumNS += st.sumNS.Load()
		if v := st.minNS.Load(); v < m.minNS {
			m.minNS = v
		}
		if v := st.maxNS.Load(); v > m.maxNS {
			m.maxNS = v
		}
		for b := range st.counts {
			m.counts[b] += st.counts[b].Load()
		}
	}
	return m
}

// quantileNS returns the nearest-rank q-quantile as the holding
// bucket's upper bound, clamped into the observed [min, max] so
// degenerate distributions (one value) answer exactly.
func (m *bhMerged) quantileNS(q float64) int64 {
	rank := int64(math.Ceil(q * float64(m.total)))
	if rank < 1 {
		rank = 1
	}
	if rank > m.total {
		rank = m.total
	}
	var cum int64
	for i, c := range m.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			ns := bucketUpperNS(i)
			if ns < m.minNS {
				ns = m.minNS
			}
			if ns > m.maxNS {
				ns = m.maxNS
			}
			return ns
		}
	}
	return m.maxNS
}

// Quantile returns the q-quantile (q in [0,1]) in seconds over all
// observations, or NaN when nothing has been observed.
func (h *BucketedHistogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	m := h.merge()
	if m.total == 0 {
		return math.NaN()
	}
	return float64(m.quantileNS(q)) / 1e9
}

// Quantiles returns the q-quantiles in seconds, merging the stripes
// once for the whole batch.
func (h *BucketedHistogram) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if h == nil {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	m := h.merge()
	for i, q := range qs {
		if m.total == 0 {
			out[i] = math.NaN()
			continue
		}
		out[i] = float64(m.quantileNS(q)) / 1e9
	}
	return out
}

// stat summarises the histogram for a snapshot, including the sparse
// bucket CDF the SLO evaluation consumes.
func (h *BucketedHistogram) stat() HistogramStat {
	m := h.merge()
	st := HistogramStat{Count: m.total, Sum: float64(m.sumNS) / 1e9}
	if m.total == 0 {
		st.P50, st.P90, st.P99, st.P999 = math.NaN(), math.NaN(), math.NaN(), math.NaN()
		return st
	}
	st.Min = float64(m.minNS) / 1e9
	st.Max = float64(m.maxNS) / 1e9
	st.Mean = st.Sum / float64(st.Count)
	st.P50 = float64(m.quantileNS(0.50)) / 1e9
	st.P90 = float64(m.quantileNS(0.90)) / 1e9
	st.P99 = float64(m.quantileNS(0.99)) / 1e9
	st.P999 = float64(m.quantileNS(0.999)) / 1e9
	for i, c := range m.counts {
		if c == 0 {
			continue
		}
		st.Buckets = append(st.Buckets, BucketCount{LE: float64(bucketUpperNS(i)) / 1e9, Count: c})
	}
	return st
}
