package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histSub is the number of linear sub-buckets per power-of-two octave.
// With 8 sub-buckets, a bucket spans 1/8 of its octave, so any recorded
// value is at most 12.5% above its bucket's lower bound — the histogram's
// worst-case quantile error.
const histSub = 8

// histBuckets sizes the bucket array: values below 2*histSub get one
// exact bucket each, and every octave e = 4..61 contributes histSub
// buckets ((e-3)*histSub + histSub..). Durations are int64 nanoseconds,
// so e tops out at 62; 496 covers (61-3+1)*8 + 15 = 487 with headroom.
const histBuckets = 496

// bucketIndex maps a nanosecond value to its bucket: exact below 16,
// log-linear (octave × 8 sub-buckets) above. Negative values clamp to 0.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 2*histSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // 2^e <= v < 2^(e+1), e >= 4
	m := v >> (uint(e) - 3)        // mantissa in [8, 16)
	return (e-3)*histSub + int(m)
}

// bucketLower returns the smallest value mapping to the bucket — the
// value Snapshot reports for quantiles landing in it.
func bucketLower(idx int) int64 {
	if idx < 2*histSub {
		return int64(idx)
	}
	b := idx / histSub
	r := idx % histSub
	return int64(histSub+r) << (uint(b) - 1)
}

// Histogram is a lock-free log-bucketed latency histogram: Observe is a
// few atomic adds (safe from any goroutine, no allocation), Snapshot
// estimates quantiles from the bucket counts. The zero value is ready to
// use. Quantile estimates are exact below 16ns and within 12.5% above —
// each bucket spans 1/8 of its power-of-two octave.
type Histogram struct {
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	v := d.Nanoseconds()
	if v < 0 {
		v = 0
	}
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// HistSnapshot is a point-in-time histogram summary in nanoseconds, as
// served on /metrics and /v1/backends. Max is exact; the quantiles are
// bucket lower bounds (within 12.5% of the true sample).
type HistSnapshot struct {
	Count  int64 `json:"count"`
	MeanNs int64 `json:"meanNs"`
	P50Ns  int64 `json:"p50Ns"`
	P90Ns  int64 `json:"p90Ns"`
	P99Ns  int64 `json:"p99Ns"`
	MaxNs  int64 `json:"maxNs"`
}

// Snapshot summarizes the histogram. Concurrent Observe calls may be
// partially visible (an in-flight recording lands in the next snapshot);
// counts already recorded are never lost.
func (h *Histogram) Snapshot() HistSnapshot {
	var counts [histBuckets]int64
	var total int64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		counts[i] = c
		total += c
	}
	if total == 0 {
		return HistSnapshot{}
	}
	return HistSnapshot{
		Count:  total,
		MeanNs: h.sum.Load() / total,
		P50Ns:  quantile(&counts, total, 50),
		P90Ns:  quantile(&counts, total, 90),
		P99Ns:  quantile(&counts, total, 99),
		MaxNs:  h.max.Load(),
	}
}

// quantile returns the bucket lower bound containing the pct'th
// percentile sample (1-based rank ⌈total·pct/100⌉).
func quantile(counts *[histBuckets]int64, total, pct int64) int64 {
	rank := (total*pct + 99) / 100
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range counts {
		cum += counts[i]
		if cum >= rank {
			return bucketLower(i)
		}
	}
	return bucketLower(histBuckets - 1)
}
