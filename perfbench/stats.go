package main

import (
	"math"
	"sort"
	"strings"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to figures.
type metrics map[string]metric

// endToEndMetrics are the end-to-end metrics and their units, in
// reporting order.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"items_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"ok_pct", "%"},
	{"makespan_gap_pct", "%"},
	{"alloc_kb_per_req", "KiB"},
	{"retained_heap_mb", "MiB"},
}

// higherIsBetter lists the metrics besides ratios and win shares that
// improve upward.
var higherIsBetter = map[string]bool{
	"throughput_rps":       true,
	"items_per_s":          true,
	"ok_pct":               true,
	"service.cache.shared": true,
	"trace.parity_checked": true,
}

// better says which way a metric improves: "higher" for rates, ratios and
// win shares, "lower" for times, sizes, gaps and counts of trouble.
func better(name string) string {
	if higherIsBetter[name] || strings.HasSuffix(name, "_ratio") || strings.Contains(name, ".win_share.") {
		return "higher"
	}
	return "lower"
}

// quantile returns the nearest-rank q-quantile of sorted values: the
// smallest value with at least a q share of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// beyond is how many samples lie above the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailQuantile is the highest reportable percentile for n samples: the
// largest of p99.9, p99, p90 and p50 with at least ten samples beyond it
// (0 when even the median has fewer).
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9, 0.5} {
		if beyond(n, q) >= 10 {
			return q
		}
	}
	return 0
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (its default "exclusive" method).
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
