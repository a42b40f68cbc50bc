package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// The host a run lands on does not give it the same speed from one run to
// the next: other guests' use of shared caches and memory bandwidth moves
// the CPU time a fixed piece of work takes by tens of percent over
// minutes, which the process CPU clock does not remove. A calibration
// kernel, fixed standard-library work that touches no code of the
// repository, runs between requests throughout a run, and the run's
// figures are scaled to what they would read on a host where the kernel
// takes its reference time. A change to the program does not change the
// kernel, so it still shows in full.
//
// The kernel has two parts. Its cache-resident part (a sort, map lookups,
// a JSON scan and compaction) slows down about as much as a single
// request does, and scales the latency percentiles. The whole kernel adds
// a dependent walk through 16 MiB, a streaming read of 8 MiB and a 1 MiB
// clear; it slows down about as much as a whole run does, which also pays
// for the garbage collector and for the memory the run streams through,
// and scales the rates and set-up time. Both parts were chosen by how well
// their slowdowns followed the three workloads' across runs of one seed on
// the reference host; an arithmetic-bound part (SHA-256) did not slow down
// with them at all and was left out.

// refKernelMS and refResidentMS are the whole kernel's and its
// cache-resident part's mean CPU time on the reference host: a two-vCPU
// virtual machine (Intel Xeon, 2.1 GHz) in a typical minute.
const (
	refKernelMS   = 1.8
	refResidentMS = 0.65
)

// calibEvery is how much CPU time the measured traffic uses between two
// kernel samples; the kernel adds about 5% to a run.
const calibEvery = 30 * time.Millisecond

// calibrator holds the kernel's inputs, built once, and its samples. The
// kernel allocates nothing, so the service's heap and GC cannot move it.
type calibrator struct {
	keys     []int
	scratch  []int
	table    map[int]int
	doc      []byte
	compact  bytes.Buffer
	chase    []int32
	stream   []int64
	clear    []byte
	samples  []time.Duration // whole kernel
	resident []time.Duration // its cache-resident part
	sink     int
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{
		keys:    make([]int, 4096),
		scratch: make([]int, 4096),
		table:   make(map[int]int, 4096),
		chase:   make([]int32, 1<<22), // 16 MiB, beyond the last-level cache
		stream:  make([]int64, 1<<20), // 8 MiB
		clear:   make([]byte, 1<<20),
	}
	for i := range c.keys {
		c.keys[i] = rng.Int()
		c.table[c.keys[i]] = i
	}
	// One random cycle through the whole array, so every step misses.
	perm := rng.Perm(len(c.chase))
	for i := range perm {
		c.chase[perm[i]] = int32(perm[(i+1)%len(perm)])
	}
	rows := make([]map[string]any, 64)
	for i := range rows {
		rows[i] = map[string]any{"core": fmt.Sprintf("c%02d", i), "start": rng.Intn(1 << 20), "width": rng.Intn(64), "segments": []int{rng.Intn(99), rng.Intn(99)}}
	}
	c.doc, _ = json.MarshalIndent(map[string]any{"tests": rows}, "", "  ")
	c.kernel() // size the compact buffer and warm the map before any sample
	return c
}

// kernel is one unit of calibration work: its cache-resident part, then
// its memory part.
func (c *calibrator) kernel() {
	c.residentPart()
	c.memoryPart()
}

func (c *calibrator) residentPart() {
	copy(c.scratch, c.keys)
	sort.Ints(c.scratch)
	for _, k := range c.scratch {
		c.sink += c.table[k]
	}
	if json.Valid(c.doc) {
		c.sink++
	}
	c.compact.Reset()
	if json.Compact(&c.compact, c.doc) == nil {
		c.sink += c.compact.Len()
	}
}

func (c *calibrator) memoryPart() {
	j := int32(0)
	for i := 0; i < 2000; i++ {
		j = c.chase[j]
	}
	c.sink += int(j)
	var s int64
	for _, v := range c.stream {
		s += v
	}
	c.sink += int(s)
	clear(c.clear)
}

// sample runs the kernel once, records the CPU time of the whole and of
// its cache-resident part, and returns the whole.
func (c *calibrator) sample() time.Duration {
	c0 := cpuNow()
	c.residentPart()
	c1 := cpuNow()
	c.memoryPart()
	d := cpuNow() - c0
	c.samples = append(c.samples, d)
	c.resident = append(c.resident, c1-c0)
	return d
}

// meanMS is the mean CPU time of samples in milliseconds.
func meanMS(samples []time.Duration) float64 {
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	return ms(sum) / float64(len(samples))
}

// scale turns a run's rates and set-up time into the reference host's: a
// time is multiplied by it, a rate divided. It is below 1 when this run's
// host is slower.
func (c *calibrator) scale() float64 {
	return refKernelMS / meanMS(c.samples)
}

// latencyScale turns a run's request latencies into the reference host's.
func (c *calibrator) latencyScale() float64 {
	return refResidentMS / meanMS(c.resident)
}
