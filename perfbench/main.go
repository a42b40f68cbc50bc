// Command perfbench is the repository's benchmark. It drives an in-process
// service.Server over loopback HTTP with one of three seeded workloads and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics of a
// separate traced run (--trace 1), checking every answer it receives.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload cold-portfolio --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare PARENT_DIR CHANGE_DIR
//
// The load is a closed loop of one client, every request and batch item
// asks for one worker, and the process runs Go code on one core, so its
// times can be read on the process CPU clock, which a hypervisor's steal
// does not advance; they are then scaled by the speed of a calibration
// kernel run between requests (calib.go). The last line of standard output
// is one JSON object with the keys correct, attempted, failed and metrics.
// compare reads two
// directories of captured run outputs and prints, per workload and metric,
// each side's median and quartiles with a better, worse or unresolved
// verdict.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: perfbench compare PARENT_DIR CHANGE_DIR")
			os.Exit(2)
		}
		if err := compare(os.Stdout, os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "cold-portfolio, hot-mix or sweep-effective")
	seed := flag.Int64("seed", 1, "workload seed; the generated traffic is a pure function of it")
	seconds := flag.Int("seconds", 20, "how long the measured closed loop runs")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run instead")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, trace bool) error {
	p, err := buildPlan(workload, seed, seconds)
	if err != nil {
		return err
	}
	// One core: client and service take turns on it, so the CPU time a
	// request used is its round trip less the steal it suffered.
	runtime.GOMAXPROCS(1)
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%t gomaxprocs=%d clients=1 loop=closed\n",
		workload, seed, seconds, trace, runtime.GOMAXPROCS(0))
	fmt.Printf("perfbench: generated %d requests over %d SOCs, prefix %d, digest %s\n",
		len(p.Requests), len(p.SOCs), p.Prefix, p.digest())

	if trace {
		tr, err := traced(p)
		if err != nil {
			return err
		}
		printMetrics(tr.metrics, perLayerNames())
		fmt.Printf("perfbench: largest self-time layer: %s\n", tr.largest)
		n := int(tr.metrics["trace.requests"].Value)
		return emit(result{Correct: true, Attempted: n, Metrics: tr.metrics})
	}

	m, t, r, err := endToEnd(p, time.Duration(seconds)*time.Second)
	if err != nil {
		return err
	}
	var names []string
	for _, e := range endToEndMetrics {
		names = append(names, e.name)
	}
	printMetrics(m, names)
	fmt.Printf("perfbench: %d requests, %d schedules attempted, %d failed (error_rate %.6f); latency from %d samples, %d beyond p90\n",
		t.requests, t.attempted, t.failed, float64(t.failed)/float64(t.attempted),
		len(t.latencies), beyond(len(t.latencies), 0.9))
	fmt.Printf("perfbench: run took %.3f s wall, %.3f s CPU (%.1f%% of wall); wall-clock throughput %.4f 1/s\n",
		r.wall.Seconds(), r.cpu.Seconds(), 100*r.cpu.Seconds()/r.wall.Seconds(), float64(t.okRequests)/r.wall.Seconds())
	fmt.Printf("perfbench: calibration kernel %.4f ms mean over %d samples (reference %.4f ms): rates and set-up scaled by %.4f\n",
		meanMS(r.cal.samples), len(r.cal.samples), refKernelMS, r.cal.scale())
	fmt.Printf("perfbench: its cache-resident part %.4f ms mean (reference %.4f ms): latencies scaled by %.4f\n",
		meanMS(r.cal.resident), refResidentMS, r.cal.latencyScale())
	fmt.Printf("perfbench: makespan gap over %d prefix schedules; batch cache hits %d of %d items\n",
		len(t.gaps), t.batchHits, t.batchItems)
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
	if t.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", t.firstErr)
	}
	if tailQuantile(len(t.latencies)) < 0.9 {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: only %d latency samples, too few for p90\n", len(t.latencies))
	}
	if err := emit(res); err != nil {
		return err
	}
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

// perLayerNames lists the metrics of a traced run, in reporting order.
func perLayerNames() []string {
	var names []string
	for _, l := range layers {
		names = append(names, l+"_ms", l+".self_ms", l+".median_ms", l+".calls")
	}
	for _, b := range racers {
		names = append(names, "sched.portfolio.win_share."+b)
	}
	return append(names,
		"sched.portfolio.overhead_ms",
		"service.registry.hit_ratio",
		"service.cache.hit_ratio",
		"service.cache.evictions",
		"service.cache.shared",
		"service.batch.cache_hit_ratio",
		"service.shed",
		"service.timeouts",
		"schedio.doc_kb",
		"runtime.gc_cycles",
		"runtime.gc_pause_ms",
		"trace.requests",
		"trace.parity_checked",
		"trace.total_ms",
		"trace.untraced_ms",
		"trace.overhead_pct",
		"unattributed_ms",
	)
}

func printMetrics(m metrics, names []string) {
	for _, name := range names {
		fmt.Printf("perfbench: %-40s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}

func emit(res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
