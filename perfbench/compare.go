package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runSet holds the metric values of a set of runs: workload → metric →
// one value per run, in file-name order.
type runSet map[string]map[string][]float64

// loadRuns reads every file in dir as the captured standard output of one
// run: the "perfbench: workload=" line names the workload and the last
// line is the result object.
func loadRuns(dir string) (runSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	set := make(runSet)
	for _, f := range files {
		workload, res, err := readRun(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if set[workload] == nil {
			set[workload] = make(map[string][]float64)
		}
		for name, m := range res.Metrics {
			set[workload][name] = append(set[workload][name], m.Value)
		}
	}
	return set, nil
}

// result is the last line a run prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func readRun(path string) (string, result, error) {
	var res result
	f, err := os.Open(path)
	if err != nil {
		return "", res, err
	}
	defer f.Close()
	workload, last := "", ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "perfbench: workload="); ok {
			workload, _, _ = strings.Cut(rest, " ")
		}
		if line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return "", res, err
	}
	if workload == "" {
		return "", res, fmt.Errorf("no workload line")
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return "", res, fmt.Errorf("last line is not a result: %w", err)
	}
	return workload, res, nil
}

// verdict applies the paired rule: the change (b) is better when it wins
// at least nine tenths of the pairs (a[i], b[i]), ties counting for
// neither, and its median differs from the parent's (a) by more than the
// parent's own quartile spread; worse by the mirror rule; otherwise the
// runs cannot tell the two apart.
func verdict(a, b []float64, direction string) string {
	n := min(len(a), len(b))
	if n == 0 {
		return "unresolved"
	}
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		d := b[i] - a[i]
		if direction == "lower" {
			d = -d
		}
		switch {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	q1, q3 := quartiles(a)
	diff := median(b) - median(a)
	if diff < 0 {
		diff = -diff
	}
	if diff <= q3-q1 {
		return "unresolved"
	}
	switch {
	case 10*wins >= 9*n:
		return "better"
	case 10*losses >= 9*n:
		return "worse"
	}
	return "unresolved"
}

// compare prints, per (workload, metric) both sets share, each side's
// median and quartiles and the verdict for the second set against the
// first.
func compare(w io.Writer, parentDir, changeDir string) error {
	a, err := loadRuns(parentDir)
	if err != nil {
		return err
	}
	b, err := loadRuns(changeDir)
	if err != nil {
		return err
	}
	var workloadNames []string
	for wl := range a {
		if b[wl] != nil {
			workloadNames = append(workloadNames, wl)
		}
	}
	sort.Strings(workloadNames)
	fmt.Fprintf(w, "%-16s %-38s %12s %25s %12s %25s  %s\n",
		"workload", "metric", "parent", "parent q1..q3", "change", "change q1..q3", "verdict")
	for _, wl := range workloadNames {
		var names []string
		for name := range a[wl] {
			if b[wl][name] != nil {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			av, bv := a[wl][name], b[wl][name]
			aq1, aq3 := quartiles(av)
			bq1, bq3 := quartiles(bv)
			fmt.Fprintf(w, "%-16s %-38s %12.4g %12.4g..%-12.4g %12.4g %12.4g..%-12.4g  %s (n=%d/%d)\n",
				wl, name, median(av), aq1, aq3, median(bv), bq1, bq3,
				verdict(av, bv, better(name)), len(av), len(bv))
		}
	}
	return nil
}
