package sched

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

// CanonicalKey returns a deterministic string identifying the scheduling
// outcome this Params selects: two Params with equal keys produce
// byte-identical schedules (for any fixed SOC), so the key is safe to use
// as a result-cache address. Fields that cannot influence the schedule are
// excluded — Workers only bounds sweep fan-out (parallel sweeps are
// deterministic), so Params differing only in Workers share a key.
// MaxWidth 0 and DefaultMaxWidth share a key too, since a schedule echoes
// the defaulted cap either way. MaxPreemptions is keyed as Budgets reads
// it, the positive budgets in core-ID order, because that is all a backend
// spends and a schedule records: nil, an empty map and {2: 0} all key as
// "pre=nil". Every other field is keyed as sent: a
// schedule echoes Backend and Seed as sent, and best mode sweeps
// DefaultInsertSlacks for an unset InsertSlack but pins an explicit 3.
func (p Params) CanonicalKey() string {
	if p.MaxWidth == 0 {
		p.MaxWidth = DefaultMaxWidth
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "w=%d|max=%d|pct=%d|delta=%d|power=%d|slack=%d|widen=%t|hier=%t|backend=%s|bt=%d|seed=%d|pre=",
		p.TAMWidth, p.MaxWidth, p.Percent, p.Delta, p.PowerMax, p.InsertSlack,
		p.DisableWidening, p.IgnoreHierarchy, p.Backend, int64(p.BackendTimeout), p.Seed)
	budgets := p.Budgets()
	if budgets == nil {
		sb.WriteString("nil")
	} else {
		ids := make([]int, 0, len(budgets))
		for id := range budgets {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		sb.WriteByte('[')
		for i, id := range ids {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d:%d", id, budgets[id])
		}
		sb.WriteByte(']')
	}
	return sb.String()
}

// BatchItem is one scheduling request: the run's Params plus the mode bit.
// Best selects the backend's best-schedule mode; with the classic default
// backend and Best false, the item is a single run at the given (α, δ) —
// exactly the Schedule vs ScheduleBest split of the one-at-a-time API.
type BatchItem struct {
	Params Params
	Best   bool
}

// best reports the item's effective mode. Non-classic backends have no
// single-run mode, so for them both spellings mean the best mode.
func (it BatchItem) best() bool {
	return it.Best || !IsDefaultBackend(it.Params.Backend)
}

// Key returns the item's mode-canonical result-cache address: the effective
// mode plus the Params' canonical key. Two items with equal keys produce
// byte-identical schedules. Items that differ only in Workers, in MaxWidth
// 0 against DefaultMaxWidth, in preemption budgets ≤ 0 (which Budgets
// drops: nil, empty and all-zero maps alike), or in Best for a non-classic
// backend share a key, and so do single runs that differ only in
// InsertSlack 0 against DefaultInsertSlack, since a single run applies
// Defaults and echoes the slack it ran. Best mode keeps those two apart:
// it sweeps DefaultInsertSlacks for an unset slack. Any other difference,
// even between two spellings of one default, gives each its own key.
func (it BatchItem) Key() string {
	best, p := it.best(), it.Params
	if !best && p.InsertSlack == DefaultInsertSlack {
		p.InsertSlack = 0
	}
	return fmt.Sprintf("best=%t|%s", best, p.CanonicalKey())
}

// ScheduleItem answers one request: one classic Run at the given (α, δ)
// for a single-run item, which checks ctx as a sweep's grid points do, the
// backend's best mode (ScheduleBackend) otherwise. It is the one dispatch
// the repro API, ScheduleBatch, the service and the corpus replayer share,
// so they can never disagree about which requests take the single-run
// path.
func (o *Optimizer) ScheduleItem(ctx context.Context, it BatchItem) (*Schedule, error) {
	if it.best() {
		return o.ScheduleBackend(ctx, it.Params)
	}
	return o.runContext(ctx, it.Params)
}

// BatchResult is one item's outcome: the schedule, or the item's own
// error. Items deduplicated inside a batch share one *Schedule — treat it
// as read-only, exactly like every other schedule the optimizer returns.
type BatchResult struct {
	Schedule *Schedule
	Err      error
}

// ScheduleBatch runs every item through the optimizer with a bounded
// worker pool and returns one result per item, in item order. Identical
// items (equal canonical keys) are computed once and share the result —
// the batch-scope form of the service layer's content-addressed result
// cache, so library callers get the same deduplication semantics. One
// failing item never fails the batch: its error lands in its own slot.
// workers bounds the fan-out (0 = GOMAXPROCS, 1 = sequential); results
// are identical for any worker count. Once ctx is done, unstarted items
// fail with ctx's error.
func (o *Optimizer) ScheduleBatch(ctx context.Context, items []BatchItem, workers int) []BatchResult {
	results := make([]BatchResult, len(items))
	// Deduplicate: first occurrence of each key computes, the rest share.
	firstOf := make(map[string]int, len(items))
	unique := make([]int, 0, len(items))
	share := make([]int, len(items)) // item index -> computing item index
	for i, it := range items {
		k := it.Key()
		if j, ok := firstOf[k]; ok {
			share[i] = j
			continue
		}
		firstOf[k] = i
		share[i] = i
		unique = append(unique, i)
	}
	ForEach(workers, len(unique), func(k int) {
		i := unique[k]
		if err := ctx.Err(); err != nil {
			results[i].Err = err
			return
		}
		results[i].Schedule, results[i].Err = o.ScheduleItem(ctx, items[i])
	})
	for i := range items {
		if share[i] != i {
			results[i] = results[share[i]]
		}
	}
	return results
}
