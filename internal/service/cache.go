package service

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"repro"
)

// DefaultCacheBytes bounds the result cache when Config.CacheBytes leaves
// it unset. Schedule documents for the paper's benchmark SOCs run a few
// KiB to a few hundred KiB, so 64 MiB holds hundreds to tens of thousands
// of distinct (SOC, params) points — plenty for the hot set of a sweep-
// heavy workload without letting the cache dominate the heap.
const DefaultCacheBytes int64 = 64 << 20

// CacheStats is the result cache's /metrics block.
type CacheStats struct {
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	CapacityBytes int64 `json:"capacityBytes"`
	// Hits counts requests answered from a stored document or a shared
	// in-flight build (see SingleflightShared for the latter alone).
	Hits int64 `json:"hits"`
	// Misses counts builds actually executed.
	Misses int64 `json:"misses"`
	// Evictions counts documents dropped by the LRU to stay under capacity.
	Evictions int64 `json:"evictions"`
	// SingleflightShared counts callers that piggybacked on a concurrent
	// identical build instead of computing or reading a stored entry.
	SingleflightShared int64 `json:"singleflightShared"`
}

// flightLRU is the service's one memo: a keyed singleflight in front of
// an LRU bounded by the total cost of the values it stores. The Planner
// registry prices a Planner at 1 (a count bound) and the result cache a
// document at its length (a byte bound). The rules, for both:
//   - concurrent Do calls for one key share one build;
//   - a failed build is never stored and never poisons its waiters: they
//     retry from the top, and one of them leads the next build;
//   - a waiter's own ctx bounds its wait; the leader still stores its value;
//   - only finished values hold capacity, so the stored cost never exceeds
//     it, and a value costing more than the whole capacity is served but
//     not stored.
type flightLRU[V any] struct {
	mu       sync.Mutex
	capacity int64
	cost     func(V) int64
	entries  map[string]*list.Element // guarded by mu; of *lruEntry[V]
	lru      *list.List               // guarded by mu; front = most recent
	used     int64                    // guarded by mu; total cost of entries
	flights  map[string]*flight[V]    // guarded by mu

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	shared    atomic.Int64
}

type lruEntry[V any] struct {
	key  string
	val  V
	cost int64
}

// flight is one in-progress build; val/err are written exactly once
// before done is closed and read only after it.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func newFlightLRU[V any](capacity int64, cost func(V) int64) *flightLRU[V] {
	return &flightLRU[V]{
		capacity: capacity,
		cost:     cost,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		flights:  make(map[string]*flight[V]),
	}
}

// Do returns the value for key, building it at most once across
// concurrent identical calls. hit reports whether the answer came from
// the store or a shared in-flight build (false: this call ran build). A
// build error is returned to the caller that ran it and nothing is stored.
func (c *flightLRU[V]) Do(ctx context.Context, key string, build func() (V, error)) (val V, hit bool, err error) {
	for {
		c.mu.Lock()
		if elem, ok := c.entries[key]; ok {
			c.lru.MoveToFront(elem)
			val = elem.Value.(*lruEntry[V]).val
			c.mu.Unlock()
			c.hits.Add(1)
			return val, true, nil
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return val, false, ctx.Err()
			}
			if f.err == nil {
				c.hits.Add(1)
				c.shared.Add(1)
				return f.val, true, nil
			}
			// The leader failed. Its failure was not stored, so retry: the
			// next lap either joins a newer flight or leads one.
			continue
		}
		f := &flight[V]{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()

		f.val, f.err = build()
		cost := c.cost(f.val)
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			c.insertLocked(key, f.val, cost)
		}
		c.mu.Unlock()
		close(f.done)
		c.misses.Add(1)
		return f.val, false, f.err
	}
}

// insertLocked stores val under key (the caller's flight guarantees no
// entry exists) and evicts from the cold end until the stored cost fits
// capacity again. Callers hold c.mu.
func (c *flightLRU[V]) insertLocked(key string, val V, cost int64) {
	if cost > c.capacity {
		return
	}
	c.entries[key] = c.lru.PushFront(&lruEntry[V]{key: key, val: val, cost: cost})
	c.used += cost
	for c.used > c.capacity {
		e := c.lru.Remove(c.lru.Back()).(*lruEntry[V])
		delete(c.entries, e.key)
		c.used -= e.cost
		c.evictions.Add(1)
	}
}

// has reports whether a value is stored under key.
func (c *flightLRU[V]) has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Stats snapshots the counters. Bytes and CapacityBytes are in cost units:
// bytes for the result cache, Planners for the registry.
func (c *flightLRU[V]) Stats() CacheStats {
	c.mu.Lock()
	entries, used := len(c.entries), c.used
	c.mu.Unlock()
	return CacheStats{
		Entries:            entries,
		Bytes:              used,
		CapacityBytes:      c.capacity,
		Hits:               c.hits.Load(),
		Misses:             c.misses.Load(),
		Evictions:          c.evictions.Load(),
		SingleflightShared: c.shared.Load(),
	}
}

// ResultCache is the content-addressed result cache: serialized response
// documents keyed by (fingerprint, canonical params, mode), bounded by
// total stored bytes. Storing the exact bytes a cache miss served makes
// hits byte-identical by construction, and the flightLRU rules mean a
// chaos-injected or timed-out build costs only the caller that ran it.
type ResultCache = flightLRU[[]byte]

// NewResultCache builds a cache bounded to capacity bytes of stored
// documents (<= 0: DefaultCacheBytes).
func NewResultCache(capacity int64) *ResultCache {
	if capacity <= 0 {
		capacity = DefaultCacheBytes
	}
	return newFlightLRU(capacity, func(doc []byte) int64 { return int64(len(doc)) })
}

// scheduleCacheKey is the content address of a schedule document: the
// SOC fingerprint plus the item's mode-canonical key (sched.BatchItem.Key),
// so every spelling of the same computation shares one entry.
func scheduleCacheKey(fp string, it repro.BatchItem) string {
	return "sched|" + fp + "|" + it.Key()
}
