// Package service turns the repro library into a long-running SOC
// test-scheduling service: a Planner registry and a result cache of
// schedule documents, both instances of one singleflight-LRU (flightLRU)
// that shares concurrent builds and bounds what stays in memory; an
// asynchronous job pool for long-running sweeps with cancellation; and an
// HTTP/JSON API (cmd/socserved) whose responses are byte-identical to the
// library's direct Planner answers.
package service

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro"
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/soc"
	"repro/internal/socfile"
)

// siteRegistryBuild is the failpoint fired before every Planner build; the
// chaos suite arms it to prove a failed build is not cached: the caller
// that ran it gets the error, its waiters and the next caller rebuild.
const siteRegistryBuild = "service/registry/build"

// DefaultPlannerCapacity bounds the Planner LRU when Config leaves it
// unset. Planners hold every (core, width) wrapper design and Pareto
// staircase of their SOC, so they are the registry's memory cost; SOC
// descriptions themselves are tiny and retained for every upload.
const DefaultPlannerCapacity = 32

// ErrUnknownSOC reports a schedule/sweep request naming a SOC that was
// never uploaded (or whose name points at nothing).
var ErrUnknownSOC = fmt.Errorf("service: unknown SOC")

// Registry maps canonical SOC fingerprints to scheduling state. Uploaded
// SOCs are deduplicated by socfile.Fingerprint; Planners are built lazily
// through a flightLRU costing 1 per Planner, so concurrent requests for
// one fingerprint share one build and at most capacity built Planners are
// held. An evicted Planner is rebuilt on next use — the SOC description is
// never forgotten. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	socs     map[string]*soc.SOC // guarded by mu; fingerprint → validated, registry-owned SOC
	names    map[string]string   // guarded by mu; SOC name → fingerprint (last upload wins)
	planners *flightLRU[*repro.Planner]
}

// NewRegistry returns a registry bounding its Planner cache to capacity
// (<= 0 means DefaultPlannerCapacity).
func NewRegistry(capacity int) *Registry {
	if capacity <= 0 {
		capacity = DefaultPlannerCapacity
	}
	return &Registry{
		socs:     make(map[string]*soc.SOC),
		names:    make(map[string]string),
		planners: newFlightLRU(int64(capacity), func(*repro.Planner) int64 { return 1 }),
	}
}

// Add validates and registers a SOC, returning its canonical fingerprint.
// The SOC is deep-copied, so the caller may keep mutating its own copy.
// Re-adding an identical SOC is a no-op returning the same fingerprint;
// a different SOC with the same name re-points the name at the new upload.
// Names must survive the .soc grammar (socfile.ValidateNames) — otherwise
// two different SOCs could collide on one fingerprint.
func (r *Registry) Add(s *soc.SOC) (string, error) {
	if err := s.Validate(); err != nil {
		return "", err
	}
	if err := socfile.ValidateNames(s); err != nil {
		return "", err
	}
	c := s.Clone()
	fp := socfile.Fingerprint(c)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.socs[fp]; !ok {
		r.socs[fp] = c
	}
	r.names[c.Name] = fp
	return fp, nil
}

// Resolve maps a client-supplied key — a fingerprint or a SOC name — to
// the fingerprint of a registered SOC.
func (r *Registry) Resolve(key string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.socs[key]; ok {
		return key, true
	}
	fp, ok := r.names[key]
	return fp, ok
}

// SOC returns the registered SOC for a fingerprint-or-name key. The SOC is
// shared and must be treated as read-only.
func (r *Registry) SOC(key string) (*soc.SOC, string, error) {
	fp, ok := r.Resolve(key)
	if !ok {
		return nil, "", fmt.Errorf("%w %q", ErrUnknownSOC, key)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.socs[fp], fp, nil
}

// Planner returns the Planner for a fingerprint-or-name key, building it
// on first use. Calls for one fingerprint share one build (a
// "registry/planner" span records whether this call was served without
// building, and the build itself is its "registry/build" child); a failed
// build is not cached, so the next call rebuilds.
// ctx bounds this caller's wait for another caller's build and carries
// the request trace; repro.NewPlanner itself does not watch it.
func (r *Registry) Planner(ctx context.Context, key string) (*repro.Planner, error) {
	s, fp, err := r.SOC(key)
	if err != nil {
		return nil, err
	}
	ctx, span := obs.Start(ctx, "registry/planner")
	defer span.End()
	span.SetAttr("soc", fp)
	p, hit, err := r.planners.Do(ctx, fp, func() (*repro.Planner, error) {
		ctx, span := obs.Start(ctx, "registry/build")
		defer span.End()
		if err := chaos.InjectContext(ctx, siteRegistryBuild); err != nil {
			return nil, err
		}
		return repro.NewPlanner(s)
	})
	span.SetAttr("cached", hit)
	return p, err
}

// SOCInfo summarizes one registered SOC for listings.
type SOCInfo struct {
	Fingerprint string `json:"fingerprint"`
	Name        string `json:"name"`
	Cores       int    `json:"cores"`
	// Planner reports whether a built Planner is currently cached.
	Planner bool `json:"planner"`
}

// List returns every registered SOC, sorted by name then fingerprint.
func (r *Registry) List() []SOCInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SOCInfo, 0, len(r.socs))
	for fp, s := range r.socs {
		out = append(out, SOCInfo{
			Fingerprint: fp,
			Name:        s.Name,
			Cores:       len(s.Cores),
			Planner:     r.planners.has(fp),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// RegistryStats is a point-in-time registry counter snapshot.
type RegistryStats struct {
	SOCs      int   `json:"socs"`
	Planners  int   `json:"planners"`
	Builds    int64 `json:"plannerBuilds"`
	Evictions int64 `json:"plannerEvictions"`
	Hits      int64 `json:"plannerHits"`
}

// Stats snapshots the registry counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	socs := len(r.socs)
	r.mu.Unlock()
	st := r.planners.Stats()
	return RegistryStats{
		SOCs:      socs,
		Planners:  st.Entries,
		Builds:    st.Misses,
		Evictions: st.Evictions,
		Hits:      st.Hits,
	}
}
