// Package generic exercises guards on a generic struct. Inside its
// methods every field is selected through the receiver's instantiation,
// and a field whose type mentions the type parameter is a substituted
// copy of the declared one, so the check has to map it back to its origin.
package generic

import "sync"

// Memo guards two maps with a sibling mutex; only vals mentions V.
type Memo[V any] struct {
	mu   sync.Mutex
	keys map[string]int // guarded by mu
	vals map[string]V   // guarded by mu
}

// Good: both fields read under the lock.
func (m *Memo[V]) Get(k string) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.keys[k]
	return m.vals[k], ok
}

// Flagged: both unlocked reads, the substituted field included.
func (m *Memo[V]) Len() int {
	return len(m.keys) + // want "m.keys is read without holding mu"
		len(m.vals) // want "m.vals is read without holding mu"
}

// Flagged: an unlocked write through a concrete instantiation.
func reset(m *Memo[int]) {
	m.vals = nil // want "m.vals is written without holding mu"
}
