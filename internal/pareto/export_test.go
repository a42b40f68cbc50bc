package pareto

// Table exposes a set's per-width table to external test packages
// (internal tests would cycle through internal/bench otherwise).
func Table(s *Set) []row { return s.table }
