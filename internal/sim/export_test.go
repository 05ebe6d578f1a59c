package sim

import "repro/internal/cache"

// Hierarchy exposes the machine's cache hierarchy to the external test
// package, whose differentials compare complete cache state.
func (m *Machine) Hierarchy() *cache.Hierarchy { return m.hier }
