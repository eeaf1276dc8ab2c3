package core

import (
	"repro/internal/intervals"
	"repro/internal/memmodel"
)

// Snapshot is the checker's restorable state at a crash boundary:
// constraint intervals, deferred checksum loads, and the committed
// violation list (the dedup set outlives Restore, as it does Reset).
// Interval endpoints and deferred loads reference prefix trace stores,
// which the explorer's trace rewind leaves untouched, so a snapshot
// stays valid for as long as its trace mark does.
type Snapshot struct {
	cons       map[consKey]intervals.Interval
	deferred   map[memmodel.ThreadID][]deferredLoad
	violations []*Violation
}

// Snapshot captures the checker's state for later Restores. The copied
// slices are allocated with capacity equal to length, so appends after a
// Restore always reallocate instead of scribbling on the shared backing
// arrays.
func (c *Checker) Snapshot() *Snapshot {
	s := &Snapshot{
		cons:     make(map[consKey]intervals.Interval, len(c.cons)),
		deferred: make(map[memmodel.ThreadID][]deferredLoad, len(c.deferred)),
	}
	for k, v := range c.cons {
		s.cons[k] = v
	}
	for t, dl := range c.deferred {
		cp := make([]deferredLoad, len(dl))
		copy(cp, dl)
		s.deferred[t] = cp
	}
	s.violations = make([]*Violation, len(c.violations))
	copy(s.violations, c.violations)
	return s
}

// Restore rewinds the checker to a previously captured Snapshot. The
// violation list is restored by slice-header assignment: the snapshot
// copy has no spare capacity, so the next append reallocates and
// violations retained by the harness from executions since the snapshot
// are never overwritten in place (the same reason Reset drops the slice
// instead of truncating it).
func (c *Checker) Restore(s *Snapshot) {
	clear(c.cons)
	for k, v := range s.cons {
		c.cons[k] = v
	}
	clear(c.deferred)
	for t, dl := range s.deferred {
		c.deferred[t] = dl
	}
	c.violations = s.violations
}
