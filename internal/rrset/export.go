package rrset

// export.go is the narrow surface external coverage-state
// implementations build on — today internal/shard's MergedView, which
// sums per-shard Universes' coverage into one count per node. SetIter
// wraps the package-private inverted index without widening it and
// keeps its ascending-ID iteration invariant.

// NumNodes returns the node-space size the universe was built over.
func (u *Universe) NumNodes() int32 { return u.n }

// SetIter walks the IDs of the sets containing one node, in ascending
// ID order (the insertion-order invariant prefix views rely on to stop
// at their synced boundary). It is a plain value; iteration allocates
// nothing.
type SetIter struct {
	it idxIter
}

// SetsContaining starts an iteration over the IDs of all stored sets
// containing v. The iterator is invalidated by growth and Repair, which
// lay segments out afresh, but not by concurrent reads.
func (u *Universe) SetsContaining(v int32) SetIter {
	return SetIter{it: u.index().iter(v)}
}

// Next returns the next set ID, or ok=false when exhausted.
func (s *SetIter) Next() (id int32, ok bool) { return s.it.next() }
