package cq

import (
	"context"

	"keyedeq/internal/instance"
	"keyedeq/internal/invariant"
	"keyedeq/internal/value"
)

// idSearchCore is the ID-native state of the streamed pipeline
// (iter.go): dense class bindings over a frozen view, the addedStack
// unwind discipline, ghost IDs for query values the frozen view never
// interned, and the masked cancellation-polling node counter.
type idSearchCore struct {
	ctx      context.Context
	fz       *instance.Frozen
	binding  []value.ID
	bound    []bool
	stats    *EvalStats
	canceled error
	// addedStack records newly bound class ids in binding order,
	// unwound by truncation to a caller's mark.
	addedStack []int32
	// ghostVals holds values referenced by the query (constants, wanted
	// head values) that the frozen view never interned.  Each gets a
	// per-search "ghost" ID from the top of the ID space — distinct
	// from every real ID, so a ghost-bound class filters candidates
	// exactly like a value absent from a hash index: every comparison
	// misses, and the search explores the same nodes.
	ghostVals []value.Value
}

// internID resolves a surface value to its frozen ID, or to a ghost ID
// when the frozen view never saw it.  Ghosts are deduplicated per
// distinct value so two pins of the same absent constant agree,
// exactly as surface-value comparisons would.
func (s *idSearchCore) internID(v value.Value) value.ID {
	if id, ok := s.fz.Interner.Lookup(v); ok {
		return id
	}
	for i, g := range s.ghostVals {
		if g == v {
			return ^value.ID(0) - value.ID(i)
		}
	}
	s.ghostVals = append(s.ghostVals, v)
	return ^value.ID(0) - value.ID(len(s.ghostVals)-1)
}

// decodeID is the boundary where IDs turn back into surface values.
func (s *idSearchCore) decodeID(id value.ID) value.Value {
	if n := len(s.ghostVals); n > 0 && id >= ^value.ID(0)-value.ID(n-1) {
		return s.ghostVals[^value.ID(0)-id]
	}
	v, ok := s.fz.Interner.Decode(id)
	invariant.Mustf(ok, "cq: pipeline bound foreign ID %d", id)
	return v
}

// tryBind extends the binding with row ri at step st; the caller
// unwinds partial adds with unbindTo(mark).
func (s *idSearchCore) tryBind(st *planStep, fr *instance.FrozenRelation, ri int) bool {
	row := fr.Row(ri)
	for p, id := range st.roots {
		if s.bound[id] {
			if s.binding[id] != row[p] {
				return false
			}
			continue
		}
		s.binding[id] = row[p]
		s.bound[id] = true
		s.addedStack = append(s.addedStack, id)
	}
	return true
}

// unbindTo unwinds every binding pushed since the caller's mark.
func (s *idSearchCore) unbindTo(mark int) {
	for _, id := range s.addedStack[mark:] {
		s.bound[id] = false
	}
	s.addedStack = s.addedStack[:mark]
}

// countNode advances the shared node counter under the same polling
// contract as the dense scan (see scanSearcher.countNode).
func (s *idSearchCore) countNode() bool {
	if s.canceled != nil {
		return false
	}
	s.stats.Nodes++
	if s.stats.Nodes&cancelCheckMask == 0 {
		if err := s.ctx.Err(); err != nil {
			s.canceled = err
			return false
		}
	}
	return true
}
