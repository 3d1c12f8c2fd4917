package cq

import (
	"context"
	"sync"

	"keyedeq/internal/instance"
	"keyedeq/internal/invariant"
	"keyedeq/internal/value"
)

// idSearchCore is the one binding core of both adaptive arms, the dense
// scan (scan_id.go) and the streamed pipeline (iter.go): dense class
// bindings over a frozen view, the addedStack unwind discipline, ghost
// IDs for query values the frozen view never interned, and the masked
// cancellation-polling node counter.  pin fixes the classes known before
// the first node, bindRow extends the binding with a candidate row, and
// witness decodes a full match when the caller asks for one.
type idSearchCore struct {
	ctx context.Context
	fz  *instance.Frozen
	// binding and bound hold one entry per class of the compiled query,
	// body classes first; the arms bind only body classes.
	binding  []value.ID
	bound    []bool
	stats    EvalStats
	canceled error
	// addedStack records newly bound class ids in binding order,
	// unwound by truncation to a caller's mark.
	addedStack []int32
	// ghostVals holds values referenced by the query (constants, wanted
	// head values) that the frozen view never interned.  Each gets a
	// per-search "ghost" ID from the top of the ID space — distinct
	// from every real ID, so a ghost-bound class filters candidates
	// exactly like a value absent from the database: every comparison
	// misses, and the search explores the same nodes.
	ghostVals []value.Value
	// atomUsed holds one flag per body atom, the dense scan's record of
	// the atoms on its current path.
	atomUsed []bool

	// plan is the pipeline's search plan, rebuilt by buildPlan for each
	// search from the tables below: planInts and planBools back its
	// scratch tables and key-position lists, planSteps its steps, and
	// slotSteps lists the first step of each index slot.
	plan      searchPlan
	planInts  []int
	planBools []bool
	planSteps []planStep
	slotSteps []*planStep
	// stream is the pipeline's driver state (iter.go), reset by
	// newStreamSearcher for each search; its index slots keep their
	// tables from one search to the next.
	stream streamSearcher
}

// idSearchCores recycles search cores, so a search takes its tables
// from an earlier one instead of allocating them.
var idSearchCores = sync.Pool{New: func() any { return new(idSearchCore) }}

// newIDSearchCore returns a pooled core over fz for the compiled query
// c, its tables cleared and sized by c.  Each class is pushed on the
// unwind stack at most once, so the class count bounds its depth.
// release returns the core.
func newIDSearchCore(ctx context.Context, fz *instance.Frozen, c *Compiled) *idSearchCore {
	s := idSearchCores.Get().(*idSearchCore)
	nc := c.NumClasses()
	s.ctx, s.fz = ctx, fz
	s.binding = resize(s.binding, nc)
	s.bound = resize(s.bound, nc)
	s.atomUsed = resize(s.atomUsed, len(c.Args))
	if cap(s.addedStack) < nc {
		s.addedStack = make([]int32, 0, nc)
	}
	s.addedStack = s.addedStack[:0]
	s.ghostVals = s.ghostVals[:0]
	s.stats, s.canceled = EvalStats{}, nil
	return s
}

// release drops the core's references to the search and returns it to
// the pool, unless a huge query grew its tables past MaxPooledSlots.
// An index slot grown past MaxPooledSlots rows is dropped alone, so one
// search over a large relation cannot leave every later small one
// clearing its maps.
func (s *idSearchCore) release() {
	s.ctx, s.fz, s.canceled = nil, nil, nil
	if len(s.binding) > MaxPooledSlots {
		return
	}
	s.stream.drop()
	idSearchCores.Put(s)
}

// pin is the pin-and-intern step: it binds, as interned IDs, what the
// search knows before its first node — the constant of every body class
// that binds one and, when want is not nil, the class of each head
// variable at its wanted value.  It reports false on an early miss: a
// head constant other than its wanted value, or one class pinned to two
// values.  Interning is a bijection onto real and ghost IDs, so these
// ID comparisons decide exactly what the surface values would.  Like
// the naive search it never reads the constant of a class no atom
// mentions, which only a query Validate rejects can bind.
func (s *idSearchCore) pin(q *Query, c *Compiled, want instance.Tuple) bool {
	for k := range s.bound {
		s.bound[k] = k < c.BodyClasses && c.HasConst[k]
		if s.bound[k] {
			s.binding[k] = s.internID(c.Const[k])
		}
	}
	if want == nil {
		return true
	}
	for i, k := range c.Head {
		switch {
		case k < 0:
			if q.Head[i].Const != want[i] {
				return false
			}
		case s.bound[k]:
			if s.binding[k] != s.internID(want[i]) {
				return false
			}
		default:
			s.binding[k], s.bound[k] = s.internID(want[i]), true
		}
	}
	return true
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
	invariant.Mustf(ok, "cq: search bound foreign ID %d", id)
	return v
}

// witness decodes the full match left bound by a successful search:
// every body variable of q mapped to its class's value.
func (s *idSearchCore) witness(q *Query, c *Compiled) map[Var]value.Value {
	w := make(map[Var]value.Value, len(c.flat))
	for i, a := range q.Body {
		for p, v := range a.Vars {
			w[v] = s.decodeID(s.binding[c.Args[i][p]])
		}
	}
	return w
}

// bindRow extends the binding with a candidate row whose position p
// holds a value of class roots[p]: a bound class must match the cell,
// an unbound one binds to it.  The caller unwinds partial adds with
// unbindTo(mark).
func (s *idSearchCore) bindRow(roots []int32, row []value.ID) bool {
	for p, id := range roots {
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

// countNode advances the node counter and polls the context once every
// cancelCheckMask+1 nodes.  It reports whether the search may continue.
// The canceled check comes before the increment: when a poll deep in
// the search trips, every unwinding ancestor's candidate loop calls
// countNode once more, and counting those visits would overshoot the
// "observed within cancelCheckMask+1 nodes" contract by the depth.
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
