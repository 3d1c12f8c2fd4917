package cq

import (
	"context"
	"sync"

	"keyedeq/internal/instance"
	"keyedeq/internal/value"
)

// This file is the dense scan: the adaptive mode's no-plan arm.  It
// mirrors findAnswerNaive (eval.go) operation for operation — dynamic
// most-bound-first atom picking over full relation scans, the same
// node accounting and masked cancellation polling — but binds values
// into flat slices indexed by the query's compiled classes (Compiled)
// instead of a map keyed by variable names.  It deliberately does NOT
// freeze the database: on workloads where every relation fits under
// the plan's scan threshold the interning pass would cost more than
// the whole search, and a surface value compares in one struct
// comparison anyway.  A wanted value absent from the database simply
// never matches any scanned tuple, exactly as in the naive search —
// no ghost-ID machinery needed.  Differential tests pin this scan to
// the naive oracle bit-for-bit: verdicts, EvalStats, and witnesses.

// scanSearcher carries the state of one dense scan: flat
// class-indexed bindings plus the per-atom class layout of the
// dynamic order.  Searchers are pooled: on tiny canonical databases
// the search itself is a handful of nodes, so the prologue's buffer
// allocations would otherwise dominate the wall time.
type scanSearcher struct {
	ctx     context.Context
	q       *Query
	comp    *Compiled
	binding []value.Value
	bound   []bool
	stats   EvalStats
	// canceled latches the context error the moment a poll observes it.
	canceled error
	// addedStack records newly bound class ids in binding order,
	// unwound by truncation to a caller's mark.
	addedStack []int32
	// roots holds the class of each atom position (the compiled form's
	// Args); used marks atoms already placed on the current search path.
	roots [][]int32
	used  []bool
	// rows holds each atom's candidate tuples, in the relation's
	// canonical order — the same order the naive search scans.
	rows    [][]instance.Tuple
	found   bool
	witness map[Var]value.Value
	// bools backs bound and used across reuses.
	bools []bool
}

// scanPool recycles searcher state across searches.  Only the buffer
// capacity survives a round trip: scanIDCore re-slices and zeroes what
// the next search reads, and release drops every reference to caller
// data so the pool cannot retain a database or query.
var scanPool = sync.Pool{New: func() any { return new(scanSearcher) }}

// release returns the searcher to the pool, dropping data references.
func (s *scanSearcher) release() {
	s.ctx, s.q, s.comp, s.roots = nil, nil, nil, nil
	s.canceled, s.witness = nil, nil
	clear(s.rows)
	scanPool.Put(s)
}

// pickNext chooses the unused atom with the most already-bound
// positions, breaking ties by original body order — the naive
// search's dynamic greedy order, verbatim.
func (s *scanSearcher) pickNext() int {
	best, bestBound := -1, -1
	for i, rts := range s.roots {
		if s.used[i] {
			continue
		}
		bound := 0
		for _, id := range rts {
			if s.bound[id] {
				bound++
			}
		}
		if bound > bestBound {
			best, bestBound = i, bound
		}
	}
	return best
}

// unbindTo unwinds every binding pushed since the caller's mark.
func (s *scanSearcher) unbindTo(mark int) {
	for _, id := range s.addedStack[mark:] {
		s.bound[id] = false
	}
	s.addedStack = s.addedStack[:mark]
}

// countNode advances the node counter and polls the context once every
// cancelCheckMask+1 nodes.  It reports whether the search may continue.
// The canceled check comes before the increment: when a poll deep in
// the recursion trips, every unwinding ancestor's candidate loop calls
// countNode once more, and counting those visits would overshoot the
// "observed within cancelCheckMask+1 nodes" contract by the recursion
// depth.
func (s *scanSearcher) countNode() bool {
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

// run extends the current partial match by one atom, scanning its
// relation's rows in canonical order.
func (s *scanSearcher) run(remaining int) {
	if remaining == 0 {
		s.found = true
		// Capture the successful binding at the leaf, exactly as the
		// naive search does — the unwind below erases it.
		s.witness = s.comp.witness(s.q, s.binding)
		return
	}
	ai := s.pickNext()
	rts := s.roots[ai]
	s.used[ai] = true
	for _, row := range s.rows[ai] {
		if s.found || s.canceled != nil {
			return
		}
		if !s.countNode() {
			return
		}
		mark := len(s.addedStack)
		ok := true
		for p, id := range rts {
			if s.bound[id] {
				if s.binding[id] != row[p] {
					ok = false
					break
				}
				continue
			}
			s.binding[id] = row[p]
			s.bound[id] = true
			s.addedStack = append(s.addedStack, id)
		}
		if ok {
			s.run(remaining - 1)
		}
		s.unbindTo(mark)
	}
	s.used[ai] = false
}

// scanIDCore runs the dense scan over pre-resolved relations.  comp
// is q's compiled form; the atoms read its classes directly, and every
// buffer comes from the pooled searcher, growing only when a query
// outsizes what a prior search left behind.
//
//keyedeq:hot -- the adaptive default's small-instance arm: every containment check on tiny canonical databases lands here
func scanIDCore(ctx context.Context, q *Query, want instance.Tuple, comp *Compiled, rels []*instance.Relation) (bool, map[Var]value.Value, EvalStats, error) {
	nc, n := comp.NumClasses(), len(q.Body)
	s := scanPool.Get().(*scanSearcher)
	defer s.release()
	s.ctx, s.q, s.comp = ctx, q, comp
	s.stats = EvalStats{}
	s.found = false
	s.binding = resize(s.binding, nc)
	s.bools = resize(s.bools, nc+n)
	s.bound, s.used = s.bools[:nc:nc], s.bools[nc:]
	s.addedStack = s.addedStack[:0]
	s.roots = comp.Args
	s.rows = resize(s.rows, n)
	if !comp.pin(q, want, s.binding, s.bound) {
		return false, nil, s.stats, nil
	}
	for i, r := range rels {
		s.rows[i] = r.Tuples()
	}
	s.run(n)
	if s.canceled != nil {
		return false, nil, s.stats, s.canceled
	}
	return s.found, s.witness, s.stats, nil
}
