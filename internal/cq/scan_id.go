package cq

// This file is the dense scan: the adaptive mode's no-plan arm.  It
// mirrors findAnswerNaive (eval.go) operation for operation — dynamic
// most-bound-first atom picking over full relation scans, the same
// node accounting and masked cancellation polling — but runs on the
// shared ID core (idcore.go) over the frozen view's rows, which lie in
// Relation.Tuples() order, binding IDs in flat slices indexed by the
// query's compiled classes (Compiled) instead of values in a map keyed
// by variable names.  A wanted value absent from the frozen view pins a
// ghost ID that never matches any row, exactly as the absent value
// never matches a scanned tuple in the naive search.  Differential
// tests pin this scan to the naive oracle bit-for-bit: verdicts,
// EvalStats, and witnesses.

// scanSearcher carries the dense scan's state beyond the shared core:
// the per-atom class layout and relation of the dynamic order, and the
// atoms already placed on the current search path.
type scanSearcher struct {
	*idSearchCore
	// roots holds the class of each atom position (the compiled form's
	// Args); relIdxs each atom's relation among the frozen view's.
	roots   [][]int32
	relIdxs []int32
	used    []bool
	found   bool
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

// run extends the current partial match by one atom, scanning its
// relation's rows in order.  A full match stays bound for the witness
// decode: nothing unwinds once found is set.
func (s *scanSearcher) run(remaining int) {
	if remaining == 0 {
		s.found = true
		return
	}
	ai := s.pickNext()
	rts, fr := s.roots[ai], s.fz.Relations[s.relIdxs[ai]]
	s.used[ai] = true
	for ri, n := 0, fr.NumRows(); ri < n; ri++ {
		if !s.countNode() {
			return
		}
		mark := len(s.addedStack)
		if s.bindRow(rts, fr.Row(ri)) {
			s.run(remaining - 1)
			if s.found {
				return
			}
		}
		s.unbindTo(mark)
	}
	s.used[ai] = false
}

// scan runs the dense scan on the pinned core s over the atoms'
// resolved relations (comp.Rels), and reports whether it found a full
// match.
//
//keyedeq:hot -- the adaptive default's small-instance arm: every containment check on tiny canonical databases lands here
func scan(s *idSearchCore, comp *Compiled) bool {
	sc := scanSearcher{idSearchCore: s, roots: comp.Args, relIdxs: comp.Rels, used: s.atomUsed}
	sc.run(len(comp.Rels))
	return sc.found
}
