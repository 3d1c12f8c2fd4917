package cq

import (
	"context"

	"keyedeq/internal/instance"
	"keyedeq/internal/value"
)

// This file is the SearchAdaptive dispatcher — the production search —
// over a frozen view, which a canonical database is born as and a value
// database reaches through Database.Frozen.  Both arms run on one ID
// core (idcore.go).  One size rule picks the arm: when every relation
// the query touches holds at most smallRelScanThreshold rows, no plan
// step would build an index, so the dense scan (scan_id.go) runs
// without planning; otherwise the plan is compiled and the streamed
// pipeline (iter.go) searches its connected components one at a time.
// Containment checks run over canonical databases with one row per
// query atom, so most land on the scan.

// allSmall reports the size rule: every relation q's body names exists
// in fz and holds at most smallRelScanThreshold rows.  An unknown
// relation reports false.
func allSmall(q *Query, fz *instance.Frozen) bool {
	for _, a := range q.Body {
		ri := fz.Schema.RelationIndex(a.Rel)
		if ri < 0 || fz.Relations[ri].NumRows() > smallRelScanThreshold {
			return false
		}
	}
	return true
}

// searchIDs searches q over fz for the answer want on one ID core: it
// compiles q, resolves its relations, pins and interns what it knows,
// runs the scan arm (useScan) or the pipeline, and decodes the full
// match it found only when witness is set.  The pins are fixed before
// any plan is built, so an impossible want misses without one.  The
// compiled form and the core are pooled, so a search allocates only
// its plan and its witness.
func searchIDs(ctx context.Context, q *Query, fz *instance.Frozen, want instance.Tuple, witness, useScan bool) (bool, map[Var]value.Value, EvalStats, error) {
	comp := Compile(q)
	defer comp.Release()
	if comp.Unsat {
		return false, nil, EvalStats{}, nil
	}
	if err := resolveCompiled(q, comp, fz.Schema); err != nil {
		return false, nil, EvalStats{}, err
	}
	s := newIDSearchCore(ctx, fz, comp)
	defer s.release()
	if !s.pin(q, comp, want) {
		return false, nil, s.stats, nil
	}
	var found bool
	if useScan {
		found = scan(s, comp)
	} else {
		plan := buildStreamPlan(ctx, comp, fz, s.bound)
		found = runComponentsSequential(newStreamSearcher(s, plan), plan)
	}
	switch {
	case s.canceled != nil:
		return false, nil, s.stats, s.canceled
	case found && witness:
		return true, s.witness(q, comp), s.stats, nil
	}
	return found, nil, s.stats, nil
}
