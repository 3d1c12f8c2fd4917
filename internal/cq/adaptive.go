package cq

import (
	"context"

	"keyedeq/internal/instance"
	"keyedeq/internal/value"
)

// This file is the SearchAdaptive dispatcher — the production search.
// One size rule picks the arm: when every relation the query touches
// holds at most smallRelScanThreshold tuples, no plan step would build
// an index, so the dense scan (scan_id.go) runs without planning;
// otherwise the plan is compiled and the streamed pipeline (iter.go)
// searches its connected components one at a time.  Containment checks
// run over canonical databases with one tuple per query atom, so most
// land on the scan.

// findAnswerAdaptive is the SearchAdaptive implementation behind
// FindAnswerBindingCtx.
func findAnswerAdaptive(ctx context.Context, q *Query, d *instance.Database, want instance.Tuple) (bool, map[Var]value.Value, EvalStats, error) {
	if allSmall(q, d) {
		return findAnswerScan(ctx, q, d, want)
	}
	return findAnswerPipeline(ctx, q, d, want)
}

// allSmall reports the size rule: every relation q's body names exists
// in d and holds at most smallRelScanThreshold tuples.  An unknown
// relation reports false; both arms reject it with the same error.
func allSmall(q *Query, d *instance.Database) bool {
	for _, a := range q.Body {
		ri := d.Schema.RelationIndex(a.Rel)
		if ri < 0 || d.Relations[ri].Len() > smallRelScanThreshold {
			return false
		}
	}
	return true
}

// findAnswerScan is the no-plan arm: the dense scan over the resolved
// relations.
func findAnswerScan(ctx context.Context, q *Query, d *instance.Database, want instance.Tuple) (bool, map[Var]value.Value, EvalStats, error) {
	comp := Compile(q)
	defer comp.Release()
	if comp.Unsat {
		return false, nil, EvalStats{}, nil
	}
	rels, _, err := resolveRelations(q, d)
	if err != nil {
		return false, nil, EvalStats{}, err
	}
	return scanIDCore(ctx, q, want, comp, rels)
}

// findAnswerPipeline is the planned arm: pin the known classes, compile
// the plan, then stream each connected component through the pipeline
// over the database's frozen view.  The pins are checked on surface
// values, before any interning, so an impossible want misses before a
// plan is built.
func findAnswerPipeline(ctx context.Context, q *Query, d *instance.Database, want instance.Tuple) (bool, map[Var]value.Value, EvalStats, error) {
	var stats EvalStats
	comp := Compile(q)
	defer comp.Release()
	if comp.Unsat {
		return false, nil, stats, nil
	}
	rels, relIdxs, err := resolveRelations(q, d)
	if err != nil {
		return false, nil, stats, err
	}
	vals := make([]value.Value, comp.NumClasses())
	pinned := make([]bool, len(vals))
	if !comp.pin(q, want, vals, pinned) {
		return false, nil, stats, nil
	}
	plan := buildStreamPlan(ctx, comp, rels, relIdxs, pinned)
	s := newStreamSearcher(ctx, plan, d.Frozen(), &stats, pinned, vals)
	ok, err := runComponentsSequential(s, plan)
	if err != nil || !ok {
		return false, nil, stats, err
	}
	for k, id := range s.binding {
		vals[k] = s.decodeID(id)
	}
	return true, comp.witness(q, vals), stats, nil
}
