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
	eq := NewEqClasses(q)
	if eq.Unsatisfiable() {
		return false, nil, EvalStats{}, nil
	}
	rels, _, err := resolveRelations(q, d)
	if err != nil {
		return false, nil, EvalStats{}, err
	}
	return scanIDCore(ctx, q, want, eq, rels)
}

// findAnswerPipeline is the planned arm: compile the plan, then stream
// each connected component through the pipeline over the database's
// frozen view.
func findAnswerPipeline(ctx context.Context, q *Query, d *instance.Database, want instance.Tuple) (bool, map[Var]value.Value, EvalStats, error) {
	var stats EvalStats
	eq := NewEqClasses(q)
	if eq.Unsatisfiable() {
		return false, nil, stats, nil
	}
	rels, relIdxs, err := resolveRelations(q, d)
	if err != nil {
		return false, nil, stats, err
	}
	pres, earlyMiss := streamPrebindings(q, eq, want)
	if earlyMiss {
		return false, nil, stats, nil
	}
	plan := buildStreamPlan(ctx, q, rels, relIdxs, eq, pres)
	s := newStreamSearcher(ctx, plan, d.Frozen(), &stats)
	s.prebind(pres)
	ok, err := runComponentsSequential(s, plan)
	if err != nil || !ok {
		return false, nil, stats, err
	}
	return true, decodeWitness(&s.idSearchCore, plan, q, eq), stats, nil
}
