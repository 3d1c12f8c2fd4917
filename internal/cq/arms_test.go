package cq

import (
	"context"

	"keyedeq/internal/instance"
	"keyedeq/internal/value"
)

// findAnswerScan and findAnswerPipeline run one arm of the adaptive
// search over d's frozen view, whatever the size rule would pick, so
// the in-package tests can hold each arm to the naive oracle.

func findAnswerScan(ctx context.Context, q *Query, d *instance.Database, want instance.Tuple) (bool, map[Var]value.Value, EvalStats, error) {
	return searchIDs(ctx, q, d.Frozen(), want, true, true)
}

func findAnswerPipeline(ctx context.Context, q *Query, d *instance.Database, want instance.Tuple) (bool, map[Var]value.Value, EvalStats, error) {
	return searchIDs(ctx, q, d.Frozen(), want, true, false)
}
