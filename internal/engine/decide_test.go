package engine

import (
	"context"
	"testing"

	"keyedeq/internal/containment"
)

// TestDecideMatchesContainment requires Engine.Decide, with the cache
// off, to return what the containment procedures return — the verdict
// and every Stats field — for both ops on every pair of the E1 corpus.
// Pairs whose sides share a canonical key are isomorphic, and Decide
// answers them true without any chase or search, so their Stats are
// zero instead of the procedure's.
func TestDecideMatchesContainment(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	for _, f := range e1Corpus(t, n) {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			e := New(f.Schema, f.Deps, Options{CacheSize: -1})
			compared, holding := 0, 0
			for i, p := range f.Pairs {
				iso := CanonicalizeQuery(p.Left, f.Schema).Key == CanonicalizeQuery(p.Right, f.Schema).Key
				for _, op := range []Op{OpEquivalent, OpContained} {
					var (
						want bool
						st   containment.Stats
						err  error
					)
					if op == OpEquivalent {
						want, st, err = containment.EquivalentUnder(p.Left, p.Right, f.Schema, f.Deps)
					} else {
						want, st, err = containment.ContainedUnder(p.Left, p.Right, f.Schema, f.Deps)
					}
					if err != nil {
						t.Fatalf("pair %d %v: containment: %v", i, op, err)
					}
					if iso {
						st = containment.Stats{}
					} else {
						compared++
					}
					got := e.Decide(context.Background(), p.Left, p.Right, op)
					if got.Err != nil {
						t.Fatalf("pair %d %v: Decide: %v", i, op, got.Err)
					}
					if got.Holds != want || got.Stats != st {
						t.Fatalf("pair %d %v (%s):\n  Decide      holds=%v %+v\n  containment holds=%v %+v\n  left  %s\n  right %s",
							i, op, p.Note, got.Holds, got.Stats, want, st, p.Left, p.Right)
					}
					if got.Holds {
						holding++
					}
				}
			}
			if compared == 0 || holding == 0 || holding == 2*len(f.Pairs) {
				t.Fatalf("degenerate corpus: %d non-isomorphic decisions, %d of %d holding",
					compared, holding, 2*len(f.Pairs))
			}
		})
	}
}
