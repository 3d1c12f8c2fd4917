package engine

import (
	"context"
	"testing"
)

// TestRunMatchesDecide requires every Run result, poisoned jobs
// included, to carry what Decide returns for the same job: the verdict,
// the pair key and the error text.  The cache is off, so each Decide
// validates, canonicalizes and decides its pair from scratch, while Run
// validates and canonicalizes once per presentation and decides once
// per canonical pair.  Stats are not compared: a deduplicated job
// carries none of its leader's work.
func TestRunMatchesDecide(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	ctx := context.Background()
	for _, f := range e1Corpus(t, n) {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			jobs := poisonedJobs(f)
			e := New(f.Schema, f.Deps, Options{Workers: 2, CacheSize: -1})
			rep := e.Run(ctx, jobs)
			failed := 0
			for i, j := range jobs {
				got, want := rep.Results[i], e.Decide(ctx, j.Left, j.Right, j.Op)
				if (got.Err == nil) != (want.Err == nil) || (got.Err != nil && got.Err.Error() != want.Err.Error()) {
					t.Fatalf("job %d: Run err %v, Decide err %v", i, got.Err, want.Err)
				}
				if got.Err != nil {
					failed++
				}
				if got.Holds != want.Holds || got.PairKey != want.PairKey {
					t.Fatalf("job %d %v:\n  Run    holds=%v key %q\n  Decide holds=%v key %q\n  left  %s\n  right %s",
						i, j.Op, got.Holds, got.PairKey, want.Holds, want.PairKey, j.Left, j.Right)
				}
			}
			if failed == 0 || failed == len(jobs) {
				t.Fatalf("degenerate batch: %d of %d jobs failed", failed, len(jobs))
			}
		})
	}
}
