package engine

import (
	"context"
	"math/rand"
	"testing"

	"keyedeq/internal/containment"
	"keyedeq/internal/cq"
	"keyedeq/internal/gen"
)

// differentialPairs is the per-family corpus size for the differential
// layer.  ISSUE 3 requires at least 500 generated pairs per schema
// family decided bit-identically by the engine and the sequential path.
const differentialPairs = 500

func TestDifferentialEngineVsSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential corpus is slow in -short mode")
	}
	for fi, fam := range gen.FamilyNames() {
		fam, fi := fam, fi
		t.Run(fam, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + fi)))
			f, err := gen.PairCorpus(rng, fam, differentialPairs)
			if err != nil {
				t.Fatal(err)
			}
			// Cache sized to hold every distinct pair so the second pass
			// can demand a 100% hit rate.
			e := New(f.Schema, f.Deps, Options{Workers: 4, CacheSize: 4 * differentialPairs})
			jobs := make([]Job, len(f.Pairs))
			for i, p := range f.Pairs {
				jobs[i] = Job{Left: p.Left, Right: p.Right, Op: OpEquivalent}
			}

			rep := e.Run(context.Background(), jobs)
			if rep.Errors != 0 {
				for i, r := range rep.Results {
					if r.Err != nil {
						t.Fatalf("pair %d (%s): %v", i, f.Pairs[i].Note, r.Err)
					}
				}
			}
			// Bit-identical verdicts against the sequential decision
			// procedure, pair by pair.
			for i, p := range f.Pairs {
				want, _, err := containment.EquivalentUnder(p.Left, p.Right, f.Schema, f.Deps)
				if err != nil {
					t.Fatalf("pair %d (%s): sequential: %v", i, p.Note, err)
				}
				if rep.Results[i].Holds != want {
					t.Fatalf("pair %d (%s): engine=%v sequential=%v\n  left  %s\n  right %s",
						i, p.Note, rep.Results[i].Holds, want, p.Left, p.Right)
				}
			}

			// Second pass over the same jobs: every pair must be answered
			// from the cache, with unchanged verdicts.
			second := e.Run(context.Background(), jobs)
			if second.Computed != 0 || second.CacheHits != len(jobs) {
				t.Fatalf("second pass: computed %d, cache hits %d of %d (evictions %d)",
					second.Computed, second.CacheHits, len(jobs), second.Cache.Evictions)
			}
			for i := range jobs {
				if second.Results[i].Holds != rep.Results[i].Holds {
					t.Fatalf("pair %d: verdict changed between passes", i)
				}
			}

			// Alpha pairs are equivalent by construction — a directed
			// sanity check that the corpus exercises both verdicts.
			pos := 0
			for i, p := range f.Pairs {
				if rep.Results[i].Holds {
					pos++
				} else if len(p.Note) > 0 && p.Note[len(p.Note)-1] != ' ' && containsAlpha(p.Note) {
					t.Fatalf("alpha pair %d (%s) judged inequivalent", i, p.Note)
				}
			}
			if pos == 0 || pos == len(f.Pairs) {
				t.Fatalf("degenerate corpus: %d/%d positive verdicts", pos, len(f.Pairs))
			}
		})
	}
}

// TestAdaptiveDefaultMatchesGenericVerdicts checks the engine's batch
// path — shared chase artifacts, dedup, the adaptive search — against
// the naive oracle's generic surface-value search, on one family whose
// searches take the scan arm (keyed) and one whose searches take the
// pipeline (wide).  Node counts legitimately differ; verdicts may not.
func TestAdaptiveDefaultMatchesGenericVerdicts(t *testing.T) {
	for _, fam := range []string{"keyed", "wide"} {
		rng := rand.New(rand.NewSource(2024))
		f, err := gen.PairCorpus(rng, fam, 120)
		if err != nil {
			t.Fatal(err)
		}
		jobs := make([]Job, len(f.Pairs))
		for i, p := range f.Pairs {
			jobs[i] = Job{Left: p.Left, Right: p.Right, Op: OpEquivalent}
		}
		rep := New(f.Schema, f.Deps, Options{Workers: 2, CacheSize: -1}).Run(context.Background(), jobs)
		for i, p := range f.Pairs {
			want, _, err := containment.EquivalentUnderMode(p.Left, p.Right, f.Schema, f.Deps, cq.SearchNaive)
			if err != nil {
				t.Fatalf("%s pair %d: naive: %v", fam, i, err)
			}
			if r := rep.Results[i]; r.Err != nil || r.Holds != want {
				t.Fatalf("%s pair %d: engine (%v, %v), naive %v\n  left  %s\n  right %s",
					fam, i, r.Holds, r.Err, want, p.Left, p.Right)
			}
		}
		if rep.Holding == 0 || rep.Holding == rep.Pairs {
			t.Fatalf("%s: degenerate corpus: %d/%d holding", fam, rep.Holding, rep.Pairs)
		}
	}
}

// containsAlpha reports whether a corpus note marks an alpha pair.
func containsAlpha(note string) bool {
	for i := 0; i+5 <= len(note); i++ {
		if note[i:i+5] == "alpha" {
			return true
		}
	}
	return false
}
