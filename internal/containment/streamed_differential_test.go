package containment

import (
	"math/rand"
	"testing"

	"keyedeq/internal/chase"
	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/gen"
	"keyedeq/internal/instance"
	"keyedeq/internal/schema"
)

// This file holds the adaptive search — on the pipeline-arm families,
// the streamed iterator pipeline — against two independent oracles, one
// containment direction at a time (the equivalence wall stops at the
// first failing direction, so it never searches the reverse one):
//
//   - the naive search, which decides the same pinned-head search over
//     surface values;
//   - answer-set membership: evaluate q2 in full over q1's chased
//     canonical database and ask whether q1's frozen head is among the
//     answers — Chandra–Merlin without a targeted search at all.

// streamedPairs is the per-family corpus size for the verdict sweep.
const streamedPairs = 500

// pipelineFamily reports whether every adaptive search of fam takes
// the pipeline arm (see familyArm).
func pipelineFamily(fam string) bool {
	return familyArm[fam] == "pipeline"
}

// evalContained decides q1 ⊑ q2 under deps by answer-set membership.
func evalContained(q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD) (bool, error) {
	tb := chase.NewTableau(s)
	vars, err := chase.Freeze(tb, q1)
	if err != nil {
		return false, err
	}
	head, err := chase.HeadTerms(tb, q1, vars)
	if err != nil {
		return false, err
	}
	if len(deps) > 0 {
		if _, err := tb.Run(deps); err != nil {
			return false, err
		}
	}
	if tb.Failed() {
		return true, nil
	}
	db, valOf, err := tb.ToDatabase()
	if err != nil {
		return false, err
	}
	want := make(instance.Tuple, len(head))
	for i, h := range head {
		want[i] = valOf[h]
	}
	answers, err := cq.Eval(q2, db)
	if err != nil {
		return false, err
	}
	return answers.Has(want), nil
}

// modeIndependent clears the one Stats field the search arm may change.
func modeIndependent(st Stats) Stats {
	st.Nodes = 0
	return st
}

// TestStreamedVsOraclesVerdicts decides both containment directions of
// every corpus pair with the adaptive search, the naive oracle, and the
// membership oracle.  All three verdicts must agree, the two searches'
// mode-independent stats must match, and the pipeline-arm families must
// in fact run every search on the pipeline.
func TestStreamedVsOraclesVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("differential corpus is slow in -short mode")
	}
	for fi, fam := range metamorphicFamilies() {
		fam, fi := fam, fi
		t.Run(fam, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(9000 + fi)))
			f, err := gen.PairCorpus(rng, fam, streamedPairs)
			if err != nil {
				t.Fatal(err)
			}
			pos, neg, piped := 0, 0, 0
			for i, p := range f.Pairs {
				for _, dir := range [][2]*cq.Query{{p.Left, p.Right}, {p.Right, p.Left}} {
					q1, q2 := dir[0], dir[1]
					streamed, stS, arm, err := containedArm(q1, q2, f.Schema, f.Deps)
					if err != nil {
						t.Fatalf("pair %d (%s): streamed: %v", i, p.Note, err)
					}
					naive, stN, err := ContainedUnderMode(q1, q2, f.Schema, f.Deps, cq.SearchNaive)
					if err != nil {
						t.Fatalf("pair %d (%s): naive: %v", i, p.Note, err)
					}
					member, err := evalContained(q1, q2, f.Schema, f.Deps)
					if err != nil {
						t.Fatalf("pair %d (%s): membership: %v", i, p.Note, err)
					}
					if streamed != naive || streamed != member {
						t.Fatalf("pair %d (%s): streamed=%v naive=%v membership=%v\n  q1 %s\n  q2 %s",
							i, p.Note, streamed, naive, member, q1, q2)
					}
					if modeIndependent(stS) != modeIndependent(stN) {
						t.Fatalf("pair %d (%s): mode-independent stats diverge\n  streamed %+v\n  naive    %+v",
							i, p.Note, stS, stN)
					}
					if arm == "pipeline" {
						piped++
					} else if arm != "" && pipelineFamily(fam) {
						t.Fatalf("pair %d (%s): %s search took the %s arm", i, p.Note, fam, arm)
					}
					if streamed {
						pos++
					} else {
						neg++
					}
				}
			}
			if pos == 0 || neg == 0 {
				t.Fatalf("degenerate corpus: %d contained, %d not", pos, neg)
			}
			if pipelineFamily(fam) && piped == 0 {
				t.Fatalf("%s: no search ran on the pipeline", fam)
			}
		})
	}
}

// TestStreamedVsOraclesWitnesses extracts a certificate for both
// containment directions of every corpus pair.  Its existence must
// match both oracles' verdicts, and each certificate must verify
// symbolically on its own.
func TestStreamedVsOraclesWitnesses(t *testing.T) {
	if testing.Short() {
		t.Skip("differential corpus is slow in -short mode")
	}
	for fi, fam := range metamorphicFamilies() {
		fam, fi := fam, fi
		t.Run(fam, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(9500 + fi)))
			f, err := gen.PairCorpus(rng, fam, 120)
			if err != nil {
				t.Fatal(err)
			}
			found := 0
			for i, p := range f.Pairs {
				for _, dir := range [][2]*cq.Query{{p.Left, p.Right}, {p.Right, p.Left}} {
					q1, q2 := dir[0], dir[1]
					homS, okS, err := FindHomomorphism(q1, q2, f.Schema, f.Deps)
					if err != nil {
						t.Fatalf("pair %d (%s): streamed: %v", i, p.Note, err)
					}
					naive, _, err := ContainedUnderMode(q1, q2, f.Schema, f.Deps, cq.SearchNaive)
					if err != nil {
						t.Fatalf("pair %d (%s): naive: %v", i, p.Note, err)
					}
					member, err := evalContained(q1, q2, f.Schema, f.Deps)
					if err != nil {
						t.Fatalf("pair %d (%s): membership: %v", i, p.Note, err)
					}
					if okS != naive || okS != member {
						t.Fatalf("pair %d (%s): streamed ok=%v, naive=%v, membership=%v",
							i, p.Note, okS, naive, member)
					}
					if !okS || homS == nil {
						continue
					}
					found++
					if err := VerifyHomomorphism(q1, q2, homS, f.Schema, f.Deps); err != nil {
						t.Fatalf("pair %d (%s): invalid streamed witness %s: %v", i, p.Note, homS, err)
					}
				}
			}
			if found == 0 {
				t.Fatalf("%s: no witness was extracted", fam)
			}
		})
	}
}

// TestAdaptiveVsGenericVerdicts decides a corpus slice per family
// through the production entry point, EquivalentUnder, in both argument
// orders, against the naive oracle.  Equivalence is symmetric and the
// search arm must not move a verdict, so all three must agree; chase
// work and search counts are mode-independent even where node counts
// are not.
func TestAdaptiveVsGenericVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("differential corpus is slow in -short mode")
	}
	for fi, fam := range metamorphicFamilies() {
		fam, fi := fam, fi
		t.Run(fam, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(9700 + fi)))
			f, err := gen.PairCorpus(rng, fam, 200)
			if err != nil {
				t.Fatal(err)
			}
			pos := 0
			for i, p := range f.Pairs {
				generic, stG, err := EquivalentUnderMode(p.Left, p.Right, f.Schema, f.Deps, cq.SearchNaive)
				if err != nil {
					t.Fatalf("pair %d (%s): generic: %v", i, p.Note, err)
				}
				adaptive, stA, err := EquivalentUnder(p.Left, p.Right, f.Schema, f.Deps)
				if err != nil {
					t.Fatalf("pair %d (%s): adaptive: %v", i, p.Note, err)
				}
				swapped, _, err := EquivalentUnder(p.Right, p.Left, f.Schema, f.Deps)
				if err != nil {
					t.Fatalf("pair %d (%s): adaptive, swapped: %v", i, p.Note, err)
				}
				if generic != adaptive || swapped != adaptive {
					t.Fatalf("pair %d (%s): generic=%v adaptive=%v swapped=%v\n  left  %s\n  right %s",
						i, p.Note, generic, adaptive, swapped, p.Left, p.Right)
				}
				if modeIndependent(stG) != modeIndependent(stA) {
					t.Fatalf("pair %d (%s): mode-independent stats diverge\n  generic  %+v\n  adaptive %+v",
						i, p.Note, stG, stA)
				}
				if generic {
					pos++
				}
			}
			if pos == 0 || pos == len(f.Pairs) {
				t.Fatalf("degenerate corpus: %d/%d positive verdicts", pos, len(f.Pairs))
			}
		})
	}
}
