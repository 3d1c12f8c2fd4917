package containment

import (
	"context"
	"math/rand"
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/gen"
	"keyedeq/internal/obs"
)

// This file is the search's differential wall: the planned, adaptive
// production search (cq.SearchAdaptive) against the naive oracle
// (cq.SearchNaive) on every corpus family.  Verdicts and the
// mode-independent work accounting must be identical, every witness
// either search returns must verify symbolically, and each family must
// keep exercising the arm it is known to take, so both the scan and
// the pipeline stay under the wall.

// modePairs is the per-family corpus size of the wall.
const modePairs = 500

// familyArm is the arm every adaptive search of a family takes.
// graph-mixed is absent: it mixes shapes from both sides.
var familyArm = map[string]string{
	"wide":        "pipeline",
	"graph-long":  "pipeline",
	"keyed":       "scan",
	"graph-star":  "scan",
	"graph-chain": "scan",
}

// armOf reads which arm one search took off its span: the pipeline
// reports a per-component node breakdown, the scan reports none.
func armOf(sp *obs.Span) string {
	if _, ok := sp.IntAttr("comp_nodes_0"); ok {
		return "pipeline"
	}
	return "scan"
}

// TestPlannedVsNaiveVerdicts decides every corpus pair with the
// adaptive search and the naive oracle, demanding identical verdicts
// and identical chase and search-count accounting.  Node counts are
// deliberately not compared: the pipeline runs the plan's static order,
// and zero pipeline nodes is legitimate (an empty index bucket at the
// first step refutes containment without visiting a tuple).
func TestPlannedVsNaiveVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("differential corpus is slow in -short mode")
	}
	for fi, fam := range gen.FamilyNames() {
		fam, fi := fam, fi
		t.Run(fam, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7000 + fi)))
			f, err := gen.PairCorpus(rng, fam, modePairs)
			if err != nil {
				t.Fatal(err)
			}
			sink := &obs.CollectSink{}
			ctx := obs.NewContext(context.Background(), &obs.Obs{Reg: obs.NewRegistry(), Sink: sink})
			arms := map[string]int{}
			pos := 0
			for i, p := range f.Pairs {
				sink.Reset()
				adaptive, stA, err := EquivalentUnderCtx(ctx, p.Left, p.Right, f.Schema, f.Deps)
				if err != nil {
					t.Fatalf("pair %d (%s): adaptive: %v", i, p.Note, err)
				}
				for _, sp := range sink.Stage(obs.StageSearch) {
					arms[armOf(sp)]++
				}
				naive, stN, err := EquivalentUnderMode(p.Left, p.Right, f.Schema, f.Deps, cq.SearchNaive)
				if err != nil {
					t.Fatalf("pair %d (%s): naive: %v", i, p.Note, err)
				}
				if adaptive != naive {
					t.Fatalf("pair %d (%s): adaptive=%v naive=%v\n  left  %s\n  right %s",
						i, p.Note, adaptive, naive, p.Left, p.Right)
				}
				stA.Nodes, stN.Nodes = 0, 0
				if stA != stN {
					t.Fatalf("pair %d (%s): mode-independent stats diverge\n  adaptive %+v\n  naive    %+v",
						i, p.Note, stA, stN)
				}
				if adaptive {
					pos++
				}
			}
			if pos == 0 || pos == len(f.Pairs) {
				t.Fatalf("degenerate corpus: %d/%d positive verdicts", pos, len(f.Pairs))
			}
			if want, ok := familyArm[fam]; ok && (arms[want] == 0 || len(arms) != 1) {
				t.Fatalf("%s searches took arms %v, want all %s", fam, arms, want)
			}
		})
	}
}

// TestPlannedVsNaiveWitnesses extracts homomorphism certificates with
// both searches for every contained corpus pair.  The two may find
// different witnesses, so each is checked on its own with
// VerifyHomomorphism.
func TestPlannedVsNaiveWitnesses(t *testing.T) {
	if testing.Short() {
		t.Skip("differential corpus is slow in -short mode")
	}
	for fi, fam := range gen.FamilyNames() {
		fam, fi := fam, fi
		t.Run(fam, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(8000 + fi)))
			f, err := gen.PairCorpus(rng, fam, modePairs)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range f.Pairs {
				homA, okA, err := FindHomomorphism(p.Left, p.Right, f.Schema, f.Deps)
				if err != nil {
					t.Fatalf("pair %d (%s): adaptive: %v", i, p.Note, err)
				}
				homN, okN, err := FindHomomorphismMode(p.Left, p.Right, f.Schema, f.Deps, cq.SearchNaive)
				if err != nil {
					t.Fatalf("pair %d (%s): naive: %v", i, p.Note, err)
				}
				if okA != okN {
					t.Fatalf("pair %d (%s): adaptive ok=%v, naive ok=%v", i, p.Note, okA, okN)
				}
				for _, hom := range []Homomorphism{homA, homN} {
					if hom == nil {
						continue
					}
					if err := VerifyHomomorphism(p.Left, p.Right, hom, f.Schema, f.Deps); err != nil {
						t.Fatalf("pair %d (%s): invalid witness %s: %v", i, p.Note, hom, err)
					}
				}
			}
		})
	}
}
