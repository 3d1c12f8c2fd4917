package containment

import (
	"context"
	"math/rand"
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/gen"
	"keyedeq/internal/obs"
	"keyedeq/internal/schema"
)

// This file pins the adaptive search's scan arm — the dense-ID
// ("interned") scan — to the naive search over surface values (the
// "generic" oracle) at the containment level.  The scan follows the
// naive search's dynamic atom order, so whenever every search of a
// decision takes the scan arm, the two must agree bit for bit: verdict,
// full Stats including search nodes, and witness.  Decisions that reach
// the pipeline are held to verdicts and mode-independent stats only.

// internedPairs is the per-family corpus size of the verdict sweep.
const internedPairs = 500

// scanFamily reports whether every adaptive search of fam takes the
// scan arm (see familyArm).
func scanFamily(fam string) bool {
	return familyArm[fam] == "scan"
}

// containedArm decides q1 ⊑ q2 with the adaptive search under a span
// collector and reports which arm its one search took ("" when the
// decision ran no search: a failed chase or an error).
func containedArm(q1, q2 *cq.Query, s *schema.Schema, deps []fd.FD) (bool, Stats, string, error) {
	sink := &obs.CollectSink{}
	ctx := obs.NewContext(context.Background(), &obs.Obs{Reg: obs.NewRegistry(), Sink: sink})
	ok, st, err := containedUnder(ctx, q1, q2, s, deps, false)
	arm := ""
	for _, sp := range sink.Stage(obs.StageSearch) {
		arm = armOf(sp)
	}
	return ok, st, arm, err
}

// TestInternedVsGenericVerdicts decides every corpus pair with the
// adaptive search and the naive oracle.  Verdicts must agree on every
// pair; when each search of the decision took the scan arm, the full
// Stats — search nodes included — must be identical too.  The
// scan-arm families must make that exact comparison on every pair.
func TestInternedVsGenericVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("differential corpus is slow in -short mode")
	}
	for fi, fam := range metamorphicFamilies() {
		fam, fi := fam, fi
		t.Run(fam, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(9000 + fi)))
			f, err := gen.PairCorpus(rng, fam, internedPairs)
			if err != nil {
				t.Fatal(err)
			}
			sink := &obs.CollectSink{}
			ctx := obs.NewContext(context.Background(), &obs.Obs{Reg: obs.NewRegistry(), Sink: sink})
			pos, exact := 0, 0
			for i, p := range f.Pairs {
				sink.Reset()
				interned, stI, err := EquivalentUnderCtx(ctx, p.Left, p.Right, f.Schema, f.Deps)
				if err != nil {
					t.Fatalf("pair %d (%s): interned: %v", i, p.Note, err)
				}
				allScan := true
				for _, sp := range sink.Stage(obs.StageSearch) {
					allScan = allScan && armOf(sp) == "scan"
				}
				generic, stG, err := EquivalentUnderMode(p.Left, p.Right, f.Schema, f.Deps, cq.SearchNaive)
				if err != nil {
					t.Fatalf("pair %d (%s): generic: %v", i, p.Note, err)
				}
				if generic != interned {
					t.Fatalf("pair %d (%s): generic=%v interned=%v\n  left  %s\n  right %s",
						i, p.Note, generic, interned, p.Left, p.Right)
				}
				if allScan {
					exact++
				} else {
					stI.Nodes, stG.Nodes = 0, 0
				}
				if stG != stI {
					t.Fatalf("pair %d (%s): stats diverge (all scan: %v)\n  generic  %+v\n  interned %+v\n  left  %s\n  right %s",
						i, p.Note, allScan, stG, stI, p.Left, p.Right)
				}
				if generic {
					pos++
				}
			}
			if pos == 0 || pos == len(f.Pairs) {
				t.Fatalf("degenerate corpus: %d/%d positive verdicts", pos, len(f.Pairs))
			}
			if scanFamily(fam) && exact != len(f.Pairs) {
				t.Fatalf("%s: only %d/%d decisions ran on the scan arm alone", fam, exact, len(f.Pairs))
			}
		})
	}
}

// TestInternedVsGenericWitnesses extracts homomorphism certificates
// with the adaptive search and the naive oracle for every corpus pair.
// Where the adaptive search took the scan arm it walks the naive node
// sequence, so the two certificates must be the same homomorphism;
// wherever it took the pipeline they may differ.  Either way each
// certificate must verify symbolically.
func TestInternedVsGenericWitnesses(t *testing.T) {
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
			same := 0
			for i, p := range f.Pairs {
				_, _, arm, err := containedArm(p.Left, p.Right, f.Schema, f.Deps)
				if err != nil {
					t.Fatalf("pair %d (%s): arm probe: %v", i, p.Note, err)
				}
				homI, okI, err := FindHomomorphism(p.Left, p.Right, f.Schema, f.Deps)
				if err != nil {
					t.Fatalf("pair %d (%s): interned: %v", i, p.Note, err)
				}
				homG, okG, err := FindHomomorphismMode(p.Left, p.Right, f.Schema, f.Deps, cq.SearchNaive)
				if err != nil {
					t.Fatalf("pair %d (%s): generic: %v", i, p.Note, err)
				}
				if okG != okI {
					t.Fatalf("pair %d (%s): generic ok=%v, interned ok=%v", i, p.Note, okG, okI)
				}
				if !okG || homG == nil {
					continue
				}
				if arm == "scan" {
					if homG.String() != homI.String() {
						t.Fatalf("pair %d (%s): scan-arm witnesses diverge\n  generic  %s\n  interned %s",
							i, p.Note, homG, homI)
					}
					same++
				}
				for _, hom := range []Homomorphism{homG, homI} {
					if err := VerifyHomomorphism(p.Left, p.Right, hom, f.Schema, f.Deps); err != nil {
						t.Fatalf("pair %d (%s): invalid witness %s: %v", i, p.Note, hom, err)
					}
				}
			}
			if scanFamily(fam) && same == 0 {
				t.Fatalf("%s: no scan-arm witness was compared", fam)
			}
		})
	}
}
