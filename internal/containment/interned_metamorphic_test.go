package containment

import (
	"math/rand"
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/gen"
	"keyedeq/internal/value"
)

// Metamorphic invariants of the adaptive decision path, whose pipeline
// runs over the database's interned (frozen) view: verdicts must not
// change under surface transformations that preserve query semantics —
// α-renaming with atom reorder, and injective renaming of the constant
// values themselves.  Both transformations scramble the order in which
// the freeze step first sees values, so they exercise the claim that
// verdicts never depend on the ID assignment.

// metamorphicFamilies are the schema families the sweeps cover: keyed
// and wide exercise EGD-heavy chases feeding the search, graph-star and
// graph-long fan-out and deep-chain search shapes; between them both
// arms of the adaptive search run.
func metamorphicFamilies() []string {
	return []string{"keyed", "wide", "graph-star", "graph-long"}
}

// renameQueryConsts applies an injective value renaming f to every
// constant of q (equality bindings and head constants; body atoms carry
// only variables).
func renameQueryConsts(q *cq.Query, f func(value.Value) value.Value) *cq.Query {
	out := q.Clone()
	for i, t := range out.Head {
		if t.IsConst {
			out.Head[i].Const = f(t.Const)
		}
	}
	for i, e := range out.Eqs {
		if e.Right.IsConst {
			out.Eqs[i].Right.Const = f(e.Right.Const)
		}
	}
	return out
}

func TestInternedVerdictInvariantUnderAlphaVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep is slow in -short mode")
	}
	for fi, fam := range metamorphicFamilies() {
		fam, fi := fam, fi
		t.Run(fam, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(9900 + fi)))
			f, err := gen.PairCorpus(rng, fam, 120)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range f.Pairs {
				base, _, err := EquivalentUnder(p.Left, p.Right, f.Schema, f.Deps)
				if err != nil {
					t.Fatal(err)
				}
				// Variable renaming plus atom/equality reorder changes the
				// freeze's first-sight ID order; the verdict must not move.
				l2 := gen.AlphaVariant(rng, p.Left)
				r2 := gen.AlphaVariant(rng, p.Right)
				got, _, err := EquivalentUnder(l2, r2, f.Schema, f.Deps)
				if err != nil {
					t.Fatal(err)
				}
				if got != base {
					t.Fatalf("pair %d (%s): verdict flipped under alpha variants: %v -> %v\n  left  %s\n  right %s",
						i, p.Note, base, got, p.Left, p.Right)
				}
			}
		})
	}
}

func TestInternedVerdictInvariantUnderValueRenaming(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep is slow in -short mode")
	}
	// An injective, type-preserving renaming of the constant universe:
	// containment is invariant under any such renaming applied to both
	// sides, and the renamed constants land on different interned IDs.
	ren := func(v value.Value) value.Value {
		return value.Value{Type: v.Type, N: v.N*13 + 5}
	}
	for fi, fam := range metamorphicFamilies() {
		fam, fi := fam, fi
		t.Run(fam, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(10100 + fi)))
			f, err := gen.PairCorpus(rng, fam, 120)
			if err != nil {
				t.Fatal(err)
			}
			renamed := 0
			for i, p := range f.Pairs {
				base, _, err := EquivalentUnder(p.Left, p.Right, f.Schema, f.Deps)
				if err != nil {
					t.Fatal(err)
				}
				l2 := renameQueryConsts(p.Left, ren)
				r2 := renameQueryConsts(p.Right, ren)
				if l2.String() != p.Left.String() || r2.String() != p.Right.String() {
					renamed++
				}
				got, _, err := EquivalentUnder(l2, r2, f.Schema, f.Deps)
				if err != nil {
					t.Fatal(err)
				}
				if got != base {
					t.Fatalf("pair %d (%s): verdict flipped under value renaming: %v -> %v\n  left  %s\n  right %s",
						i, p.Note, base, got, p.Left, p.Right)
				}
			}
			if fam == "keyed" && renamed == 0 {
				t.Fatal("keyed corpus produced no constant-carrying pairs; renaming untested")
			}
		})
	}
}

// TestInternerDeterminismOnCanonicalDatabases pins the freeze side of
// the metamorphic wall directly: freezing the same canonical database
// twice yields bit-identical ID tables, so the search's ID space is a
// pure function of the database contents.
func TestInternerDeterminismOnCanonicalDatabases(t *testing.T) {
	// The wide family's searches take the pipeline arm, which freezes
	// the canonical database; the keyed family's scan never would.
	rng := rand.New(rand.NewSource(10300))
	f, err := gen.PairCorpus(rng, "wide", 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range f.Pairs {
		hom, ok, err := FindHomomorphism(p.Left, p.Right, f.Schema, f.Deps)
		if err != nil {
			t.Fatal(err)
		}
		hom2, ok2, err := FindHomomorphism(p.Left, p.Right, f.Schema, f.Deps)
		if err != nil {
			t.Fatal(err)
		}
		if ok != ok2 || (ok && hom.String() != hom2.String()) {
			t.Fatalf("%s: repeated decision diverged: (%v, %s) vs (%v, %s)",
				p.Note, ok, hom, ok2, hom2)
		}
	}
}
