package engine

import (
	"context"
	"math/rand"
	"testing"

	"keyedeq/internal/fd"
	"keyedeq/internal/gen"
	"keyedeq/internal/schema"
)

// renameDeps carries a family's key dependencies over to the renamed
// schema (key positions are preserved by the renaming).
func renameDeps(f *gen.Family, s2 *schema.Schema) []fd.FD {
	if len(f.Deps) == 0 {
		return nil
	}
	return fd.KeyFDs(s2)
}

// The metamorphic layer checks the engine's verdicts are invariant under
// every transformation that cannot change query semantics: variable
// renaming, body-atom reordering, equality-list restructuring (all via
// gen.AlphaVariant), and relation/attribute renaming of the whole
// schema.  Seeds are fixed so failures replay.

func TestMetamorphicVerdictInvariantUnderAlphaVariants(t *testing.T) {
	for _, fam := range gen.FamilyNames() {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			rng := rand.New(rand.NewSource(101))
			f, err := gen.PairCorpus(rng, fam, 60)
			if err != nil {
				t.Fatal(err)
			}
			e := New(f.Schema, f.Deps, Options{Workers: 4, CacheSize: -1})
			for i, p := range f.Pairs {
				base := e.Decide(context.Background(), p.Left, p.Right, OpEquivalent)
				if base.Err != nil {
					t.Fatalf("pair %d (%s): %v", i, p.Note, base.Err)
				}
				for v := 0; v < 3; v++ {
					l := gen.AlphaVariant(rng, p.Left)
					r := gen.AlphaVariant(rng, p.Right)
					got := e.Decide(context.Background(), l, r, OpEquivalent)
					if got.Err != nil {
						t.Fatalf("pair %d variant %d (%s): %v", i, v, p.Note, got.Err)
					}
					if got.Holds != base.Holds {
						t.Fatalf("pair %d (%s): verdict flipped under alpha variant %d\n  base    ≡(%s, %s) = %v\n  variant ≡(%s, %s) = %v",
							i, p.Note, v, p.Left, p.Right, base.Holds, l, r, got.Holds)
					}
				}
			}
		})
	}
}

func TestMetamorphicVerdictInvariantUnderContainmentVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	f, err := gen.PairCorpus(rng, "graph-mixed", 80)
	if err != nil {
		t.Fatal(err)
	}
	e := New(f.Schema, f.Deps, Options{Workers: 4, CacheSize: -1})
	for i, p := range f.Pairs {
		base := e.Decide(context.Background(), p.Left, p.Right, OpContained)
		if base.Err != nil {
			t.Fatalf("pair %d: %v", i, base.Err)
		}
		got := e.Decide(context.Background(),
			gen.AlphaVariant(rng, p.Left), gen.AlphaVariant(rng, p.Right), OpContained)
		if got.Err != nil || got.Holds != base.Holds {
			t.Fatalf("pair %d (%s): containment verdict flipped: %v vs %v (err %v)",
				i, p.Note, base.Holds, got.Holds, got.Err)
		}
	}
}

func TestMetamorphicVerdictInvariantUnderRelationRenaming(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for _, fam := range []string{"graph-mixed", "keyed"} {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			f, err := gen.PairCorpus(rng, fam, 40)
			if err != nil {
				t.Fatal(err)
			}
			// Rename every relation (and attribute) of the schema and map
			// the queries along; a schema identical up to renaming must
			// yield identical verdicts.
			ren := make(map[string]string)
			for i, r := range f.Schema.Relations {
				ren[r.Name] = "Zz" + string(rune('A'+i))
			}
			s2 := gen.RenameSchemaRelations(f.Schema, ren)
			e1 := New(f.Schema, f.Deps, Options{CacheSize: -1})
			e2 := New(s2, renameDeps(f, s2), Options{CacheSize: -1})
			for i, p := range f.Pairs {
				base := e1.Decide(context.Background(), p.Left, p.Right, OpEquivalent)
				got := e2.Decide(context.Background(),
					gen.RenameRelations(p.Left, ren), gen.RenameRelations(p.Right, ren), OpEquivalent)
				if base.Err != nil || got.Err != nil {
					t.Fatalf("pair %d (%s): errs %v / %v", i, p.Note, base.Err, got.Err)
				}
				if base.Holds != got.Holds {
					t.Fatalf("pair %d (%s): verdict changed under relation renaming: %v vs %v",
						i, p.Note, base.Holds, got.Holds)
				}
			}
		})
	}
}
