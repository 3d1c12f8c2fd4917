package engine

import (
	"math/rand"
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/gen"
)

func TestCanonicalKeyInvariantUnderAlphaVariants(t *testing.T) {
	s := gen.GraphSchema()
	rng := rand.New(rand.NewSource(1))
	bases := []*cq.Query{
		gen.ChainQuery(1), gen.ChainQuery(3), gen.ChainQuery(5),
		gen.StarQuery(2), gen.StarQuery(4),
		gen.CliqueQuery(2), gen.CliqueQuery(3),
		gen.RandomChainVariant(rng, 3, 2),
	}
	for _, q := range bases {
		want := CanonicalizeQuery(q, s)
		if want.Key == "" {
			t.Fatalf("empty canonical key for %s", q)
		}
		for i := 0; i < 25; i++ {
			v := gen.AlphaVariant(rng, q)
			got := CanonicalizeQuery(v, s)
			if got.Key != want.Key {
				t.Fatalf("alpha variant %d of %s changed key:\n  base    %q\n  variant %q\n  variant query %s",
					i, q, want.Key, got.Key, v)
			}
		}
	}
}

func TestCanonicalKeySeparatesDistinctQueries(t *testing.T) {
	s := gen.GraphSchema()
	qs := []*cq.Query{
		gen.ChainQuery(1), gen.ChainQuery(2), gen.ChainQuery(3),
		gen.StarQuery(2), gen.StarQuery(3),
		gen.CliqueQuery(3),
	}
	keys := make(map[string]*cq.Query)
	for _, q := range qs {
		k := CanonicalizeQuery(q, s).Key
		if prev, dup := keys[k]; dup {
			t.Fatalf("distinct queries share a key:\n  %s\n  %s\n  key %q", prev, q, k)
		}
		keys[k] = q
	}
}

func TestCanonicalKeyDistinguishesHeads(t *testing.T) {
	s := gen.GraphSchema()
	q1 := cq.MustParse("V(X) :- E(X, Y).")
	q2 := cq.MustParse("V(Y) :- E(X, Y).")
	if CanonicalizeQuery(q1, s).Key == CanonicalizeQuery(q2, s).Key {
		t.Fatal("queries projecting different positions share a key")
	}
}

func TestCanonicalKeyDistinguishesConstants(t *testing.T) {
	s := gen.GraphSchema()
	q1 := cq.MustParse("V(X) :- E(X, Y), Y = T1:1.")
	q2 := cq.MustParse("V(X) :- E(X, Y), Y = T1:2.")
	q3 := cq.MustParse("V(X) :- E(X, Y).")
	k1 := CanonicalizeQuery(q1, s).Key
	k2 := CanonicalizeQuery(q2, s).Key
	k3 := CanonicalizeQuery(q3, s).Key
	if k1 == k2 || k1 == k3 || k2 == k3 {
		t.Fatalf("constant bindings not reflected in keys: %q %q %q", k1, k2, k3)
	}
}

func TestCanonicalKeyCollapsesUnsatisfiable(t *testing.T) {
	s := gen.GraphSchema()
	q1 := cq.MustParse("V(X) :- E(X, Y), Y = T1:1, Y = T1:2.")
	q2 := cq.MustParse("V(A) :- E(A, B), E(B, C), B = T1:7, B = T1:9.")
	k1 := CanonicalizeQuery(q1, s)
	k2 := CanonicalizeQuery(q2, s)
	if k1.Key != k2.Key {
		t.Fatalf("unsatisfiable queries of equal head type should share a key: %q vs %q", k1.Key, k2.Key)
	}
	sat := CanonicalizeQuery(cq.MustParse("V(X) :- E(X, Y)."), s)
	if sat.Key == k1.Key {
		t.Fatal("satisfiable query collapsed with unsatisfiable ones")
	}
}

func TestCanonicalKeyExactOnRealisticShapes(t *testing.T) {
	s := gen.GraphSchema()
	for _, q := range []*cq.Query{
		gen.ChainQuery(6), gen.StarQuery(6), gen.CliqueQuery(4),
	} {
		c := CanonicalizeQuery(q, s)
		if !c.Exact {
			t.Errorf("tie-break budget exhausted on %s", q)
		}
	}
}

func TestCanonicalKeyNilSchema(t *testing.T) {
	q := gen.ChainQuery(2)
	withSchema := CanonicalizeQuery(q, gen.GraphSchema())
	without := CanonicalizeQuery(q, nil)
	if withSchema.Key != without.Key {
		t.Fatalf("schema presence changed a satisfiable query's key: %q vs %q", withSchema.Key, without.Key)
	}
}

// TestReleaseTrimsTieBreakLevels holds the canonizer pool's size bound:
// release keeps the tie-break levels only while their tables hold at
// most maxPooledLevelSlots entries in all.
func TestReleaseTrimsTieBreakLevels(t *testing.T) {
	c := new(canonizer)
	for range 3 {
		c.levels = append(c.levels, &tieLevel{cands: make([]int, 0, maxPooledLevelSlots/2+1)})
	}
	c.release()
	if len(c.levels) != 1 {
		t.Fatalf("release kept %d tie-break levels, want 1", len(c.levels))
	}
}
