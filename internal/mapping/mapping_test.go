package mapping

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"keyedeq/internal/containment"
	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/instance"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

func v(t value.Type, n int64) value.Value { return value.Value{Type: t, N: n} }

var (
	src2 = schema.MustParse("R(k*:T1, a:T2)")
	dst2 = schema.MustParse("P(k*:T1, a:T2)")
)

func identityLike(t *testing.T) *Mapping {
	t.Helper()
	return MustNew(src2, dst2, []*cq.Query{cq.MustParse("P(X, Y) :- R(X, Y).")})
}

func TestValidateMapping(t *testing.T) {
	if _, err := New(src2, dst2, nil); err == nil {
		t.Error("missing queries accepted")
	}
	if _, err := New(src2, dst2, []*cq.Query{nil}); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := New(src2, dst2, []*cq.Query{cq.MustParse("P(X) :- R(X, Y).")}); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := New(src2, dst2, []*cq.Query{cq.MustParse("P(Y, Y) :- R(X, Y).")}); err == nil {
		t.Error("wrong head type accepted")
	}
	if _, err := New(src2, dst2, []*cq.Query{cq.MustParse("P(X, Y) :- ZZ(X, Y).")}); err == nil {
		t.Error("query over unknown relation accepted")
	}
	if m := identityLike(t); m.QueryFor("P") == nil || m.QueryFor("nope") != nil {
		t.Error("QueryFor wrong")
	}
}

func TestApply(t *testing.T) {
	m := identityLike(t)
	d := instance.NewDatabase(src2)
	d.MustInsert("R", v(1, 1), v(2, 5))
	d.MustInsert("R", v(1, 2), v(2, 6))
	out, err := m.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	p := out.Relation("P")
	if p.Len() != 2 || !p.Has(instance.Tuple{v(1, 1), v(2, 5)}) {
		t.Errorf("Apply wrong: %s", out)
	}
}

func TestIdentityMapping(t *testing.T) {
	m := IdentityMapping(src2)
	d := instance.NewDatabase(src2)
	d.MustInsert("R", v(1, 1), v(2, 5))
	out, err := m.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(d) {
		t.Errorf("identity mapping changed instance: %s vs %s", out, d)
	}
	ok, err := m.IsIdentityOn(context.Background(), fd.KeyFDs(src2), nil)
	if err != nil || !ok {
		t.Errorf("IsIdentityOn(identity) = %v, %v", ok, err)
	}
}

func TestComposeSemantics(t *testing.T) {
	// α: S1 → S2 swaps nothing; β: S2 → S1; compose and compare against
	// sequential application on random instances.
	s1 := schema.MustParse("R(k*:T1, a:T2)")
	s2 := schema.MustParse("P(x*:T2, y:T1)") // attribute order swapped
	alpha := MustNew(s1, s2, []*cq.Query{cq.MustParse("P(Y, X) :- R(X, Y).")})
	beta := MustNew(s2, s1, []*cq.Query{cq.MustParse("R(Y, X) :- P(X, Y).")})
	comp, err := Compose(beta, alpha)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		d := instance.NewDatabase(s1)
		for i := 0; i < rng.Intn(5); i++ {
			d.MustInsert("R", v(1, int64(i+1)), v(2, int64(rng.Intn(3)+1)))
		}
		step1, err := alpha.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		step2, err := beta.Apply(step1)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := comp.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		if !step2.Equal(direct) {
			t.Fatalf("compose ≠ sequential application:\n%s\nvs\n%s", direct, step2)
		}
		// And it is the identity here.
		if !direct.Equal(d) {
			t.Fatalf("β∘α should be identity: %s vs %s", direct, d)
		}
	}
	ok, err := RoundTripIsIdentity(context.Background(), alpha, beta, nil)
	if err != nil || !ok {
		t.Errorf("RoundTripIsIdentity = %v, %v; want true", ok, err)
	}
}

func TestComposeWithJoin(t *testing.T) {
	// β's view contains a join; composition must inline both sides.
	s1 := schema.MustParse("R(k*:T1, a:T2)\nS(b*:T2, c:T3)")
	s2 := schema.MustParse("P(k*:T1, a:T2)\nQ2(b*:T2, c:T3)")
	alpha := MustNew(s1, s2, []*cq.Query{
		cq.MustParse("P(X, Y) :- R(X, Y)."),
		cq.MustParse("Q2(X, Y) :- S(X, Y)."),
	})
	joined := schema.MustParse("J(k*:T1, c:T3)")
	outer := MustNew(s2, joined, []*cq.Query{
		cq.MustParse("J(K, C) :- P(K, A), Q2(B, C), A = B."),
	})
	comp, err := Compose(outer, alpha)
	if err != nil {
		t.Fatal(err)
	}
	d := instance.NewDatabase(s1)
	d.MustInsert("R", v(1, 1), v(2, 7))
	d.MustInsert("S", v(2, 7), v(3, 9))
	d.MustInsert("S", v(2, 8), v(3, 10))
	step, _ := alpha.Apply(d)
	expect, err := outer.Apply(step)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := comp.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Equal(expect) {
		t.Fatalf("join composition wrong:\n%s\nvs\n%s", direct, expect)
	}
	if direct.Relation("J").Len() != 1 {
		t.Errorf("expected single joined tuple: %s", direct)
	}
}

func TestComposeConstantPropagation(t *testing.T) {
	// The inner view fixes a constant column; the outer view selects on
	// it.  Equal constants: satisfiable; different: empty.
	s1 := schema.MustParse("R(k*:T1)")
	s2 := schema.MustParse("P(k*:T1, c:T2)")
	inner := MustNew(s1, s2, []*cq.Query{cq.MustParse("P(X, T2:5) :- R(X).")})
	tgtSame := schema.MustParse("V(k*:T1)")
	outerSame := MustNew(s2, tgtSame, []*cq.Query{cq.MustParse("V(X) :- P(X, C), C = T2:5.")})
	outerDiff := MustNew(s2, tgtSame, []*cq.Query{cq.MustParse("V(X) :- P(X, C), C = T2:6.")})
	d := instance.NewDatabase(s1)
	d.MustInsert("R", v(1, 1))
	compSame, err := Compose(outerSame, inner)
	if err != nil {
		t.Fatal(err)
	}
	outSame, err := compSame.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if outSame.Relation("V").Len() != 1 {
		t.Errorf("same-constant composition should keep the tuple: %s", outSame)
	}
	compDiff, err := Compose(outerDiff, inner)
	if err != nil {
		t.Fatal(err)
	}
	outDiff, err := compDiff.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if outDiff.Relation("V").Len() != 0 {
		t.Errorf("different-constant composition must be empty: %s", outDiff)
	}
}

func TestComposeSchemaMismatch(t *testing.T) {
	s1 := schema.MustParse("R(k*:T1)")
	s2 := schema.MustParse("P(k*:T1)\nQ2(x*:T1)")
	m1 := MustNew(s1, s1, []*cq.Query{cq.MustParse("R(X) :- R(X).")})
	m2 := MustNew(s2, s2, []*cq.Query{
		cq.MustParse("P(X) :- P(X)."),
		cq.MustParse("Q2(X) :- Q2(X)."),
	})
	if _, err := Compose(m2, m1); err == nil {
		t.Error("mismatched composition accepted")
	}
}

func TestIsValid(t *testing.T) {
	s1 := schema.MustParse("R(k*:T1, a:T2)")
	// Identity-style view keeps the key: valid.
	d1 := schema.MustParse("P(k*:T1, a:T2)")
	valid := MustNew(s1, d1, []*cq.Query{cq.MustParse("P(X, Y) :- R(X, Y).")})
	ok, err := valid.IsValid()
	if err != nil || !ok {
		t.Errorf("identity view should be valid: %v %v", ok, err)
	}
	// Swapped view keyed on the old non-key: invalid.
	d2 := schema.MustParse("P(a*:T2, k:T1)")
	invalid := MustNew(s1, d2, []*cq.Query{cq.MustParse("P(Y, X) :- R(X, Y).")})
	ok, err = invalid.IsValid()
	if err != nil || ok {
		t.Errorf("non-key-keyed view should be invalid: %v %v", ok, err)
	}
	// Unkeyed destination: always valid.
	d3 := schema.MustParse("P(a:T2, k:T1)")
	anym := MustNew(s1, d3, []*cq.Query{cq.MustParse("P(Y, X) :- R(X, Y).")})
	ok, err = anym.IsValid()
	if err != nil || !ok {
		t.Errorf("unkeyed destination should be valid: %v %v", ok, err)
	}
}

func TestIsValidSemanticAgreement(t *testing.T) {
	// Cross-check IsValid against applying the mapping to random
	// key-satisfying instances: a valid mapping never produces a key
	// violation.
	s1 := schema.MustParse("R(k*:T1, a:T1)")
	dsts := []*schema.Schema{
		schema.MustParse("P(k*:T1, a:T1)"),
		schema.MustParse("P(a*:T1, k:T1)"),
		schema.MustParse("P(k*:T1)"),
		schema.MustParse("P(a*:T1)"),
	}
	queries := [][]string{
		{"P(X, Y) :- R(X, Y)."},
		{"P(Y, X) :- R(X, Y)."},
		{"P(X) :- R(X, Y)."},
		{"P(Y) :- R(X, Y)."},
	}
	rng := rand.New(rand.NewSource(8))
	for i, dst := range dsts {
		m := MustNew(s1, dst, []*cq.Query{cq.MustParse(queries[i][0])})
		claim, err := m.IsValid()
		if err != nil {
			t.Fatal(err)
		}
		sawViolation := false
		for trial := 0; trial < 60; trial++ {
			d := instance.NewDatabase(s1)
			for k := 0; k < rng.Intn(5); k++ {
				d.MustInsert("R", v(1, int64(k+1)), v(1, int64(rng.Intn(3)+1)))
			}
			out, err := m.Apply(d)
			if err != nil {
				t.Fatal(err)
			}
			if !out.SatisfiesKeys() {
				sawViolation = true
				if claim {
					t.Fatalf("mapping %d claimed valid but violated keys on %s -> %s", i, d, out)
				}
			}
		}
		if !claim && !sawViolation {
			t.Logf("mapping %d claimed invalid; no random witness found (ok, test is one-sided)", i)
		}
	}
}

func TestFromIsomorphism(t *testing.T) {
	s1 := schema.MustParse("R(k*:T1, a:T2)\nS(x*:T3)")
	rng := rand.New(rand.NewSource(5))
	s2, iso := schema.RandomIsomorph(s1, rng)
	alpha, beta, err := FromIsomorphism(s1, s2, iso)
	if err != nil {
		t.Fatal(err)
	}
	okA, err := alpha.IsValid()
	if err != nil || !okA {
		t.Errorf("alpha should be valid: %v %v", okA, err)
	}
	okB, err := beta.IsValid()
	if err != nil || !okB {
		t.Errorf("beta should be valid: %v %v", okB, err)
	}
	ok, err := RoundTripIsIdentity(context.Background(), alpha, beta, nil)
	if err != nil || !ok {
		t.Errorf("β∘α should be identity: %v %v", ok, err)
	}
	ok, err = RoundTripIsIdentity(context.Background(), beta, alpha, nil)
	if err != nil || !ok {
		t.Errorf("α∘β should be identity too: %v %v", ok, err)
	}
	dom, err := Dominates(alpha, beta)
	if err != nil || !dom {
		t.Errorf("Dominates = %v, %v", dom, err)
	}
	// Semantic round trip.
	d := instance.NewDatabase(s1)
	d.MustInsert("R", v(1, 1), v(2, 1))
	d.MustInsert("S", v(3, 4))
	mid, err := alpha.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := beta.Apply(mid)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(d) {
		t.Errorf("iso round trip changed instance:\n%s\nvs\n%s", back, d)
	}
	if err := iso.Verify(s1, s2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := FromIsomorphism(s1, s2, &schema.Isomorphism{RelMap: []int{0, 0}}); err == nil {
		t.Error("bad witness accepted")
	}
}

func TestRoundTripNotIdentity(t *testing.T) {
	// A lossy α (projects away the non-key) cannot be inverted.
	s1 := schema.MustParse("R(k*:T1, a:T2)")
	s2 := schema.MustParse("P(k*:T1)")
	alpha := MustNew(s1, s2, []*cq.Query{cq.MustParse("P(X) :- R(X, Y).")})
	beta := MustNew(s2, s1, []*cq.Query{cq.MustParse("R(X, T2:1) :- P(X).")})
	ok, err := RoundTripIsIdentity(context.Background(), alpha, beta, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("lossy round trip claimed to be identity")
	}
}

func TestMappingString(t *testing.T) {
	m := identityLike(t)
	if m.String() != "P(X, Y) :- R(X, Y)." {
		t.Errorf("String = %q", m.String())
	}
}

// Composition is associative, both symbolically-applied and semantically:
// (h∘g)∘f and h∘(g∘f) compute the same instances.
func TestComposeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	sA := schema.MustParse("R(k*:T1, a:T2)")
	sB, isoAB := schema.RandomIsomorph(sA, rng)
	sC, isoBC := schema.RandomIsomorph(sB, rng)
	f, _, err := FromIsomorphism(sA, sB, isoAB)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := FromIsomorphism(sB, sC, isoBC)
	if err != nil {
		t.Fatal(err)
	}
	// h: C -> C identity keeps the chain non-trivial in both directions.
	h := IdentityMapping(sC)
	gf, err := Compose(g, f)
	if err != nil {
		t.Fatal(err)
	}
	hg, err := Compose(h, g)
	if err != nil {
		t.Fatal(err)
	}
	left, err := Compose(h, gf)
	if err != nil {
		t.Fatal(err)
	}
	right, err := Compose(hg, f)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		d := instance.NewDatabase(sA)
		for i := 0; i < rng.Intn(5); i++ {
			d.MustInsert("R", v(1, int64(i+1)), v(2, int64(rng.Intn(3)+1)))
		}
		l, err := left.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		r, err := right.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		if !l.Equal(r) {
			t.Fatalf("associativity violated:\n%s\nvs\n%s", l, r)
		}
	}
}

// Apply distributes over composition on every instance (the defining
// property of symbolic composition), checked on random mappings that are
// not mere permutations: projections and constant introductions.
func TestComposeApplyCommutes(t *testing.T) {
	sA := schema.MustParse("R(k*:T1, a:T2, b:T3)")
	sB := schema.MustParse("P(k*:T1, a:T2)")
	sC := schema.MustParse("Q2(k*:T1, c:T4, a:T2)")
	f := MustNew(sA, sB, []*cq.Query{cq.MustParse("P(K, A) :- R(K, A, B).")})
	g := MustNew(sB, sC, []*cq.Query{cq.MustParse("Q2(K, T4:9, A) :- P(K, A).")})
	comp, err := Compose(g, f)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 30; trial++ {
		d := instance.NewDatabase(sA)
		for i := 0; i < rng.Intn(5); i++ {
			d.MustInsert("R", v(1, int64(i+1)), v(2, int64(rng.Intn(3)+1)), v(3, int64(rng.Intn(3)+1)))
		}
		step, err := f.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		expect, err := g.Apply(step)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := comp.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		if !direct.Equal(expect) {
			t.Fatalf("apply/compose mismatch:\n%s\nvs\n%s", direct, expect)
		}
	}
}

func TestParseMapping(t *testing.T) {
	s1 := schema.MustParse("R(k*:T1, a:T2)\nS(b*:T2)")
	s2 := schema.MustParse("P(k*:T1, a:T2)\nQ2(b*:T2)")
	m, err := Parse(s1, s2, `
# alpha
P(X, Y) :- R(X, Y).
Q2(B) :- S(B).
`)
	if err != nil {
		t.Fatal(err)
	}
	if m.QueryFor("P") == nil || m.QueryFor("Q2") == nil {
		t.Fatal("views missing")
	}
	// Round trip through String.
	m2, err := Parse(s1, s2, m.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if m.String() != m2.String() {
		t.Errorf("round trip changed mapping:\n%s\nvs\n%s", m, m2)
	}
	bad := []string{
		"",                    // nothing defined
		"P(X, Y) :- R(X, Y).", // Q2 missing
		"P(X, Y) :- R(X, Y).\nP(X, Y) :- R(X, Y).\nQ2(B) :- S(B).", // dup
		"ZZ(X) :- R(X, Y).\nQ2(B) :- S(B).",                        // unknown head
		"P(X Y) :- R(X, Y).\nQ2(B) :- S(B).",                       // parse error
		"P(X, X) :- R(X, Y).\nQ2(B) :- S(B).",                      // type error (head)
	}
	for i, text := range bad {
		if _, err := Parse(s1, s2, text); err == nil {
			t.Errorf("bad mapping %d accepted", i)
		}
	}
}

// TestRoundTripIdentityCtxCancelled pins the ctx threading through the
// symbolic round-trip verification: a cancelled context aborts with the
// context's error instead of silently deciding on context.Background().
// TestRoundTripIdentityKeepsDeciderError checks that an error the
// decider returns, such as a deadline that expired inside a decision,
// stays visible to errors.Is through RoundTripIsIdentity.
func TestRoundTripIdentityKeepsDeciderError(t *testing.T) {
	m := IdentityMapping(src2)
	expired := func(context.Context, *cq.Query, *cq.Query, *schema.Schema, []fd.FD) (bool, containment.Stats, error) {
		return false, containment.Stats{}, context.DeadlineExceeded
	}
	_, err := RoundTripIsIdentity(context.Background(), m, IdentityMapping(src2), expired)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RoundTripIsIdentity: err = %v, want one errors.Is finds context.DeadlineExceeded in", err)
	}
}

func TestRoundTripIdentityCtxCancelled(t *testing.T) {
	m := IdentityMapping(src2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RoundTripIsIdentity(ctx, m, IdentityMapping(src2), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("RoundTripIsIdentity: err = %v, want context.Canceled", err)
	}
	if _, err := m.IsIdentityOn(ctx, fd.KeyFDs(src2), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("IsIdentityOn: err = %v, want context.Canceled", err)
	}
	// A live context decides.
	ok, err := RoundTripIsIdentity(context.Background(), m, IdentityMapping(src2), nil)
	if err != nil || !ok {
		t.Fatalf("RoundTripIsIdentity: ok=%v err=%v", ok, err)
	}
}
