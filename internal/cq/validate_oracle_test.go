package cq_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/gen"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// validateOracle is Query.Validate as it was before it read the compiled
// form: one map from each placeholder to its type, built in body order,
// then the head and the equality list read from it.  It is the
// reference for Compiled.Check's error texts and their precedence.
func validateOracle(q *cq.Query, s *schema.Schema) error {
	n := 0
	for _, a := range q.Body {
		n += len(a.Vars)
	}
	varType := make(map[cq.Var]value.Type, n)
	for _, a := range q.Body {
		r := s.Relation(a.Rel)
		if r == nil {
			return fmt.Errorf("cq: unknown relation %q", a.Rel)
		}
		if len(a.Vars) != r.Arity() {
			return fmt.Errorf("cq: %s has %d placeholders, scheme wants %d", a.Rel, len(a.Vars), r.Arity())
		}
		for i, v := range a.Vars {
			if v == "" {
				return fmt.Errorf("cq: empty variable in %s", a.Rel)
			}
			if _, dup := varType[v]; dup {
				return fmt.Errorf("cq: placeholder %s reused; placeholders must be distinct variables", v)
			}
			varType[v] = r.Attrs[i].Type
		}
	}
	if len(q.Body) == 0 {
		return fmt.Errorf("cq: empty body")
	}
	for i, t := range q.Head {
		if t.IsConst {
			if t.Const.Type == value.NoType {
				return fmt.Errorf("cq: head position %d has untyped constant", i)
			}
			continue
		}
		if _, ok := varType[t.Var]; !ok {
			return fmt.Errorf("cq: head variable %s does not occur in the body", t.Var)
		}
	}
	for _, e := range q.Eqs {
		lt, ok := varType[e.Left]
		if !ok {
			return fmt.Errorf("cq: equality variable %s does not occur in the body", e.Left)
		}
		if e.Right.IsConst {
			if e.Right.Const.Type != lt {
				return fmt.Errorf("cq: selection %s compares %v with %v", e, lt, e.Right.Const.Type)
			}
			continue
		}
		rt, ok := varType[e.Right.Var]
		if !ok {
			return fmt.Errorf("cq: equality variable %s does not occur in the body", e.Right.Var)
		}
		if lt != rt {
			return fmt.Errorf("cq: equality %s compares %v with %v", e, lt, rt)
		}
	}
	return nil
}

// checkValidate requires Validate and HeadType to answer as their
// references do: the same error text (or none) and the same head types.
func checkValidate(t *testing.T, q *cq.Query, s *schema.Schema) {
	t.Helper()
	if got, want := q.Validate(s), validateOracle(q, s); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Validate(%s) = %v; oracle %v", q, got, want)
	}
	got, gerr := q.HeadType(s)
	want, werr := mapHeadType(q, s)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("HeadType(%s) = %v, %v; map version %v, %v", q, got, gerr, want, werr)
	}
}

// oracleSchema names every relation the parse seeds use, at mixed
// arities and types, so the seeds reach past the relation checks.
var oracleSchema = schema.MustParse("P(a:T1, b:T2)\nR(c:T1, d:T2)\nS(k*:T2, b:T1)\nE(a:T1, b:T1)")

// invalidKinds injects one kind of Validate error into a query built by
// injectBase, at the first (at 0) or the second (at 1) of two places of
// its kind, so two kinds at places 0 and 1 meet in either order.  A
// body kind needs the body that the empty-body kind removes.
var invalidKinds = []struct {
	name   string
	body   bool
	inject func(q *cq.Query, at int)
}{
	{"unknown-relation", true, func(q *cq.Query, at int) { q.Body[at].Rel = "Nope" }},
	{"arity", true, func(q *cq.Query, at int) { q.Body[at].Vars = q.Body[at].Vars[:1] }},
	{"empty-variable", true, func(q *cq.Query, at int) { q.Body[at].Vars[len(q.Body[at].Vars)-1] = "" }},
	{"reused-placeholder", true, func(q *cq.Query, at int) { q.Body[at+1].Vars[1] = q.Body[at].Vars[0] }},
	{"empty-body", false, func(q *cq.Query, at int) { q.Body = nil }},
	{"untyped-head-constant", false, func(q *cq.Query, at int) { q.Head[at] = cq.C(value.Value{N: 4}) }},
	{"head-not-in-body", false, func(q *cq.Query, at int) { q.Head[at] = cq.V(fmt.Sprintf("H%d", at)) }},
	{"equality-left-not-in-body", false, func(q *cq.Query, at int) { q.Eqs[at].Left = cq.Var(fmt.Sprintf("L%d", at)) }},
	{"selection-type", false, func(q *cq.Query, at int) { q.Eqs[at].Right = cq.C(value.Value{Type: 9, N: 1}) }},
	{"equality-right-not-in-body", false, func(q *cq.Query, at int) { q.Eqs[at].Right = cq.V(fmt.Sprintf("R%d", at)) }},
	{"equality-type", false, func(q *cq.Query, at int) { q.Eqs[at].Right = cq.V("Y2") }},
}

// injectBase is a valid query with three atoms, two head terms and two
// equalities, every injection's target: X0..X2 are T1, Y0..Y2 are T2.
// A reused head variable X0 lands in a T2 position, so HeadType must
// take its last placeholder's type.
func injectBase() *cq.Query {
	return cq.MustParse("V(X0, X2) :- P(X0, Y0), R(X1, Y1), P(X2, Y2), X0 = X1, X1 = X2.")
}

// TestValidateMatchesOracle holds Validate (Compiled.Check) to
// validateOracle and HeadType to mapHeadType: both sides of the corpus
// pairs of every gen family, the parse seeds against several schemas,
// and hand-built invalid queries with one case per error kind and per
// ordered pair of kinds, so every precedence between two errors shows.
func TestValidateMatchesOracle(t *testing.T) {
	for fi, name := range gen.FamilyNames() {
		f, err := gen.PairCorpus(rand.New(rand.NewSource(int64(11+fi))), name, 150)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range f.Pairs {
			checkValidate(t, p.Left, f.Schema)
			checkValidate(t, p.Right, f.Schema)
			// Against another schema the relations or types mismatch.
			checkValidate(t, p.Left, oracleSchema)
		}
	}
	seeds := append(append([]string(nil), cq.ParseSeeds...), parseCorpusSeeds(t)...)
	for _, text := range seeds {
		q, err := cq.Parse(text)
		if err != nil {
			continue
		}
		for _, s := range []*schema.Schema{oracleSchema, gen.GraphSchema()} {
			checkValidate(t, q, s)
		}
	}

	base := injectBase()
	if err := base.Validate(oracleSchema); err != nil {
		t.Fatalf("premise: base query invalid: %v", err)
	}
	kinds := 0
	for _, k := range invalidKinds {
		for at := 0; at < 2; at++ {
			q := injectBase()
			k.inject(q, at)
			if validateOracle(q, oracleSchema) == nil {
				t.Fatalf("premise: %s at %d leaves %s valid", k.name, at, q)
			}
			checkValidate(t, q, oracleSchema)
			kinds++
		}
	}
	pairs := 0
	for _, a := range invalidKinds {
		for _, b := range invalidKinds {
			if a.name == b.name {
				continue
			}
			q := injectBase()
			a.inject(q, 0)
			if len(q.Body) > 0 || !b.body {
				b.inject(q, 1)
			}
			checkValidate(t, q, oracleSchema)
			pairs++
		}
	}
	if kinds != 2*len(invalidKinds) || pairs != len(invalidKinds)*(len(invalidKinds)-1) {
		t.Fatalf("ran %d single and %d paired cases", kinds, pairs)
	}
}
