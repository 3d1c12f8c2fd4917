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

// mapHeadType is the map-based HeadType that Query.HeadType replaced:
// every placeholder's type goes into one map (a reused placeholder keeps
// its last position's type), then the head reads from it.  It is the
// reference the positional lookup must match, errors included.
func mapHeadType(q *cq.Query, s *schema.Schema) ([]value.Type, error) {
	varType := make(map[cq.Var]value.Type)
	for _, a := range q.Body {
		r := s.Relation(a.Rel)
		if r == nil {
			return nil, fmt.Errorf("cq: unknown relation %q", a.Rel)
		}
		if len(a.Vars) != r.Arity() {
			return nil, fmt.Errorf("cq: %s arity mismatch", a.Rel)
		}
		for i, v := range a.Vars {
			varType[v] = r.Attrs[i].Type
		}
	}
	out := make([]value.Type, len(q.Head))
	for i, t := range q.Head {
		if t.IsConst {
			out[i] = t.Const.Type
			continue
		}
		tt, ok := varType[t.Var]
		if !ok {
			return nil, fmt.Errorf("cq: head variable %s unbound", t.Var)
		}
		out[i] = tt
	}
	return out, nil
}

func checkHeadType(t *testing.T, q *cq.Query, s *schema.Schema) {
	t.Helper()
	got, gerr := q.HeadType(s)
	want, werr := mapHeadType(q, s)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("HeadType(%s) = %v, %v; map version %v, %v", q, got, gerr, want, werr)
	}
}

// TestHeadTypeMatchesMapVersion checks the positional HeadType against
// the map-based reference on every corpus family's queries and on
// hand-built invalid queries that Validate would reject.
func TestHeadTypeMatchesMapVersion(t *testing.T) {
	for fi, name := range gen.FamilyNames() {
		f, err := gen.PairCorpus(rand.New(rand.NewSource(int64(11+fi))), name, 100)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range f.Pairs {
			checkHeadType(t, p.Left, f.Schema)
			checkHeadType(t, p.Right, f.Schema)
		}
	}

	s := schema.MustParse("R(k*:T1, a:T2)\nS(k*:T2, b:T1)")
	c, err := value.Parse("T2:7")
	if err != nil {
		t.Fatal(err)
	}
	atom := func(rel string, vars ...cq.Var) cq.Atom { return cq.Atom{Rel: rel, Vars: vars} }
	for _, q := range []*cq.Query{
		// Valid, for contrast.
		{Head: []cq.Term{cq.V("X"), cq.V("Y")}, Body: []cq.Atom{atom("R", "X", "Y")}},
		{Head: []cq.Term{cq.C(c), cq.V("Y")}, Body: []cq.Atom{atom("R", "X", "Y")}},
		// Unknown relation, alone and behind a good atom.
		{Head: []cq.Term{cq.V("X")}, Body: []cq.Atom{atom("Nope", "X")}},
		{Head: []cq.Term{cq.V("X")}, Body: []cq.Atom{atom("R", "X", "Y"), atom("Nope", "Z")}},
		// Arity mismatch.
		{Head: []cq.Term{cq.V("X")}, Body: []cq.Atom{atom("R", "X")}},
		// Unbound head variable; a body error still wins over it.
		{Head: []cq.Term{cq.V("Z")}, Body: []cq.Atom{atom("R", "X", "Y")}},
		{Head: []cq.Term{cq.V("Z")}, Body: []cq.Atom{atom("R", "X")}},
		// A reused placeholder of two types: the last position decides.
		{Head: []cq.Term{cq.V("X")}, Body: []cq.Atom{atom("R", "X", "Y"), atom("S", "X", "W")}},
		{Head: []cq.Term{cq.V("Y")}, Body: []cq.Atom{atom("R", "Y", "Y")}},
		// Empty variable names and an empty body.
		{Head: []cq.Term{cq.V("")}, Body: []cq.Atom{atom("S", "", "B")}},
		{Head: []cq.Term{cq.V("")}, Body: []cq.Atom{atom("S", "A", "B")}},
		{Head: []cq.Term{cq.C(c)}},
		{Head: []cq.Term{cq.V("X")}},
		// Equality-only variables are not body positions.
		{Head: []cq.Term{cq.V("E")}, Body: []cq.Atom{atom("R", "X", "Y")},
			Eqs: []cq.Equality{{Left: "E", Right: cq.V("X")}}},
	} {
		checkHeadType(t, q, s)
	}
	// The reused placeholder really took the later atom's type.
	q := &cq.Query{Head: []cq.Term{cq.V("X")}, Body: []cq.Atom{atom("R", "X", "Y"), atom("S", "X", "W")}}
	if ht, err := q.HeadType(s); err != nil || ht[0] != s.Relation("S").Attrs[0].Type {
		t.Fatalf("reused placeholder: %v, %v; want S's key type", ht, err)
	}
}
