package cq_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/gen"
	"keyedeq/internal/value"
)

// These tests hold the compiled form (cq.Compiled), the one class
// numbering of the decision path, to EqClasses, the numbering the naive
// oracle keeps.

// checkCompiled resets c to q and requires it to agree with EqClasses:
// the same partition of q's variables, the same constant per class
// (also when the query is unsatisfiable) and the same Unsat verdict.
// Classes must be numbered by first appearance over the body, then the
// equality list (left side before right), then the head, so classes
// [0, BodyClasses) are exactly the body's classes.
func checkCompiled(t *testing.T, c *cq.Compiled, q *cq.Query) {
	t.Helper()
	c.Reset(q)
	eq := cq.NewEqClasses(q)
	if c.Unsat != eq.Unsatisfiable() {
		t.Fatalf("%s: Unsat %v, EqClasses says %v", q, c.Unsat, eq.Unsatisfiable())
	}
	// Every variable, in first-appearance order.
	var vars []cq.Var
	for _, a := range q.Body {
		vars = append(vars, a.Vars...)
	}
	placeholders := len(vars)
	for _, e := range q.Eqs {
		vars = append(vars, e.Left)
		if !e.Right.IsConst {
			vars = append(vars, e.Right.Var)
		}
	}
	for _, h := range q.Head {
		if !h.IsConst {
			vars = append(vars, h.Var)
		}
	}
	class := make([]int32, len(vars))
	next, bodyOpened := int32(0), int32(0)
	for i, v := range vars {
		if i == placeholders {
			bodyOpened = next
		}
		k, ok := c.Class(v)
		if !ok {
			t.Fatalf("%s: variable %s has no class", q, v)
		}
		class[i] = k
		switch {
		case k == next:
			next++
		case k > next:
			t.Fatalf("%s: %s opens class %d, want %d (first-appearance order)", q, v, k, next)
		}
		want, has := eq.Const(v)
		if c.HasConst[k] != has || c.Const[k] != want {
			t.Fatalf("%s: class of %s binds %v (%v), EqClasses says %v (%v)", q, v, c.Const[k], c.HasConst[k], want, has)
		}
	}
	if placeholders == len(vars) {
		bodyOpened = next
	}
	// With the partition checked below, this makes [0, BodyClasses)
	// exactly the classes of the placeholders.
	if int(bodyOpened) != c.BodyClasses {
		t.Fatalf("%s: the body opens %d classes, BodyClasses is %d", q, bodyOpened, c.BodyClasses)
	}
	if int(next) != c.NumClasses() {
		t.Fatalf("%s: %d classes opened, NumClasses is %d", q, next, c.NumClasses())
	}
	for i, u := range vars {
		for j := i + 1; j < len(vars); j++ {
			if (class[i] == class[j]) != eq.Same(u, vars[j]) {
				t.Fatalf("%s: %s and %s share a class: %v, EqClasses says %v", q, u, vars[j], class[i] == class[j], eq.Same(u, vars[j]))
			}
		}
	}
	k := 0
	for i, a := range q.Body {
		for p := range a.Vars {
			if c.Args[i][p] != class[k] {
				t.Fatalf("%s: Args[%d][%d] = %d, want %d", q, i, p, c.Args[i][p], class[k])
			}
			k++
		}
	}
	for i, h := range q.Head {
		want := int32(-1)
		if !h.IsConst {
			want, _ = c.Class(h.Var)
		}
		if c.Head[i] != want {
			t.Fatalf("%s: Head[%d] = %d, want %d", q, i, c.Head[i], want)
		}
	}
}

// parseCorpusSeeds returns the inputs committed under
// testdata/fuzz/FuzzParseCQ.
func parseCorpusSeeds(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParseCQ", "*"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(strings.SplitN(string(b), "\n", 2)[1]), "string(")
		if !ok || !strings.HasSuffix(lit, ")") {
			t.Fatalf("%s: not a one-string fuzz input", f)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, s)
	}
	return out
}

// TestCompiledMatchesEqClasses is the compiled form's wall: both sides
// of every corpus pair, the FuzzParseCQ seed corpus, and hand-built
// queries that Validate rejects (equality-only and head-only variables,
// a reused placeholder, conflicting constants).  One Compiled is reset
// for every query, so each compile starts from a dirty form.
func TestCompiledMatchesEqClasses(t *testing.T) {
	var c cq.Compiled
	for fi, name := range gen.FamilyNames() {
		f, err := gen.PairCorpus(rand.New(rand.NewSource(int64(11+fi))), name, 100)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range f.Pairs {
			checkCompiled(t, &c, p.Left)
			checkCompiled(t, &c, p.Right)
		}
	}
	for _, text := range append(append([]string(nil), cq.ParseSeeds...), parseCorpusSeeds(t)...) {
		if q, err := cq.Parse(text); err == nil {
			checkCompiled(t, &c, q)
		}
	}
	for _, text := range []string{
		"V(E) :- R(X, Y), E = X.",
		"V(H, H) :- R(X, Y).",
		"V(H) :- R(X, Y), E = T1:2.",
		"V(X) :- R(X, Y), E = F, F = T1:2, G = E.",
		"V(X) :- R(X, Y), X = T1:1, Y = T1:2, X = Y.",
		"V(X) :- R(X, Y), Y = T1:1, Y = T1:2, Z = Y, Z = T1:3.",
		"V(X) :- R(X, X), S(X, Y), Y = X.",
		"V(X) :- R(A, B), S(C, D), B = C, D = A, X = D, A = T2:5.",
		"V(T1:1) :- R(A, B), A = B, B = A.",
	} {
		checkCompiled(t, &c, cq.MustParse(text))
	}
	// A conflict keeps the left class's constant, as EqClasses does.
	q := cq.MustParse("V(X) :- R(X, Y), X = T1:1, Y = T1:2, Y = X.")
	c.Reset(q)
	k, _ := c.Class("X")
	if !c.Unsat || c.Const[k] != (value.Value{Type: 1, N: 2}) {
		t.Fatalf("conflict: Unsat %v, constant %v; want true and T1:2", c.Unsat, c.Const[k])
	}
}

// FuzzCompile holds the compiled form to EqClasses, and Validate and
// HeadType, which read it, to their references, on every query the
// parser accepts.
func FuzzCompile(f *testing.F) {
	for _, s := range cq.ParseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		q, err := cq.Parse(text)
		if err != nil {
			return
		}
		c := cq.Compile(q)
		defer c.Release()
		checkCompiled(t, c, q)
		checkValidate(t, q, oracleSchema)
	})
}
