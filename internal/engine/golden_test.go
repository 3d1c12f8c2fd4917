package engine

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/gen"
	"keyedeq/internal/schema"
)

// goldenKeysPath holds the canonical key and Exact flag of every query
// of goldenQueries, one "label<TAB>exact<TAB>key" line each.  Verdict
// logs are keyed by these strings, so the file is never regenerated: a
// line that changes is a key format change, and every persisted record
// keyed by the old line would silently stop matching.
const goldenKeysPath = "testdata/canonical_keys.golden"

// goldenQuery is one labelled query of the golden corpus with the
// schema it is canonicalized against (nil for the schema-free path).
type goldenQuery struct {
	label  string
	q      *cq.Query
	schema *schema.Schema
}

// goldenQueries is the golden corpus: both sides of 40 pairs per
// gen.PairCorpus family (family fi seeded 11+fi, as E1 and the
// decide-hot mix are), then hand-written unsatisfiable, constant-bound
// and constant-head queries, and symmetric shapes that exhaust the
// tie-break budget.
func goldenQueries(tb testing.TB) []goldenQuery {
	var out []goldenQuery
	for fi, name := range gen.FamilyNames() {
		f, err := gen.PairCorpus(rand.New(rand.NewSource(int64(11+fi))), name, 40)
		if err != nil {
			tb.Fatal(err)
		}
		for i, p := range f.Pairs {
			out = append(out,
				goldenQuery{fmt.Sprintf("%s/%02d/left", name, i), p.Left, f.Schema},
				goldenQuery{fmt.Sprintf("%s/%02d/right", name, i), p.Right, f.Schema})
		}
	}
	gs := gen.GraphSchema()
	keyed := schema.MustParse("R(k*:T1, a:T2)\nS(k*:T2, b:T1)")
	for _, c := range []struct {
		label, text string
		schema      *schema.Schema
	}{
		{"unsat/graph", "V(X) :- E(X, Y), Y = T1:1, Y = T1:2.", gs},
		{"unsat/graph-chain", "V(A) :- E(A, B), E(B2, C), B = B2, B = T1:7, B2 = T1:9.", gs},
		{"unsat/keyed-two-head", "V(X, W) :- R(X, Y), S(Z, W), Y = Z, Z = T2:1, Y = T2:2.", keyed},
		{"unsat/no-schema", "V(X, Y) :- E(X, Y), X = T1:1, X = T1:3.", nil},
		{"unsat/head-const", "V(T1:4) :- E(X, Y), X = T1:1, X = T1:3.", gs},
		{"const/bound", "V(X) :- E(X, Y), Y = T1:1.", gs},
		{"const/bound-negative", "V(X) :- E(X, Y), Y = T1:-3.", gs},
		{"const/bound-large", "V(X) :- E(X, Y), E(Y2, Z), Y = Y2, Z = T1:9223372036854775807.", gs},
		{"const/bound-min", "V(X) :- E(X, Y), Y = T1:-9223372036854775808.", gs},
		{"const/bound-shared", "V(X) :- E(X, Y), E(Y2, Z), Y = T1:5, Y2 = T1:5.", gs},
		{"const/bound-two", "V(X) :- E(X, Y), E(Y2, Z), Y = T1:5, Z = T1:6.", gs},
		{"const/keyed", "V(X) :- R(X, Y), S(Z, W), Y = Z, W = T1:2, Z = T2:11.", keyed},
		{"const/wide-type", "V(X) :- R(X, Y), Y = T2147483647:0.", nil},
		{"head/const-only", "V(T1:7) :- E(X, Y).", gs},
		{"head/const-first", "Q(T1:7, Y) :- E(X, Y).", gs},
		{"head/const-and-bound", "Q(T1:2, X) :- E(X, Y), Y = T1:2.", gs},
		{"head/repeated", "V(X, X) :- E(X, Y), X = Y.", gs},
		{"head/empty", "V() :- E(X, Y), E(Y2, Z), Y = Y2.", gs},
		{"head/keyed-const", "V(T1:3, X) :- R(X, Y), S(Z, W), Y = Z.", keyed},
		{"sym/triangles", disjointCycles(6, 3), gs},
		{"sym/squares", disjointCycles(5, 4), gs},
		{"sym/dup-atoms", "V(X) :- E(X, Y), E(X2, Y2), E(X3, Y3), X = X2, X2 = X3, Y = Y2, Y2 = Y3.", gs},
		{"sym/private-fan", "V(X) :- E(X, A), E(X2, B), E(X3, C), E(X4, D), X = X2, X = X3, X = X4.", gs},
	} {
		out = append(out, goldenQuery{c.label, cq.MustParse(c.text), c.schema})
	}
	// A negative head constant cannot be written: the parser splits the
	// head from the body at the first ":-".
	negHead := cq.MustParse("Q(Y, T1:1) :- E(X, Y).")
	negHead.Head[1].Const.N = -1
	for _, q := range []struct {
		label string
		q     *cq.Query
	}{
		{"head/const-negative", negHead},
		{"shape/chain-6", gen.ChainQuery(6)},
		{"shape/star-6", gen.StarQuery(6)},
		{"shape/clique-4", gen.CliqueQuery(4)},
		{"shape/clique-5", gen.CliqueQuery(5)},
	} {
		out = append(out, goldenQuery{q.label, q.q, gs})
	}
	return out
}

// disjointCycles renders n disjoint directed cycles of length k over E,
// a shape color refinement cannot split, so the tie-break search does
// all the work.
func disjointCycles(n, k int) string {
	var atoms, eqs []string
	for c := 0; c < n; c++ {
		for i := 0; i < k; i++ {
			atoms = append(atoms, fmt.Sprintf("E(X%d_%d, Y%d_%d)", c, i, c, i))
			eqs = append(eqs, fmt.Sprintf("Y%d_%d = X%d_%d", c, i, c, (i+1)%k))
		}
	}
	return "V() :- " + strings.Join(append(atoms, eqs...), ", ") + "."
}

// goldenLines renders the golden corpus's keys in the file's format.
func goldenLines(tb testing.TB) []string {
	qs := goldenQueries(tb)
	out := make([]string, len(qs))
	for i, g := range qs {
		c := CanonicalizeQuery(g.q, g.schema)
		out[i] = g.label + "\t" + strconv.FormatBool(c.Exact) + "\t" + c.Key
	}
	return out
}

// goldenFileLines reads the lines of goldenKeysPath, comments and blank
// lines skipped.
func goldenFileLines(t *testing.T) []string {
	f, err := os.Open(goldenKeysPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestCanonicalKeyGolden pins every canonical key and Exact flag of the
// golden corpus byte for byte.
func TestCanonicalKeyGolden(t *testing.T) {
	want := goldenFileLines(t)
	got := goldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("golden corpus has %d queries, %s has %d lines", len(got), goldenKeysPath, len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d:\n  got  %q\n  want %q", i+1, got[i], want[i])
			if bad++; bad == 5 {
				t.Fatal("too many mismatches")
			}
		}
	}
}

// TestCanonicalizeConcurrentMatchesGolden canonicalizes the golden
// corpus from several goroutines at once, each starting at a different
// query: pooled canonizers must never carry state between calls.
func TestCanonicalizeConcurrentMatchesGolden(t *testing.T) {
	qs := goldenQueries(t)
	want := goldenLines(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range qs {
				i := (k + g*len(qs)/4) % len(qs)
				c := CanonicalizeQuery(qs[i].q, qs[i].schema)
				if got := qs[i].label + "\t" + strconv.FormatBool(c.Exact) + "\t" + c.Key; got != want[i] {
					t.Errorf("goroutine %d: %q, want %q", g, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCanonicalizeAfterBudgetExhaustionMatchesGolden canonicalizes each
// golden query right after a symmetric query that runs the tie-break
// search out of budget, on one goroutine, so the pooled canonizer comes
// back with every tie-break level that search grew.  Keys and Exact
// flags must match the golden file byte for byte: a level the next
// search reads before rewriting would show.
func TestCanonicalizeAfterBudgetExhaustionMatchesGolden(t *testing.T) {
	gs := gen.GraphSchema()
	sym := cq.MustParse(disjointCycles(6, 3))
	if CanonicalizeQuery(sym, gs).Exact {
		t.Fatal("premise: six disjoint triangles no longer exhaust the tie-break budget")
	}
	want := goldenFileLines(t)
	qs := goldenQueries(t)
	if len(qs) != len(want) {
		t.Fatalf("golden corpus has %d queries, %s has %d lines", len(qs), goldenKeysPath, len(want))
	}
	for i, g := range qs {
		CanonicalizeQuery(sym, gs)
		c := CanonicalizeQuery(g.q, g.schema)
		if got := g.label + "\t" + strconv.FormatBool(c.Exact) + "\t" + c.Key; got != want[i] {
			t.Fatalf("line %d after the budget-exhausting query:\n  got  %q\n  want %q", i+1, got, want[i])
		}
	}
}
