package containment

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/instance"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

var graph = schema.MustParse("E(src:T1, dst:T1)")

func TestClassicChainContainment(t *testing.T) {
	// Boolean-ish (unary) path queries: a length-2 path query is
	// contained in the length-1 (edge) query's projection? Classic
	// example: q1 = nodes with an outgoing 2-path, q2 = nodes with an
	// outgoing edge; q1 ⊑ q2 but not conversely.
	q1 := cq.MustParse("V(X) :- E(X, Y), E(Y2, Z), Y = Y2.")
	q2 := cq.MustParse("V(X) :- E(X, Y).")
	ok, err := Contained(q1, q2, graph)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("2-path should be contained in 1-path")
	}
	ok, err = Contained(q2, q1, graph)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("1-path should not be contained in 2-path")
	}
}

func TestSelfLoopCollapse(t *testing.T) {
	// The canonical example: a query asking for a triangle-with-repeat
	// versus a self-loop.  q_loop(X) :- E(X, X) written in the paper's
	// syntax needs a column selection: E(X, Y), X = Y.
	qLoop := cq.MustParse("V(X) :- E(X, Y), X = Y.")
	qEdge := cq.MustParse("V(X) :- E(X, Y).")
	ok, _ := Contained(qLoop, qEdge, graph)
	if !ok {
		t.Error("self-loop query contained in edge query")
	}
	ok, _ = Contained(qEdge, qLoop, graph)
	if ok {
		t.Error("edge query not contained in self-loop query")
	}
}

func TestEquivalenceByRedundantAtom(t *testing.T) {
	// Adding an atom that folds onto an existing one preserves
	// equivalence: E(X,Y) vs E(X,Y), E(X2,Y2) with X=X2 (same atom twice).
	q1 := cq.MustParse("V(X, Y) :- E(X, Y).")
	q2 := cq.MustParse("V(X, Y) :- E(X, Y), E(A, B), X = A, Y = B.")
	ok, err := Equivalent(q1, q2, graph)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("duplicated atom should preserve equivalence")
	}
	// A genuinely extra cross-product atom does NOT preserve equivalence
	// (it can make the query empty when E is empty... but E occurs in
	// both; actually V2 ⊑ V1 and V1 ⊑ V2 here because the extra atom can
	// map anywhere).  Use a different relation to break it.
	s := schema.MustParse("E(src:T1, dst:T1)\nF(a:T1)")
	q3 := cq.MustParse("V(X, Y) :- E(X, Y), F(Z).")
	ok, err = Equivalent(q1, q3, s)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("extra F atom must break equivalence (F may be empty)")
	}
	ok, err = Contained(q3, q1, s)
	if err != nil || !ok {
		t.Error("q3 ⊑ q1 should hold")
	}
}

func TestConstantsInContainment(t *testing.T) {
	qc := cq.MustParse("V(X) :- E(X, Y), Y = T1:5.")
	q := cq.MustParse("V(X) :- E(X, Y).")
	ok, _ := Contained(qc, q, graph)
	if !ok {
		t.Error("selection narrows: qc ⊑ q")
	}
	ok, _ = Contained(q, qc, graph)
	if ok {
		t.Error("q ⊄ qc")
	}
	// Two different constants: incomparable.
	qc2 := cq.MustParse("V(X) :- E(X, Y), Y = T1:6.")
	ok, _ = Contained(qc, qc2, graph)
	if ok {
		t.Error("different constants should not be contained")
	}
	// Same constant: equivalent.
	qc3 := cq.MustParse("V(X) :- E(X, Y2), Y2 = T1:5.")
	ok, _ = Equivalent(qc, qc3, graph)
	if !ok {
		t.Error("alpha-renamed constant query should be equivalent")
	}
}

func TestHeadConstants(t *testing.T) {
	q1 := cq.MustParse("V(T1:9, X) :- E(X, Y).")
	q2 := cq.MustParse("V(T1:9, X) :- E(X, Y2).")
	ok, err := Equivalent(q1, q2, graph)
	if err != nil || !ok {
		t.Errorf("equal constant heads should be equivalent: %v %v", ok, err)
	}
	q3 := cq.MustParse("V(T1:8, X) :- E(X, Y).")
	ok, _ = Contained(q1, q3, graph)
	if ok {
		t.Error("different head constants should not be contained")
	}
}

func TestUnsatisfiableQueryContainedInEverything(t *testing.T) {
	bad := cq.MustParse("V(X) :- E(X, Y), Y = T1:1, Y = T1:2.")
	q := cq.MustParse("V(X) :- E(X, Y).")
	ok, err := Contained(bad, q, graph)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("unsatisfiable query is contained in everything")
	}
	ok, err = Contained(q, bad, graph)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("satisfiable query not contained in unsatisfiable one")
	}
}

func TestComparabilityErrors(t *testing.T) {
	q1 := cq.MustParse("V(X) :- E(X, Y).")
	q2 := cq.MustParse("V(X, Y) :- E(X, Y).")
	if _, err := Contained(q1, q2, graph); err == nil {
		t.Error("arity mismatch accepted")
	}
	s := schema.MustParse("E(src:T1, dst:T2)")
	qa := cq.MustParse("V(X) :- E(X, Y).")
	qb := cq.MustParse("V(Y) :- E(X, Y).")
	if _, err := Contained(qa, qb, s); err == nil {
		t.Error("head type mismatch accepted")
	}
	bad := cq.MustParse("V(X) :- Z(X).")
	if _, err := Contained(bad, q1, graph); err == nil {
		t.Error("invalid left query accepted")
	}
	if _, err := Contained(q1, bad, graph); err == nil {
		t.Error("invalid right query accepted")
	}
}

// TestNilQueryIsAnError checks that every entry point reports a nil
// query as an error wrapping ErrNilQuery instead of panicking.
func TestNilQueryIsAnError(t *testing.T) {
	q := cq.MustParse("V(X) :- E(X, Y).")
	for _, pair := range [][2]*cq.Query{{nil, q}, {q, nil}, {nil, nil}} {
		if err := CheckComparable(pair[0], pair[1], graph); !errors.Is(err, ErrNilQuery) {
			t.Errorf("CheckComparable(%v, %v): err %v, want ErrNilQuery", pair[0], pair[1], err)
		}
		if _, _, err := ContainedUnder(pair[0], pair[1], graph, nil); !errors.Is(err, ErrNilQuery) {
			t.Errorf("ContainedUnder(%v, %v): err %v, want ErrNilQuery", pair[0], pair[1], err)
		}
		if _, _, err := EquivalentUnder(pair[0], pair[1], graph, nil); !errors.Is(err, ErrNilQuery) {
			t.Errorf("EquivalentUnder(%v, %v): err %v, want ErrNilQuery", pair[0], pair[1], err)
		}
	}
	if err := CheckComparable(nil, q, graph); err.Error() != "containment: left query: nil query" {
		t.Errorf("nil left side: message %q", err)
	}
}

// Containment under key dependencies: the key collapses the canonical
// database, enabling containments that fail without dependencies.
func TestContainmentUnderKeys(t *testing.T) {
	s := schema.MustParse("R(k*:T1, a:T1)")
	deps := fd.KeyFDs(s)
	// q1: two R atoms sharing the key — under the key dependency the
	// a-columns coincide, so q1 ≡ the single-atom query under keys.
	q1 := cq.MustParse("V(K, A, B) :- R(K, A), R(K2, B), K = K2.")
	q2 := cq.MustParse("V(K, A, A) :- R(K, A).")
	ok, _, err := ContainedUnder(q1, q2, s, deps)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("under the key, shared-key atoms force equal a-columns")
	}
	// Without the dependency this containment must fail.
	ok, err = Contained(q1, q2, s)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("without keys the containment should fail")
	}
	// And the other direction holds unconditionally.
	ok, err = Contained(q2, q1, s)
	if err != nil || !ok {
		t.Errorf("reverse direction should hold: %v %v", ok, err)
	}
	okBoth, _, err := EquivalentUnder(q1, q2, s, deps)
	if err != nil || !okBoth {
		t.Errorf("queries should be equivalent under keys: %v %v", okBoth, err)
	}
}

func TestChaseFailureMeansContained(t *testing.T) {
	s := schema.MustParse("R(k*:T1, a:T1)")
	deps := fd.KeyFDs(s)
	// Same key, a-columns bound to different constants: no
	// key-satisfying instance matches; the query is vacuously contained.
	q := cq.MustParse("V(K) :- R(K, A), R(K2, B), K = K2, A = T1:1, B = T1:2.")
	other := cq.MustParse("V(K) :- R(K, A).")
	ok, stats, err := ContainedUnder(q, other, s, deps)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || !stats.ChaseFailed {
		t.Errorf("vacuous containment expected: ok=%v failed=%v", ok, stats.ChaseFailed)
	}
}

// Soundness fuzz: whenever Contained says yes, random instances must
// agree; whenever it says no, search small instances for a witness
// (not guaranteed to find one, so only the yes-direction is checked
// strictly).
func TestContainmentSoundnessFuzz(t *testing.T) {
	s := schema.MustParse("E(src:T1, dst:T1)")
	rng := rand.New(rand.NewSource(31))
	pool := []*cq.Query{
		cq.MustParse("V(X) :- E(X, Y)."),
		cq.MustParse("V(X) :- E(X, Y), E(Y2, Z), Y = Y2."),
		cq.MustParse("V(X) :- E(X, Y), X = Y."),
		cq.MustParse("V(Y) :- E(X, Y)."),
		cq.MustParse("V(X) :- E(X, Y), E(A, B), Y = A, B = X."),
		cq.MustParse("V(X) :- E(X, Y), Y = T1:2."),
	}
	for i, q1 := range pool {
		for j, q2 := range pool {
			claim, err := Contained(q1, q2, s)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 30; trial++ {
				d := instance.NewDatabase(s)
				n := rng.Intn(5)
				for k := 0; k < n; k++ {
					d.MustInsert("E",
						value.Value{Type: 1, N: int64(rng.Intn(3) + 1)},
						value.Value{Type: 1, N: int64(rng.Intn(3) + 1)})
				}
				a1, _ := cq.Eval(q1, d)
				a2, _ := cq.Eval(q2, d)
				if claim && !a1.SubsetOf(a2) {
					t.Fatalf("pool[%d] ⊑ pool[%d] claimed but instance refutes:\n%s\n%s on %s",
						i, j, a1, a2, d)
				}
				if !claim && a1.SubsetOf(a2) {
					continue // not a witness; fine
				}
			}
		}
	}
}

func TestMinimizePaperStyle(t *testing.T) {
	// The saturated 3-copy query minimizes to a single atom.
	q := cq.MustParse("Q(X, Y) :- E(X, Y), E(A, B), E(C, D), X = A, X = C, Y = B, Y = D.")
	m, err := Minimize(q, graph, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Body) != 1 {
		t.Errorf("Minimize left %d atoms: %s", len(m.Body), m)
	}
	ok, _ := Equivalent(q, m, graph)
	if !ok {
		t.Error("minimized query not equivalent to original")
	}
}

// TestMinimizePrintsDeterministically minimizes one query 200 times:
// the surviving classes' equality chains must come out in one order,
// the classes' first appearance in the body.
func TestMinimizePrintsDeterministically(t *testing.T) {
	s := schema.MustParse("R(a:T1, b:T1, c:T1)")
	q := cq.MustParse("V(A) :- R(A, B, C), R(D, E, F), R(G, H, I), B = D, C = E, G = A, H = B, I = C.")
	const want = "V(G) :- R(D, E, F), R(G, H, I), D = H, E = I."
	for i := 0; i < 200; i++ {
		m, err := Minimize(q, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.String(); got != want {
			t.Fatalf("run %d: Minimize printed %s, want %s", i, got, want)
		}
	}
}

func TestMinimizeKeepsCore(t *testing.T) {
	// 2-path query is already minimal.
	q := cq.MustParse("V(X) :- E(X, Y), E(Y2, Z), Y = Y2.")
	m, err := Minimize(q, graph, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Body) != 2 {
		t.Errorf("2-path minimized to %d atoms: %s", len(m.Body), m)
	}
}

func TestMinimizeFoldableTail(t *testing.T) {
	// V(X) :- E(X,Y), E(X2,Z), X=X2: second atom folds onto the first.
	q := cq.MustParse("V(X) :- E(X, Y), E(X2, Z), X = X2.")
	m, err := Minimize(q, graph, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Body) != 1 {
		t.Errorf("foldable atom not removed: %s", m)
	}
}

func TestMinimizeUnderKeys(t *testing.T) {
	s := schema.MustParse("R(k*:T1, a:T1)")
	deps := fd.KeyFDs(s)
	// Under the key, R(K,A), R(K,B) is one atom; without it, the query
	// head (K, A, B) needs... A and B are equated only under the key.
	q := cq.MustParse("V(K, A) :- R(K, A), R(K2, B), K = K2.")
	m, err := Minimize(q, s, deps)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Body) != 1 {
		t.Errorf("key-based minimization failed: %s", m)
	}
	// Without dependencies the second atom is ALSO removable here
	// because B is projected away.  Keep a case where it is not:
	q2 := cq.MustParse("V(K, A, B) :- R(K, A), R(K2, B), K = K2.")
	m2, err := Minimize(q2, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Body) != 2 {
		t.Errorf("without keys both atoms are needed: %s", m2)
	}
	m3, err := Minimize(q2, s, deps)
	if err != nil {
		t.Fatal(err)
	}
	if len(m3.Body) != 1 {
		t.Errorf("under keys one atom suffices: %s", m3)
	}
}

func TestMinimizePreservesSingleAtom(t *testing.T) {
	q := cq.MustParse("V(X, Y) :- E(X, Y).")
	m, err := Minimize(q, graph, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Body) != 1 {
		t.Errorf("single atom changed: %s", m)
	}
}

func TestMinimizeSemanticsFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	queries := []*cq.Query{
		cq.MustParse("Q(X, Y) :- E(X, Y), E(A, B), X = A, Y = B."),
		cq.MustParse("V(X) :- E(X, Y), E(X2, Z), X = X2."),
		cq.MustParse("V(X) :- E(X, Y), E(Y2, Z), Y = Y2."),
	}
	for _, q := range queries {
		m, err := Minimize(q, graph, nil)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 40; trial++ {
			d := instance.NewDatabase(graph)
			for k := 0; k < rng.Intn(6); k++ {
				d.MustInsert("E",
					value.Value{Type: 1, N: int64(rng.Intn(3) + 1)},
					value.Value{Type: 1, N: int64(rng.Intn(3) + 1)})
			}
			a1, _ := cq.Eval(q, d)
			a2, _ := cq.Eval(m, d)
			if !a1.Equal(a2) {
				t.Fatalf("Minimize changed semantics of %s -> %s on %s:\n%s vs %s", q, m, d, a1, a2)
			}
		}
	}
}

// wideRel writes R(<prefix>0, ..., <prefix>257), one atom of the
// 258-column relation below.
func wideRel(sb *strings.Builder, prefix string) {
	sb.WriteString("R(")
	for p := 0; p < 258; p++ {
		if p > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(sb, "%s%d", prefix, p)
	}
	sb.WriteString(")")
}

// TestContainedWideRelationMatchesNaive decides containment over a
// 258-column relation whose witness needs hash indexes on positions 1
// and 257, 256 apart.  q1 chains 64 atoms c2 → c1, with atom 5's c257
// equal to atom 1's c2; q2 asks for A, then B with B.c1 = A.c2, then C
// with C.c257 = B.c2.  Atoms 0, 1 and 5 of q1 are the witness.
func TestContainedWideRelationMatchesNaive(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("R(")
	for p := 0; p < 258; p++ {
		if p > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "c%d:T1", p)
	}
	sb.WriteString(")")
	s := schema.MustParse(sb.String())

	sb.Reset()
	sb.WriteString("V() :- ")
	for i := 0; i < 64; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		wideRel(&sb, fmt.Sprintf("X%d_", i))
	}
	for i := 1; i < 64; i++ {
		fmt.Fprintf(&sb, ", X%d_1 = X%d_2", i, i-1)
	}
	sb.WriteString(", X5_257 = X1_2.")
	q1 := cq.MustParse(sb.String())

	sb.Reset()
	sb.WriteString("V() :- ")
	wideRel(&sb, "A")
	sb.WriteString(", ")
	wideRel(&sb, "B")
	sb.WriteString(", ")
	wideRel(&sb, "C")
	sb.WriteString(", B1 = A2, C257 = B2.")
	q2 := cq.MustParse(sb.String())

	naive, _, err := ContainedUnderMode(q1, q2, s, nil, cq.SearchNaive)
	if err != nil {
		t.Fatal(err)
	}
	if !naive {
		t.Fatal("naive: q1 not contained in q2, want contained")
	}
	got, err := Contained(q1, q2, s)
	if err != nil {
		t.Fatal(err)
	}
	if got != naive {
		t.Fatalf("adaptive Contained = %v, naive = %v", got, naive)
	}
}
