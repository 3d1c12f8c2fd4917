package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/gen"
)

// These tests hold the canonizer's kernel — the ordered-partition
// refinement and the incremental encoder — to the kernel it replaced,
// kept in canon_oracle_test.go: the same key, the same Exact flag and
// the colors in the same order, on every query.

// kernelOf canonicalizes q with c, a canonizer reused across calls so
// stale scratch would show, and returns the key, the Exact flag and
// the final colors (nil for an unsatisfiable query).
func kernelOf(c *canonizer, q *cq.Query) (string, bool, []int) {
	c.comp.Reset(q)
	if c.comp.Unsat {
		return "", true, nil
	}
	c.reset(q)
	c.refine()
	key, exact := c.encode()
	return key, exact, c.color
}

// denseRanks returns each color's rank among the distinct colors.
func denseRanks(colors []int) []int {
	distinct := slices.Clone(colors)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	out := make([]int, len(colors))
	for i, c := range colors {
		out[i], _ = slices.BinarySearch(distinct, c)
	}
	return out
}

// checkKernel requires c's kernel to agree with the oracle's on q.
func checkKernel(t *testing.T, c *canonizer, q *cq.Query) {
	t.Helper()
	key, exact, colors := kernelOf(c, q)
	okey, oexact, ocolors := oracleCanonicalize(q)
	if key != okey || exact != oexact {
		t.Fatalf("%s:\n  kernel key %q exact %v\n  oracle key %q exact %v", q, key, exact, okey, oexact)
	}
	if got := denseRanks(colors); !slices.Equal(got, ocolors) {
		t.Fatalf("%s:\n  kernel colors %v (ranks %v)\n  oracle colors %v", q, colors, got, ocolors)
	}
}

// kernelShapes are hand-built queries for the kernel wall: stars,
// cliques and chains refinement splits at once or in many rounds,
// literal duplicate atoms, symmetric shapes that branch the tie-break
// search or exhaust its budget, constants, a repeated head, and atoms
// whose order a later round reverses.
func kernelShapes() []*cq.Query {
	var out []*cq.Query
	for n := 1; n <= 8; n++ {
		out = append(out, gen.StarQuery(n))
	}
	for n := 2; n <= 6; n++ {
		out = append(out, gen.CliqueQuery(n))
	}
	for _, text := range []string{
		"V(X) :- E(X, Y), E(X2, Y2), X = X2, Y = Y2.",
		"V(X) :- E(X, Y), E(X2, Y2), E(X3, Y3), X = X2, X2 = X3, Y = Y2, Y2 = Y3.",
		"V() :- E(X, Y), E(X2, Y2), E(X3, Y3), X = X2, X2 = X3, Y = Y2, Y2 = Y3.",
		"V(X) :- E(X, A), E(X2, B), E(X3, C), E(X4, D), X = X2, X = X3, X = X4.",
		"V() :- E(X, Y), E(Y2, X2), X = X2, Y = Y2.",
		"V(X, X) :- E(X, Y), X = Y.",
		"V(X) :- E(X, Y), E(Y2, Z), Y = Y2, Z = T1:5, X = T1:5.",
		"V(T1:7, Y) :- E(X, Y), E(Y2, Z), Y = Y2.",
		disjointCycles(3, 3),
		disjointCycles(6, 3),
		disjointCycles(5, 4),
		disjointCycles(4, 5),
		disjointCycles(8, 2),
		atomOrderReversal,
		randomAtomOrderReversal,
	} {
		out = append(out, cq.MustParse(text))
	}
	return out
}

// atomOrderReversal has two atoms whose order a later split reverses:
// S(D) < T(C) first puts the A atom with D below the one with C, so
// their X and Y below, and the Z1/Z2 split then orders the two copies'
// X and Y the other way.  A kernel that kept the atoms' first order
// numbers U and W the other way round.
const atomOrderReversal = "V() :- " +
	"A(C1, X1), A(D1, Y1), B(X1b, P1, U1), B(Y1b, Q1, W1), P(P1b, K1), Q(Q1b, K1b), G(K1c, L1), S(D1b), T(C1b), " +
	"A(C2, X2), A(D2, Y2), B(X2b, P2, W2), B(Y2b, Q2, U2), P(P2b, K2), Q(Q2b, K2b), G(K2c, L2), S(D2b), T(C2b), " +
	"Z1(L1b), Z2(L2b), AM(H, U), AM(Hb, W), " +
	"X1 = X1b, Y1 = Y1b, P1 = P1b, Q1 = Q1b, K1 = K1b, K1 = K1c, D1 = D1b, C1 = C1b, " +
	"X2 = X2b, Y2 = Y2b, P2 = P2b, Q2 = Q2b, K2 = K2b, K2 = K2c, D2 = D2b, C2 = C2b, " +
	"L1 = L1b, L2 = L2b, H = Hb, U = U1, U = U2, W = W1, W = W2."

// randomAtomOrderReversal is a random digraph, 27 edges on 22 nodes,
// whose edges change order between refinement rounds: a kernel that
// kept the edges' first order reached the key, but not the colors.
const randomAtomOrderReversal = "V() :- " +
	"E(V0, V1), E(V2, V3), E(V4, V5), E(V6, V7), E(V8, V9), E(V10, V11), E(V12, V13), " +
	"E(V14, V15), E(V16, V17), E(V18, V19), E(V20, V21), E(V22, V23), E(V24, V25), E(V26, V27), " +
	"E(V28, V29), E(V30, V31), E(V32, V33), E(V34, V35), E(V36, V37), E(V38, V39), E(V40, V41), " +
	"E(V42, V43), E(V44, V45), E(V46, V47), E(V48, V49), E(V50, V51), E(V52, V53), " +
	"V2 = V7, V11 = V15, V8 = V20, V5 = V22, V18 = V23, V11 = V24, V14 = V25, V6 = V26, " +
	"V0 = V27, V17 = V28, V12 = V30, V14 = V31, V4 = V32, V3 = V33, V16 = V34, V18 = V35, " +
	"V17 = V36, V11 = V38, V19 = V39, V1 = V40, V5 = V41, V5 = V42, V6 = V43, V3 = V44, " +
	"V9 = V45, V18 = V46, V19 = V47, V17 = V48, V2 = V49, V14 = V51, V37 = V52, V10 = V53."

// TestCanonicalKernelMatchesOracle is the kernel's wall: both sides of
// 150 pairs of every gen family at three seeds, ChainQuery(1…64) and
// ChainQuery(512), the golden inputs and the hand-built shapes, all
// through one canonizer.
func TestCanonicalKernelMatchesOracle(t *testing.T) {
	c := new(canonizer)
	for _, seed := range []int64{11, 23, 37} {
		for fi, name := range gen.FamilyNames() {
			f, err := gen.PairCorpus(rand.New(rand.NewSource(seed+int64(fi))), name, 150)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range f.Pairs {
				checkKernel(t, c, p.Left)
				checkKernel(t, c, p.Right)
			}
		}
	}
	for n := 1; n <= 64; n++ {
		checkKernel(t, c, gen.ChainQuery(n))
	}
	checkKernel(t, c, gen.ChainQuery(512))
	for _, g := range goldenQueries(t) {
		checkKernel(t, c, g.q)
	}
	for _, q := range kernelShapes() {
		checkKernel(t, c, q)
	}
	// The budget-exhausting shapes must really run out, or the wall
	// never compares the greedy completion.
	if _, exact, _ := kernelOf(c, cq.MustParse(disjointCycles(6, 3))); exact {
		t.Fatal("premise: six disjoint triangles no longer exhaust the tie-break budget")
	}
}

// FuzzCanonicalKernel runs the kernel wall over arbitrary .cq text:
// every query the parser accepts must get the oracle's key, Exact flag
// and color order, through one canonizer per input reused for a
// chain first, so stale scratch would show.
func FuzzCanonicalKernel(f *testing.F) {
	for _, s := range []string{
		"Q(X, Y) :- P(X, Y).",
		"Q(X) :- R(X, Y), S(Z, W), Y = Z, W = T1:3.",
		"Q(T1:7, Y) :- P(X, Y).",
		"V(X, X) :- P(X, Y), X = Y.",
		"V(X) :- E(X, Y), E(X2, Y2), X = X2, Y = Y2.",
		"V(X) :- E(X, Y), Y = T1:1, Y = T1:2.",
		"V(A) :- E(A, B), E(C, D), E(E2, F), B = C, D = E2.",
		"V(X0) :- E(X0, Y0), E(X1, Y1), E(X2, Y2), X0 = X1, X1 = X2.",
		disjointCycles(3, 3),
		atomOrderReversal,
		randomAtomOrderReversal,
		fmt.Sprint(gen.CliqueQuery(4)),
		fmt.Sprint(gen.StarQuery(5)),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		q, err := cq.Parse(text)
		if err != nil {
			return
		}
		c := new(canonizer)
		checkKernel(t, c, gen.ChainQuery(6))
		checkKernel(t, c, q)
	})
}
