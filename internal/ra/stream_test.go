package ra

import (
	"math/rand"
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/instance"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// Differential tests for the streaming evaluator: drain (the iterator
// tree) must produce exactly the rows of evalMaterialize, in the same
// order, on every operator shape.

// randomExprDB compiles a random conjunctive query over a binary edge
// relation and builds a random database for it.
func randomExprDB(t *testing.T, rng *rand.Rand, gs *schema.Schema) (Expr, *instance.Database) {
	t.Helper()
	n := 1 + rng.Intn(4)
	q := &cq.Query{}
	var prev cq.Var
	for i := 0; i < n; i++ {
		a := cq.Atom{Rel: "E", Vars: []cq.Var{
			cq.Var("x" + string(rune('0'+i))),
			cq.Var("y" + string(rune('0'+i))),
		}}
		q.Body = append(q.Body, a)
		if i > 0 && rng.Intn(2) == 0 {
			q.Eqs = append(q.Eqs, cq.Equality{Left: prev, Right: cq.Term{Var: a.Vars[0]}})
		}
		prev = a.Vars[1]
	}
	q.Head = []cq.Term{{Var: q.Body[0].Vars[0]}, {Var: prev}}
	if rng.Intn(3) == 0 {
		q.Eqs = append(q.Eqs, cq.Equality{Left: prev, Right: cq.C(value.Value{Type: 1, N: 1})})
	}
	e, err := FromCQ(q, gs)
	if err != nil {
		t.Fatal(err)
	}
	d := instance.NewDatabase(gs)
	for j := 0; j < rng.Intn(12); j++ {
		d.MustInsert("E",
			value.Value{Type: 1, N: int64(rng.Intn(4) + 1)},
			value.Value{Type: 1, N: int64(rng.Intn(4) + 1)})
	}
	return e, d
}

func sameRows(t *testing.T, tag string, got, want []instance.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d width %d, want %d", tag, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: row %d differs: %v vs %v", tag, i, got[i], want[i])
			}
		}
	}
}

// TestStreamMatchesMaterializeFuzz replays random expressions — plain
// and optimized (so joins, not just products, are exercised) — through
// both evaluators, demanding identical rows in identical order.
func TestStreamMatchesMaterializeFuzz(t *testing.T) {
	gs := schema.MustParse("E(x:T1, y:T1)")
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 150; trial++ {
		e, d := randomExprDB(t, rng, gs)
		opt, err := Optimize(e, gs)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []Expr{e, opt} {
			want, err := evalMaterialize(x, d)
			if err != nil {
				t.Fatal(err)
			}
			got, err := drain(x, d)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, x.String(), got, want)
		}
	}
}

// TestStreamOperatorEdges pins the per-operator edges the fuzz can
// miss: empty inputs, empty join buckets, constant projections, and
// unknown relations.
func TestStreamOperatorEdges(t *testing.T) {
	gs := schema.MustParse("E(x:T1, y:T1)")
	empty := instance.NewDatabase(gs)

	if _, err := drain(&Rel{Name: "missing"}, empty); err == nil {
		t.Fatal("unknown relation must fail to open")
	}
	if _, err := drain(&Project{E: &Rel{Name: "missing"}}, empty); err == nil {
		t.Fatal("unknown relation under an operator must fail to open")
	}
	if _, err := drain(&Join{L: &Rel{Name: "E"}, R: &Rel{Name: "missing"}}, empty); err == nil {
		t.Fatal("unknown build side must fail to open")
	}
	if _, err := drain(&Product{L: &Rel{Name: "E"}, R: &Rel{Name: "missing"}}, empty); err == nil {
		t.Fatal("unknown product side must fail to open")
	}
	if _, err := drain(&SelectEq{E: &Rel{Name: "missing"}, Left: 0, Right: 1}, empty); err == nil {
		t.Fatal("unknown selection input must fail to open")
	}
	if rows, err := drain(&Join{L: &Rel{Name: "E"}, R: &Rel{Name: "E"}, LCol: 1, RCol: 0}, empty); err != nil || len(rows) != 0 {
		t.Fatalf("empty join: rows %v, err %v", rows, err)
	}
	if _, err := drain(struct{ Expr }{}, empty); err == nil {
		t.Fatal("unknown expression kind must fail to open")
	}

	d := instance.NewDatabase(gs)
	d.MustInsert("E", value.Value{Type: 1, N: 1}, value.Value{Type: 1, N: 2})
	d.MustInsert("E", value.Value{Type: 1, N: 2}, value.Value{Type: 1, N: 3})
	// Join where only one left row has a matching bucket.
	j := &Join{L: &Rel{Name: "E"}, R: &Rel{Name: "E"}, LCol: 1, RCol: 0}
	rows, err := drain(j, d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := evalMaterialize(j, d)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "sparse join", rows, want)

	// Constant projection over a product.
	p := &Project{
		E:    &Product{L: &Rel{Name: "E"}, R: &Rel{Name: "E"}},
		Cols: []ProjCol{Const(value.Value{Type: 1, N: 9}), Col(3)},
	}
	rows, err = drain(p, d)
	if err != nil {
		t.Fatal(err)
	}
	want, err = evalMaterialize(p, d)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "const projection", rows, want)
}
