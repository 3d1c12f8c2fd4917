package chase

import (
	"fmt"
	"math/rand"
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/gen"
	"keyedeq/internal/instance"
	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// This file is the wall of Tableau.Frozen, which builds a canonical
// database directly as interned rows.  Its oracle is the value-level
// build it replaced, toDatabaseOracle, frozen by
// instance.FreezeDatabase: the two must agree in the interner table,
// every row of every relation, and the value of every term.

// toDatabaseOracle is the value-level ToDatabase that Tableau.Frozen
// replaced, kept verbatim but for its nulls: every term class bound to a
// constant becomes that constant; every unbound class becomes the next
// labeled null of its type, in the order the classes resolve.  The
// returned map resolves each term to its value.  It fails on a failed
// tableau.
func toDatabaseOracle(t *Tableau) (*instance.Database, map[Term]value.Value, error) {
	if t.failed {
		return nil, nil, fmt.Errorf("chase: tableau failed; no database exists")
	}
	nulls := make(map[value.Type]int64)
	valOf := make(map[int]value.Value)
	resolve := func(id int) value.Value {
		rep := t.find(id)
		if v, ok := valOf[rep]; ok {
			return v
		}
		v, ok := t.constOf[rep]
		if !ok {
			typ := t.typeOf[rep]
			nulls[typ]++
			v = value.Value{Type: typ, Null: true, N: nulls[typ]}
		}
		valOf[rep] = v
		return v
	}
	d := instance.NewDatabase(t.Schema)
	for _, r := range t.rows {
		tup := make(instance.Tuple, len(r.cells))
		for i, c := range r.cells {
			tup[i] = resolve(int(c))
		}
		if err := d.Relations[r.rel].Insert(tup); err != nil {
			return nil, nil, err
		}
	}
	all := make(map[Term]value.Value, len(t.parent))
	for id := range t.parent {
		all[Term(id)] = resolve(id)
	}
	return d, all, nil
}

// checkCanonicalFrozen builds tb's canonical database both ways and
// reports the first difference between Tableau.Frozen and the frozen
// oracle.
func checkCanonicalFrozen(tb *Tableau) error {
	fz, vals, err := tb.Frozen()
	db, oracleVals, oracleErr := toDatabaseOracle(tb)
	if (err == nil) != (oracleErr == nil) {
		return fmt.Errorf("errors diverge: %v, oracle %v", err, oracleErr)
	}
	if err != nil {
		return nil
	}
	want := instance.FreezeDatabase(db)
	if fz.Schema != want.Schema {
		return fmt.Errorf("schema differs")
	}
	if fz.Interner.Len() != want.Interner.Len() {
		return fmt.Errorf("interner holds %d values, oracle %d", fz.Interner.Len(), want.Interner.Len())
	}
	for id := value.ID(0); int(id) < want.Interner.Len(); id++ {
		got, _ := fz.Interner.Decode(id)
		exp, _ := want.Interner.Decode(id)
		if got != exp {
			return fmt.Errorf("ID %d decodes to %v, oracle %v", id, got, exp)
		}
	}
	if len(fz.Relations) != len(want.Relations) {
		return fmt.Errorf("%d relations, oracle %d", len(fz.Relations), len(want.Relations))
	}
	for ri, fr := range fz.Relations {
		wr := want.Relations[ri]
		if fr.Scheme != wr.Scheme || fr.Arity() != wr.Arity() || fr.NumRows() != wr.NumRows() {
			return fmt.Errorf("relation %d: %d rows of arity %d, oracle %d of arity %d",
				ri, fr.NumRows(), fr.Arity(), wr.NumRows(), wr.Arity())
		}
		for i := 0; i < fr.NumRows(); i++ {
			for p := 0; p < fr.Arity(); p++ {
				if fr.Cell(i, p) != wr.Cell(i, p) {
					return fmt.Errorf("relation %d row %d: %v, oracle %v", ri, i, fr.Row(i), wr.Row(i))
				}
			}
		}
	}
	if len(vals) != len(oracleVals) {
		return fmt.Errorf("%d term values, oracle %d", len(vals), len(oracleVals))
	}
	for id, v := range vals {
		if w := oracleVals[Term(id)]; v != w {
			return fmt.Errorf("term %d has value %v, oracle %v", id, v, w)
		}
	}
	return nil
}

// freezeCanonical freezes q and its head into a fresh tableau over s and
// chases it with deps, as a canonical-database build does.
func freezeCanonical(s *schema.Schema, deps []fd.FD, q *cq.Query) (*Tableau, error) {
	tb := NewTableau(s)
	vars, err := Freeze(tb, q)
	if err != nil {
		return nil, err
	}
	if _, err := HeadTerms(tb, q, vars); err != nil {
		return nil, err
	}
	if _, err := tb.Run(deps); err != nil {
		return nil, err
	}
	return tb, nil
}

// TestCanonicalFrozenMatchesOracle builds both sides of every pair of
// every corpus family at three seeds, chased with the family's key
// dependencies, and holds Tableau.Frozen to the frozen oracle.
func TestCanonicalFrozenMatchesOracle(t *testing.T) {
	pairs := 150
	if testing.Short() {
		pairs = 20
	}
	for fi, name := range gen.FamilyNames() {
		for _, seed := range []int64{1, 2, 3} {
			rng := rand.New(rand.NewSource(seed*100 + int64(fi)))
			fam, err := gen.PairCorpus(rng, name, pairs)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range fam.Pairs {
				for _, q := range []*cq.Query{p.Left, p.Right} {
					tb, err := freezeCanonical(fam.Schema, fam.Deps, q)
					if err != nil {
						t.Fatal(err)
					}
					if err := checkCanonicalFrozen(tb); err != nil {
						t.Fatalf("%s seed %d: %s: %v", name, seed, q, err)
					}
				}
			}
		}
	}
}

// TestCanonicalFrozenHandBuiltTableaux covers tableaux no query freeze
// produces: nulls created out of row order, a null in no row, a
// constant only the head mentions, equated nulls and duplicate rows,
// before and after a key chase.  Nulls must be numbered in row order,
// not term order.
func TestCanonicalFrozenHandBuiltTableaux(t *testing.T) {
	s := schema.MustParse("R(k*:T1, a:T2)\nS(b:T2)")
	tb := NewTableau(s)
	n1, n2, n3 := tb.NewNull(1), tb.NewNull(2), tb.NewNull(2)
	lone := tb.NewNull(2)
	k := tb.NewConst(value.Value{Type: 1, N: 4})
	tb.NewConst(value.Value{Type: 2, N: 9})
	for _, r := range []struct {
		rel   string
		cells []Term
	}{{"S", []Term{n3}}, {"R", []Term{k, n3}}, {"R", []Term{k, n2}}, {"R", []Term{n1, n2}}, {"S", []Term{n3}}} {
		if err := tb.AddRow(r.rel, r.cells); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkCanonicalFrozen(tb); err != nil {
		t.Fatalf("before the chase: %v", err)
	}
	if _, err := tb.Run(fd.KeyFDs(s)); err != nil {
		t.Fatal(err)
	}
	if !tb.Same(n2, n3) || tb.Same(lone, n2) {
		t.Fatal("the key chase must equate exactly n2 and n3")
	}
	if err := checkCanonicalFrozen(tb); err != nil {
		t.Fatalf("after the chase: %v", err)
	}
}

// FuzzCanonicalFrozen holds Tableau.Frozen to the frozen oracle over
// arbitrary (schema, query) texts, chased with the schema's key
// dependencies; inputs either side rejects are skipped.
func FuzzCanonicalFrozen(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range gen.FamilyNames() {
		fam, err := gen.PairCorpus(rng, name, 3)
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range fam.Pairs {
			f.Add(fam.Schema.String(), p.Left.String())
			f.Add(fam.Schema.String(), p.Right.String())
		}
	}
	f.Fuzz(func(t *testing.T, schemaText, queryText string) {
		s, err := schema.Parse(schemaText)
		if err != nil {
			return
		}
		q, err := cq.Parse(queryText)
		if err != nil {
			return
		}
		tb, err := freezeCanonical(s, fd.KeyFDs(s), q)
		if err != nil {
			return
		}
		if err := checkCanonicalFrozen(tb); err != nil {
			t.Fatalf("%s over %q: %v", q, schemaText, err)
		}
	})
}
