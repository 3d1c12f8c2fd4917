package instance

import (
	"testing"

	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

func frozenFixture(t *testing.T) *Database {
	t.Helper()
	s := schema.MustParse("R(a*:T1, b:T2)\nS(c:T3)")
	d := NewDatabase(s)
	d.MustInsert("R", value.Value{Type: 1, N: 2}, value.Value{Type: 2, N: 7})
	d.MustInsert("R", value.Value{Type: 1, N: 1}, value.Value{Type: 2, N: 7})
	d.MustInsert("S", value.Value{Type: 3, N: 4})
	return d
}

func TestFreezeDatabaseRowsMatchSortedTuples(t *testing.T) {
	d := frozenFixture(t)
	f := d.Frozen()
	for ri, r := range d.Relations {
		fr := f.Relations[ri]
		tuples := r.Tuples()
		if fr.NumRows() != len(tuples) {
			t.Fatalf("relation %d: %d frozen rows, %d tuples", ri, fr.NumRows(), len(tuples))
		}
		for i, tup := range tuples {
			if fr.Arity() != len(tup) {
				t.Fatalf("relation %d: arity %d, tuple width %d", ri, fr.Arity(), len(tup))
			}
			got := f.DecodeTuple(ri, i)
			if !got.Equal(tup) {
				t.Fatalf("relation %d row %d decodes to %v, want %v", ri, i, got, tup)
			}
			row := fr.Row(i)
			for p, id := range row {
				if fr.Cell(i, p) != id {
					t.Fatalf("Row/Cell disagree at %d,%d", i, p)
				}
			}
		}
	}
}

func TestFrozenMemoizedUntilMutation(t *testing.T) {
	d := frozenFixture(t)
	f1 := d.Frozen()
	if f2 := d.Frozen(); f2 != f1 {
		t.Fatal("Frozen rebuilt without a mutation")
	}
	d.MustInsert("S", value.Value{Type: 3, N: 9})
	f3 := d.Frozen()
	if f3 == f1 {
		t.Fatal("Frozen not rebuilt after an insert")
	}
	if f3.Relations[1].NumRows() != 2 {
		t.Fatalf("rebuilt view has %d S rows, want 2", f3.Relations[1].NumRows())
	}
	d.Relation("S").Delete(Tuple{value.Value{Type: 3, N: 9}})
	f4 := d.Frozen()
	if f4 == f3 {
		t.Fatal("Frozen not rebuilt after a delete")
	}
	if f4.Relations[1].NumRows() != 1 {
		t.Fatalf("view after delete has %d S rows, want 1", f4.Relations[1].NumRows())
	}
}

func TestFreezeDatabaseDeterministicIDTables(t *testing.T) {
	// Two independent freezes of equal databases (built in different
	// insertion orders) must assign identical ID tables: interning
	// follows the sorted tuple order, not insertion order.
	s := schema.MustParse("R(a*:T1, b:T2)")
	d1 := NewDatabase(s)
	d2 := NewDatabase(s)
	rows := []Tuple{
		{value.Value{Type: 1, N: 3}, value.Value{Type: 2, N: 1}},
		{value.Value{Type: 1, N: 1}, value.Value{Type: 2, N: 2}},
		{value.Value{Type: 1, N: 2}, value.Value{Type: 2, N: 1}},
	}
	for _, tup := range rows {
		d1.Relation("R").MustInsert(tup)
	}
	for i := len(rows) - 1; i >= 0; i-- {
		d2.Relation("R").MustInsert(rows[i])
	}
	f1, f2 := FreezeDatabase(d1), FreezeDatabase(d2)
	if f1.Interner.Len() != f2.Interner.Len() {
		t.Fatalf("interner sizes differ: %d vs %d", f1.Interner.Len(), f2.Interner.Len())
	}
	for id := 0; id < f1.Interner.Len(); id++ {
		v1, _ := f1.Interner.Decode(value.ID(id))
		v2, _ := f2.Interner.Decode(value.ID(id))
		if v1 != v2 {
			t.Fatalf("ID %d decodes to %v vs %v", id, v1, v2)
		}
	}
	fr1, fr2 := f1.Relations[0], f2.Relations[0]
	if fr1.NumRows() != fr2.NumRows() {
		t.Fatalf("row counts differ: %d vs %d", fr1.NumRows(), fr2.NumRows())
	}
	for i := 0; i < fr1.NumRows(); i++ {
		for p := 0; p < fr1.Arity(); p++ {
			if fr1.Cell(i, p) != fr2.Cell(i, p) {
				t.Fatalf("cell %d,%d differs: %d vs %d", i, p, fr1.Cell(i, p), fr2.Cell(i, p))
			}
		}
	}
}

func TestNewFrozenRelationBulkLoad(t *testing.T) {
	s := schema.MustParse("R(a*:T1, b:T2)")
	var in value.Interner
	rows := []value.ID{
		in.Intern(value.Value{Type: 1, N: 1}), in.Intern(value.Value{Type: 2, N: 5}),
		in.Intern(value.Value{Type: 1, N: 2}), in.Intern(value.Value{Type: 2, N: 5}),
	}
	fr := NewFrozenRelation(s.Relations[0], rows)
	if fr.NumRows() != 2 || fr.Arity() != 2 {
		t.Fatalf("NumRows=%d Arity=%d, want 2,2", fr.NumRows(), fr.Arity())
	}
	if fr.Cell(1, 1) != fr.Cell(0, 1) {
		t.Fatal("shared value interned to distinct IDs")
	}
}
