package instance

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

func v(t value.Type, n int64) value.Value { return value.Value{Type: t, N: n} }

func TestTupleBasics(t *testing.T) {
	a := Tuple{v(1, 1), v(2, 5)}
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not equal")
	}
	b[0] = v(1, 9)
	if a.Equal(b) {
		t.Error("clone shares storage")
	}
	if a.Compare(b) >= 0 {
		t.Error("compare wrong")
	}
	if a.Compare(a) != 0 {
		t.Error("self compare nonzero")
	}
	short := Tuple{v(1, 1)}
	if short.Compare(a) >= 0 || a.Compare(short) <= 0 {
		t.Error("length tie-break wrong")
	}
	p := a.Project([]int{1, 0})
	if p[0] != v(2, 5) || p[1] != v(1, 1) {
		t.Errorf("Project = %v", p)
	}
	if a.String() != "(T1:1, T2:5)" {
		t.Errorf("String = %q", a.String())
	}
}

func TestRelationInsertValidation(t *testing.T) {
	rs, _ := schema.ParseRelation("r(a*:T1, b:T2)")
	r := NewRelation(rs)
	if err := r.Insert(Tuple{v(1, 1), v(2, 1)}); err != nil {
		t.Fatalf("valid insert failed: %v", err)
	}
	if err := r.Insert(Tuple{v(1, 1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := r.Insert(Tuple{v(2, 1), v(2, 1)}); err == nil {
		t.Error("type mismatch accepted")
	}
	// Set semantics: duplicate insert keeps Len at 1.
	r.MustInsert(Tuple{v(1, 1), v(2, 1)})
	if r.Len() != 1 {
		t.Errorf("Len = %d after duplicate insert", r.Len())
	}
	if !r.Has(Tuple{v(1, 1), v(2, 1)}) {
		t.Error("Has false for present tuple")
	}
	r.Delete(Tuple{v(1, 1), v(2, 1)})
	if r.Len() != 0 {
		t.Error("Delete failed")
	}
}

func TestRelationSetOps(t *testing.T) {
	rs, _ := schema.ParseRelation("r(a:T1)")
	a := NewRelation(rs)
	b := NewRelation(rs)
	a.MustInsert(Tuple{v(1, 1)})
	a.MustInsert(Tuple{v(1, 2)})
	b.MustInsert(Tuple{v(1, 1)})
	if a.Equal(b) || !b.SubsetOf(a) || a.SubsetOf(b) {
		t.Error("set ops wrong")
	}
	b.MustInsert(Tuple{v(1, 2)})
	if !a.Equal(b) || !a.SubsetOf(b) {
		t.Error("equality wrong")
	}
	c := a.Clone()
	c.MustInsert(Tuple{v(1, 3)})
	if a.Len() != 2 {
		t.Error("Clone shares tuples")
	}
}

func TestTuplesDeterministicOrder(t *testing.T) {
	rs, _ := schema.ParseRelation("r(a:T1, b:T2)")
	r := NewRelation(rs)
	r.MustInsert(Tuple{v(1, 2), v(2, 1)})
	r.MustInsert(Tuple{v(1, 1), v(2, 9)})
	r.MustInsert(Tuple{v(1, 1), v(2, 2)})
	// The null T1:_2 is not the constant T1:2: the relation keeps both
	// tuples, the constant's first.
	r.MustInsert(Tuple{{Type: 1, Null: true, N: 2}, v(2, 1)})
	ts := r.Tuples()
	for i := 1; i < len(ts); i++ {
		if ts[i-1].Compare(ts[i]) >= 0 {
			t.Fatalf("Tuples not sorted: %v", ts)
		}
	}
	if len(ts) != 4 || ts[2].String() != "(T1:2, T2:1)" || ts[3].String() != "(T1:_2, T2:1)" {
		t.Fatalf("Tuples = %v, want the constant's tuple before the null's", ts)
	}
}

func TestSatisfiesKey(t *testing.T) {
	rs, _ := schema.ParseRelation("r(a*:T1, b:T2)")
	r := NewRelation(rs)
	r.MustInsert(Tuple{v(1, 1), v(2, 1)})
	r.MustInsert(Tuple{v(1, 2), v(2, 1)})
	if !r.SatisfiesKey() {
		t.Error("distinct keys reported as violation")
	}
	r.MustInsert(Tuple{v(1, 1), v(2, 2)})
	if r.SatisfiesKey() {
		t.Error("key violation missed")
	}
	// Unkeyed scheme is vacuously fine.
	us, _ := schema.ParseRelation("u(a:T1, b:T2)")
	u := NewRelation(us)
	u.MustInsert(Tuple{v(1, 1), v(2, 1)})
	u.MustInsert(Tuple{v(1, 1), v(2, 2)})
	if !u.SatisfiesKey() {
		t.Error("unkeyed scheme reported violation")
	}
}

func TestSatisfiesFD(t *testing.T) {
	rs, _ := schema.ParseRelation("r(a:T1, b:T2, c:T3)")
	r := NewRelation(rs)
	r.MustInsert(Tuple{v(1, 1), v(2, 1), v(3, 1)})
	r.MustInsert(Tuple{v(1, 1), v(2, 1), v(3, 1)})
	r.MustInsert(Tuple{v(1, 2), v(2, 1), v(3, 2)})
	if !r.SatisfiesFD([]int{0}, []int{1, 2}) {
		t.Error("a->bc should hold")
	}
	if r.SatisfiesFD([]int{1}, []int{2}) {
		t.Error("b->c should fail")
	}
	if !r.SatisfiesFD([]int{1}, []int{1}) {
		t.Error("b->b must always hold")
	}
	if !r.SatisfiesFD([]int{0, 1}, []int{2}) {
		t.Error("ab->c should hold")
	}
}

func TestDatabaseBasics(t *testing.T) {
	s := schema.MustParse("r(a*:T1, b:T2)\ns(c*:T3)")
	d := NewDatabase(s)
	d.MustInsert("r", v(1, 1), v(2, 1))
	d.MustInsert("s", v(3, 1))
	if d.Size() != 2 {
		t.Errorf("Size = %d", d.Size())
	}
	if !d.NonEmpty() {
		t.Error("NonEmpty false")
	}
	if !d.SatisfiesKeys() {
		t.Error("SatisfiesKeys false")
	}
	if err := d.Insert("zz", Tuple{v(1, 1)}); err == nil {
		t.Error("insert into missing relation accepted")
	}
	e := d.Clone()
	if !d.Equal(e) {
		t.Error("clone not equal")
	}
	e.MustInsert("s", v(3, 2))
	if d.Equal(e) {
		t.Error("Equal after divergence")
	}
	d.MustInsert("r", v(1, 1), v(2, 2))
	if d.SatisfiesKeys() {
		t.Error("key violation missed at database level")
	}
}

func TestActiveDomain(t *testing.T) {
	s := schema.MustParse("r(a:T1, b:T2)")
	d := NewDatabase(s)
	d.MustInsert("r", v(1, 1), v(2, 7))
	d.MustInsert("r", v(1, 2), v(2, 7))
	ad := d.ActiveDomain()
	if ad.Len() != 3 {
		t.Errorf("ActiveDomain size = %d, want 3", ad.Len())
	}
}

func TestAttributeSpecific(t *testing.T) {
	s := schema.MustParse("r(a:T1, b:T1)\ns(c:T1)")
	d := NewDatabase(s)
	d.MustInsert("r", v(1, 1), v(1, 2))
	d.MustInsert("s", v(1, 3))
	if !d.AttributeSpecific() {
		t.Error("disjoint columns reported non-specific")
	}
	// Same value in r.a and s.c: not attribute-specific.
	d.MustInsert("s", v(1, 1))
	if d.AttributeSpecific() {
		t.Error("shared value missed")
	}
	// Two columns of the same relation sharing a value also violate.
	d2 := NewDatabase(s)
	d2.MustInsert("r", v(1, 5), v(1, 5))
	if d2.AttributeSpecific() {
		t.Error("intra-relation sharing missed")
	}
}

func TestProjectKappa(t *testing.T) {
	s := schema.MustParse("r(a*:T1, b:T2)\ns(c*:T3, d*:T4, e:T5)")
	k, pos := schema.Kappa(s)
	d := NewDatabase(s)
	d.MustInsert("r", v(1, 1), v(2, 1))
	d.MustInsert("r", v(1, 2), v(2, 1))
	d.MustInsert("s", v(3, 1), v(4, 1), v(5, 1))
	kd := ProjectKappa(d, k, pos)
	if kd.Relation("r").Len() != 2 {
		t.Errorf("kappa r has %d tuples", kd.Relation("r").Len())
	}
	if kd.Relation("s").Len() != 1 {
		t.Errorf("kappa s has %d tuples", kd.Relation("s").Len())
	}
	kt := kd.Relation("s").Tuples()[0]
	if len(kt) != 2 || kt[0] != v(3, 1) || kt[1] != v(4, 1) {
		t.Errorf("kappa s tuple = %v", kt)
	}
	// Projection collapses duplicates: on a key-satisfying instance the
	// counts match, on a violating one they may shrink.
	d.MustInsert("s", v(3, 1), v(4, 1), v(5, 2)) // key violation
	kd2 := ProjectKappa(d, k, pos)
	if kd2.Relation("s").Len() != 1 {
		t.Errorf("projection should collapse duplicates: %d", kd2.Relation("s").Len())
	}
}

func TestRelationString(t *testing.T) {
	rs, _ := schema.ParseRelation("r(a:T1)")
	r := NewRelation(rs)
	r.MustInsert(Tuple{v(1, 1)})
	if got := r.String(); got != "r {(T1:1)}" {
		t.Errorf("String = %q", got)
	}
}

// TestTupleKeyMatchesFmt pins the fmt-free map key to the
// fmt.Fprintf("%d:%d") rendering it replaced.
func TestTupleKeyMatchesFmt(t *testing.T) {
	for _, tu := range []Tuple{
		nil, {}, {v(1, 1)}, {v(1, 5), v(2, -7)}, {{}, v(0, 3)},
		{v(math.MaxInt32, math.MaxInt64), v(math.MinInt32, math.MinInt64), v(-2, 0)},
	} {
		parts := make([]string, len(tu))
		for i, x := range tu {
			parts[i] = fmt.Sprintf("%d:%d", x.Type, x.N)
		}
		if got, want := tu.key(), strings.Join(parts, ","); got != want {
			t.Errorf("key(%v) = %q, want %q", tu, got, want)
		}
	}
}
