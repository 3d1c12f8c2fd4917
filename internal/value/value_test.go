package value

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	tests := []struct {
		t    Type
		want string
	}{
		{NoType, "T?"},
		{Type(1), "T1"},
		{Type(42), "T42"},
	}
	for _, tt := range tests {
		if got := tt.t.String(); got != tt.want {
			t.Errorf("Type(%d).String() = %q, want %q", tt.t, got, tt.want)
		}
	}
}

func TestValueString(t *testing.T) {
	v := Value{Type: 3, N: 17}
	if got := v.String(); got != "T3:17" {
		t.Errorf("String() = %q, want T3:17", got)
	}
	if got := (Value{Type: 1, Null: true, N: 3}).String(); got != "T1:_3" {
		t.Errorf("null String() = %q, want T1:_3", got)
	}
	var zero Value
	if got := zero.String(); got != "<zero>" {
		t.Errorf("zero.String() = %q", got)
	}
}

func TestIsZero(t *testing.T) {
	if !(Value{}).IsZero() {
		t.Error("zero Value should report IsZero")
	}
	if (Value{Type: 1, N: 0}).IsZero() {
		t.Error("typed value should not report IsZero")
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		a, b Value
		want int
	}{
		{Value{Type: 1, N: 1}, Value{Type: 1, N: 1}, 0},
		{Value{Type: 1, N: 1}, Value{Type: 1, N: 2}, -1},
		{Value{Type: 1, N: 2}, Value{Type: 1, N: 1}, 1},
		{Value{Type: 1, N: 9}, Value{Type: 2, N: 1}, -1},
		{Value{Type: 2, N: 1}, Value{Type: 1, N: 9}, 1},
		{Value{Type: 1, N: 9}, Value{Type: 1, Null: true, N: 1}, -1},
		{Value{Type: 1, Null: true, N: 1}, Value{Type: 1, N: 9}, 1},
		{Value{Type: 1, Null: true, N: 1}, Value{Type: 1, Null: true, N: 2}, -1},
		{Value{Type: 1, Null: true, N: 2}, Value{Type: 1, Null: true, N: 2}, 0},
		{Value{Type: 1, Null: true, N: 2}, Value{Type: 2, N: 1}, -1},
	}
	for _, tt := range tests {
		if got := tt.a.Compare(tt.b); got != tt.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(at, bt int8, an, bn int16, anull, bnull bool) bool {
		a := Value{Type: Type(uint8(at)%4 + 1), Null: anull, N: int64(an)}
		b := Value{Type: Type(uint8(bt)%4 + 1), Null: bnull, N: int64(bn)}
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSort(t *testing.T) {
	vs := []Value{{Type: 2, N: 1}, {Type: 1, Null: true, N: 3}, {Type: 1, N: 5}, {Type: 1, N: 2}, {Type: 1, Null: true, N: 1}, {Type: 3, N: 0}, {Type: 1, N: 2}}
	Sort(vs)
	if !sort.SliceIsSorted(vs, func(i, j int) bool { return vs[i].Less(vs[j]) || vs[i] == vs[j] && i < j }) {
		t.Errorf("not sorted: %v", vs)
	}
	want := []Value{{Type: 1, N: 2}, {Type: 1, N: 2}, {Type: 1, N: 5}, {Type: 1, Null: true, N: 1}, {Type: 1, Null: true, N: 3}, {Type: 2, N: 1}, {Type: 3, N: 0}}
	for i := range want {
		if vs[i] != want[i] {
			t.Fatalf("Sort = %v, want %v", vs, want)
		}
	}
}

// TestValueStringMatchesFmt pins the fmt-free renderings of Type and
// Value to the fmt forms they replaced, byte for byte: canonical keys,
// and so verdict-log keys, embed them.
func TestValueStringMatchesFmt(t *testing.T) {
	for _, v := range []Value{
		{}, {Type: 3, N: 17}, {Type: NoType, N: 5}, {Type: 1, N: -1}, {Type: 7, N: 0},
		{Type: -4, N: 2}, {Type: math.MaxInt32, N: math.MaxInt64}, {Type: math.MinInt32, N: math.MinInt64},
	} {
		typeWant := "T?"
		if v.Type != NoType {
			typeWant = fmt.Sprintf("T%d", int64(v.Type))
		}
		if got := v.Type.String(); got != typeWant {
			t.Errorf("Type(%d).String() = %q, want %q", int64(v.Type), got, typeWant)
		}
		want := "<zero>"
		if !v.IsZero() {
			want = fmt.Sprintf("%s:%d", v.Type, v.N)
		}
		if got := v.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", v, got, want)
		}
	}
}

// TestParseErrorMessages pins Parse's messages and TryParse's agreement
// with it; TryParse allocates nothing on a token that names no type.
func TestParseErrorMessages(t *testing.T) {
	for _, c := range []struct{ in, msg string }{
		{"", `value: cannot parse "": want T<type>:<n>`},
		{"T1", `value: cannot parse "T1": want T<type>:<n>`},
		{"1:2", `value: cannot parse "1:2": want T<type>:<n>`},
		{"Tx:2", `value: bad type in "Tx:2"`},
		{"T0:1", `value: bad type in "T0:1"`},
		{"T-3:4", `value: bad type in "T-3:4"`},
		{"T1:y", `value: bad ordinal in "T1:y"`},
		{"T1:99999999999999999999", `value: bad ordinal in "T1:99999999999999999999"`},
		{"T1:_3", `value: bad ordinal in "T1:_3"`},
		{"T2:-5", ""},
		{"T2147483647:0", ""},
	} {
		v, err := Parse(c.in)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != c.msg {
			t.Errorf("Parse(%q) error %q, want %q", c.in, got, c.msg)
		}
		tv, ok, terr := TryParse(c.in)
		if ok != (err == nil) || tv != v {
			t.Errorf("TryParse(%q) = %v, %v; Parse gave %v, %v", c.in, tv, ok, v, err)
		}
		// TryParse returns Parse's error exactly when the type is good
		// and the ordinal bad: such a token is no variable.
		if ordinal := strings.Contains(c.msg, "bad ordinal"); (terr != nil) != ordinal || (ordinal && terr.Error() != c.msg) {
			t.Errorf("TryParse(%q) error %v, want one only for a bad ordinal (Parse gave %v)", c.in, terr, err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { TryParse("X17") }); n != 0 {
		t.Errorf("TryParse of a variable allocates %v times", n)
	}
}

func TestParseRoundTrip(t *testing.T) {
	f := func(tt uint8, n int16) bool {
		v := Value{Type: Type(tt%100 + 1), N: int64(n)}
		got, err := Parse(v.String())
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "T1", "1:2", "Tx:2", "T1:y", "T-3:4", "T0:1", "T1:_3"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): want error", s)
		}
	}
}

func TestAllocatorFreshDistinct(t *testing.T) {
	var a Allocator
	seen := map[Value]bool{}
	for i := 0; i < 100; i++ {
		v := a.Fresh(Type(1 + i%3))
		if seen[v] {
			t.Fatalf("Fresh returned duplicate %v", v)
		}
		seen[v] = true
	}
}

func TestChoiceDeterministic(t *testing.T) {
	var c Choice
	v1 := c.Of(3)
	v2 := c.Of(3)
	if v1 != v2 {
		t.Errorf("Choice.Of not stable: %v vs %v", v1, v2)
	}
	if v1.Type != 3 {
		t.Errorf("Choice.Of(3).Type = %v", v1.Type)
	}
	var d Choice
	if d.Of(3) != v1 {
		t.Errorf("two zero Choices disagree: %v vs %v", d.Of(3), v1)
	}
}

func TestChoiceSet(t *testing.T) {
	var c Choice
	c.Set(Value{Type: 5, N: 99})
	if got := c.Of(5); got != (Value{Type: 5, N: 99}) {
		t.Errorf("Of(5) = %v after Set", got)
	}
}

func TestSetBasics(t *testing.T) {
	var s Set
	if s.Len() != 0 || s.Has(Value{Type: 1, N: 1}) {
		t.Fatal("zero Set should be empty")
	}
	if !s.Add(Value{Type: 1, N: 1}) {
		t.Error("first Add should report true")
	}
	if s.Add(Value{Type: 1, N: 1}) {
		t.Error("second Add of same value should report false")
	}
	s.Add(Value{Type: 2, N: 1})
	s.Add(Value{Type: 1, N: 0})
	got := s.Values()
	want := []Value{{Type: 1, N: 0}, {Type: 1, N: 1}, {Type: 2, N: 1}}
	if len(got) != len(want) {
		t.Fatalf("Values() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values() = %v, want %v", got, want)
		}
	}
}

func TestSetIntersects(t *testing.T) {
	var a, b Set
	a.Add(Value{Type: 1, N: 1})
	a.Add(Value{Type: 1, N: 2})
	b.Add(Value{Type: 1, N: 3})
	if a.Intersects(&b) || b.Intersects(&a) {
		t.Error("disjoint sets report intersection")
	}
	b.Add(Value{Type: 1, N: 2})
	if !a.Intersects(&b) || !b.Intersects(&a) {
		t.Error("overlapping sets report no intersection")
	}
}

func TestSetIntersectsSymmetricRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var a, b Set
		for i := 0; i < rng.Intn(10); i++ {
			a.Add(Value{Type: Type(rng.Intn(2) + 1), N: int64(rng.Intn(6))})
		}
		for i := 0; i < rng.Intn(10); i++ {
			b.Add(Value{Type: Type(rng.Intn(2) + 1), N: int64(rng.Intn(6))})
		}
		if a.Intersects(&b) != b.Intersects(&a) {
			t.Fatalf("Intersects not symmetric: %v vs %v", a.Values(), b.Values())
		}
	}
}
