package value

import "testing"

func TestInternerDenseStableIDs(t *testing.T) {
	in := NewInterner(4)
	vs := []Value{{Type: 1, N: 5}, {Type: 2, N: 5}, {Type: 1, N: 7}, {Type: 1, N: 5}}
	ids := make([]ID, len(vs))
	for i, v := range vs {
		ids[i] = in.Intern(v)
	}
	if ids[0] != 0 || ids[1] != 1 || ids[2] != 2 {
		t.Fatalf("IDs not dense in first-intern order: %v", ids)
	}
	if ids[3] != ids[0] {
		t.Fatalf("re-interning %v gave %d, first gave %d", vs[3], ids[3], ids[0])
	}
	if in.Len() != 3 {
		t.Fatalf("Len=%d, want 3", in.Len())
	}
	for i, v := range vs {
		got, ok := in.Decode(ids[i])
		if !ok || got != v {
			t.Fatalf("Decode(%d) = %v,%v, want %v", ids[i], got, ok, v)
		}
	}
}

func TestInternerLookupDoesNotIntern(t *testing.T) {
	var in Interner
	v := Value{Type: 1, N: 1}
	if _, ok := in.Lookup(v); ok {
		t.Fatal("Lookup found a value in an empty interner")
	}
	id := in.Intern(v)
	got, ok := in.Lookup(v)
	if !ok || got != id {
		t.Fatalf("Lookup = %d,%v, want %d,true", got, ok, id)
	}
	if in.Len() != 1 {
		t.Fatalf("Lookup interned: Len=%d", in.Len())
	}
}

func TestInternerDecodeRejectsForeignIDs(t *testing.T) {
	var in Interner
	in.Intern(Value{Type: 1, N: 1})
	if _, ok := in.Decode(5); ok {
		t.Fatal("decoded an unassigned constant ID")
	}
	if _, ok := in.Decode(^ID(0)); ok {
		t.Fatal("decoded the top-of-space ID")
	}
}

func TestInternerDeterministicAcrossRuns(t *testing.T) {
	build := func() *Interner {
		in := NewInterner(8)
		for ty := Type(1); ty <= 3; ty++ {
			for n := int64(1); n <= 5; n++ {
				in.Intern(Value{Type: ty, N: n})
			}
		}
		return in
	}
	a, b := build(), build()
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i, v := range a.consts {
		if b.consts[i] != v {
			t.Fatalf("constant table diverges at %d: %v vs %v", i, v, b.consts[i])
		}
	}
}
