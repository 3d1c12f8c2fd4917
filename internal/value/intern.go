package value

import "keyedeq/internal/invariant"

// This file implements value interning: a bijection between the values
// occurring in one database instance and dense uint32 IDs, assigned in
// first-intern order.  The hot loops of the chase and the homomorphism
// search compare and hash IDs instead of (Type, N) structs or encoded
// byte strings, which makes every probe a machine-word comparison and
// every index a flat array.
//
// IDs are meaningful only relative to the Interner that produced them
// and must not escape the frozen view they index (DESIGN.md §14).

// ID is a dense interned value identifier.  The zero ID is a valid ID
// (the first value interned), not a sentinel; absence is signaled by
// the ok results of Lookup, never by an ID value.
type ID uint32

// maxInterned bounds the IDs an Interner assigns to [0, maxInterned).
// The top half of the ID space is left to the ghost IDs a search mints
// downward from the top for query values its frozen view never saw.
const maxInterned ID = 1 << 31

// Interner assigns dense IDs to values.  IDs are handed out in intern
// order, so two Interners fed the same values in the same order build
// identical tables — the determinism the frozen-instance encoding and
// its differential tests rely on.  The zero Interner is ready to use.
// An Interner is not safe for concurrent mutation.
type Interner struct {
	constIDs map[Value]ID
	consts   []Value
}

// NewInterner returns an Interner with capacity hints for n values.
func NewInterner(n int) *Interner {
	return &Interner{
		constIDs: make(map[Value]ID, n),
		consts:   make([]Value, 0, n),
	}
}

// Intern returns v's ID, assigning the next dense ID on first sight.
// Interning the same value again returns the same ID.
//
//keyedeq:hot -- every cell of every frozen instance passes through here
func (in *Interner) Intern(v Value) ID {
	if id, ok := in.constIDs[v]; ok {
		return id
	}
	if in.constIDs == nil {
		in.constIDs = make(map[Value]ID)
	}
	id := ID(len(in.consts))
	// The overflow assertion hides behind the branch so the hot path
	// never boxes its arguments.
	if id >= maxInterned {
		invariant.Mustf(false, "value: interner overflow: %d values", len(in.consts))
	}
	in.constIDs[v] = id
	in.consts = append(in.consts, v)
	return id
}

// Lookup returns v's ID without interning it.
func (in *Interner) Lookup(v Value) (ID, bool) {
	id, ok := in.constIDs[v]
	return id, ok
}

// Decode returns the value behind id.  It reports false for IDs this
// Interner never assigned — decoding is the boundary where IDs turn
// back into surface values, and a foreign ID must fail loudly there
// rather than alias an unrelated value.
func (in *Interner) Decode(id ID) (Value, bool) {
	if int(id) >= len(in.consts) {
		return Value{}, false
	}
	return in.consts[id], true
}

// Len returns the number of interned values.
func (in *Interner) Len() int { return len(in.consts) }
