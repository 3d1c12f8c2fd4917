// Package value models the paper's universe of data: a countably infinite
// domain partitioned into disjoint, countably infinite attribute types.
//
// A Value is an atomic constant or a labeled null, tagged with the
// attribute type it belongs to.  Because the type tag participates in
// equality, values of different attribute types are never equal, which
// realizes the paper's requirement that attribute types be disjoint
// subsets of the domain.  The null flag participates too, so no constant
// equals a null: a canonical database's nulls are the paper's values
// "not among the constants of the queries" whatever the queries are.
package value

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Type identifies an attribute type (one of the disjoint, countably
// infinite subsets of the domain).  Types are compared by identity.
type Type int32

// NoType is the zero Type; no valid value carries it.
const NoType Type = 0

// String returns a stable human-readable name such as "T3".
func (t Type) String() string {
	var buf [12]byte
	return string(t.appendName(buf[:0]))
}

// appendName appends t.String() to b.
func (t Type) appendName(b []byte) []byte {
	if t == NoType {
		return append(b, "T?"...)
	}
	return strconv.AppendInt(append(b, 'T'), int64(t), 10)
}

// Value is an atomic constant of some attribute type, or, with Null set,
// the labeled null numbered N of that type.  Only a canonical database
// holds nulls; no query or instance text can name one.  The zero Value
// is invalid and belongs to no type.
type Value struct {
	Type Type
	Null bool
	N    int64
}

// IsZero reports whether v is the invalid zero Value.
func (v Value) IsZero() bool { return v.Type == NoType && v.N == 0 }

// String renders the value as, e.g., "T3:17", or a null as "T3:_17".
func (v Value) String() string {
	var buf [36]byte // "T" + int32 + ":" + int64, signs included
	return string(v.Append(buf[:0]))
}

// Append appends v.String() to b.
func (v Value) Append(b []byte) []byte {
	if v.IsZero() {
		return append(b, "<zero>"...)
	}
	b = append(v.Type.appendName(b), ':')
	if v.Null {
		b = append(b, '_')
	}
	return strconv.AppendInt(b, v.N, 10)
}

// Compare orders values first by type, then the constants of a type
// before its nulls, then by N.  It returns -1, 0, or +1.
func (v Value) Compare(w Value) int {
	switch {
	case v.Type < w.Type:
		return -1
	case v.Type > w.Type:
		return 1
	case v.Null != w.Null:
		if v.Null {
			return 1
		}
		return -1
	case v.N < w.N:
		return -1
	case v.N > w.N:
		return 1
	}
	return 0
}

// Less reports whether v orders strictly before w.
func (v Value) Less(w Value) bool { return v.Compare(w) < 0 }

// Sort sorts values in place in Compare order.
func Sort(vs []Value) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].Less(vs[j]) })
}

// Parse parses the "T<type>:<n>" form produced by Value.String for a
// constant.  It rejects a null's "T<type>:_<n>", so no text names a null.
func Parse(s string) (Value, error) {
	switch v, bad := parse(s); bad {
	case badForm:
		return Value{}, fmt.Errorf("value: cannot parse %q: want T<type>:<n>", s)
	case badType:
		return Value{}, fmt.Errorf("value: bad type in %q", s)
	case badOrdinal:
		return Value{}, ordinalError(s)
	default:
		return v, nil
	}
}

// TryParse classifies a token for a parser that reads constants and
// variables from one alphabet.  ok reports that s is in "T<type>:<n>"
// form.  err is Parse's error when the text before ':' names a type
// (T and a positive number) but no ordinal follows, as in a null's
// "T1:_3": such a token is no variable either.  With neither, s names
// no type and may be a variable.  A parser calls it on every variable,
// so it builds no error value for a token that names no type.
func TryParse(s string) (v Value, ok bool, err error) {
	v, bad := parse(s)
	if bad == badOrdinal {
		return Value{}, false, ordinalError(s)
	}
	return v, bad == parsed, nil
}

// ordinalError is the error for a token whose type is good and ordinal
// bad.  It is a conversion, not a call, so TryParse stays small enough
// to inline into a parser's per-token loop.
type ordinalError string

func (e ordinalError) Error() string {
	return fmt.Sprintf("value: bad ordinal in %q", string(e))
}

// parseResult says which part of the "T<type>:<n>" form parse rejected.
type parseResult int

const (
	parsed parseResult = iota
	badForm
	badType
	badOrdinal
)

func parse(s string) (Value, parseResult) {
	i := strings.IndexByte(s, ':')
	if i < 0 || !strings.HasPrefix(s, "T") {
		return Value{}, badForm
	}
	t, err := strconv.ParseInt(s[1:i], 10, 32)
	if err != nil || t <= 0 {
		return Value{}, badType
	}
	n, err := strconv.ParseInt(s[i+1:], 10, 64)
	if err != nil {
		return Value{}, badOrdinal
	}
	return Value{Type: Type(t), N: n}, parsed
}

// Allocator hands out fresh constants per attribute type, for the
// paper's constructions that need distinct values: attribute-specific
// instances and random keyed instances.  A canonical database needs none:
// its frozen variables are labeled nulls, which no constant equals.
//
// The zero Allocator is ready to use.  An Allocator is not safe for
// concurrent use.
type Allocator struct {
	next map[Type]int64
}

// Fresh returns a value of type t never before returned by this
// Allocator.
func (a *Allocator) Fresh(t Type) Value {
	if a.next == nil {
		a.next = make(map[Type]int64)
	}
	a.next[t]++
	return Value{Type: t, N: a.next[t]}
}

// Choice is the paper's choice function f : attribute types → domain,
// associating each attribute type with one fixed constant of that type.
// It is used by the γ and δ maps of the κ-reduction (Theorem 9).
//
// The zero Choice is ready to use; it lazily picks value N=1 of each type
// the first time the type is requested, which keeps runs deterministic.
type Choice struct {
	pick map[Type]Value
}

// Of returns the chosen constant for attribute type t.
func (c *Choice) Of(t Type) Value {
	if c.pick == nil {
		c.pick = make(map[Type]Value)
	}
	if v, ok := c.pick[t]; ok {
		return v
	}
	v := Value{Type: t, N: 1}
	c.pick[t] = v
	return v
}

// Set overrides the chosen constant for v's type to be v itself.
func (c *Choice) Set(v Value) {
	if c.pick == nil {
		c.pick = make(map[Type]Value)
	}
	c.pick[v.Type] = v
}

// Set is an ordered set of values, useful for computing active domains.
// The zero Set is empty and ready to use.
type Set struct {
	m map[Value]struct{}
}

// Add inserts v, reporting whether it was newly added.
func (s *Set) Add(v Value) bool {
	if s.m == nil {
		s.m = make(map[Value]struct{})
	}
	if _, ok := s.m[v]; ok {
		return false
	}
	s.m[v] = struct{}{}
	return true
}

// Has reports membership.
func (s *Set) Has(v Value) bool {
	_, ok := s.m[v]
	return ok
}

// Len returns the number of members.
func (s *Set) Len() int { return len(s.m) }

// Values returns the members in Compare order.
func (s *Set) Values() []Value {
	vs := make([]Value, 0, len(s.m))
	for v := range s.m {
		vs = append(vs, v)
	}
	Sort(vs)
	return vs
}

// Intersects reports whether s and t share any member.
func (s *Set) Intersects(t *Set) bool {
	small, large := s, t
	if large.Len() < small.Len() {
		small, large = large, small
	}
	for v := range small.m {
		if large.Has(v) {
			return true
		}
	}
	return false
}
