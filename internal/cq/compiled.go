package cq

import (
	"fmt"
	"sync"

	"keyedeq/internal/schema"
	"keyedeq/internal/value"
)

// Compiled is a query's equality classes numbered once, the form the
// decision path reads: the canonizer, chase.FreezeCompiled, the plan
// compiler and the ID core of both adaptive search arms.  Classes are
// numbered by first appearance, body placeholders first, so classes
// [0, BodyClasses) are exactly the ones some atom mentions; the
// variables of the equality list (left side before right) and of the
// head follow.  The partition, the constants and Unsat are those of
// EqClasses, which the naive oracle keeps.  Reset recompiles a Compiled
// for another query, growing its tables only when the query outsizes an
// earlier one.
//
// The same pass keeps what validation needs beyond the classes: the
// first empty or reused placeholder, each variable's last placeholder
// and the variables of the head and of every equality.  Resolve looks
// the atoms' relations up in a schema, ResolveTypes also types the
// variables, and Check and HeadType then answer Validate and HeadType
// from these tables without walking the query's names again.
type Compiled struct {
	// Args holds, per body atom, the class of each position.
	Args [][]int32
	// Head holds, per head position, the class of its variable, or -1
	// for a constant.
	Head []int32
	// Const holds each class's bound constant; HasConst marks the
	// classes that bind one.
	Const    []value.Value
	HasConst []bool
	// BodyClasses counts the classes some body atom mentions.
	BodyClasses int
	// Unsat reports that the equality list equates two distinct
	// constants, so the query is empty on every database.  The classes
	// are numbered all the same, each with the constant EqClasses keeps.
	Unsat bool
	// Rels holds, per body atom, the index of its relation in the schema
	// Resolve last looked the atoms up in, or -1 when the schema lacks
	// it.  Only Resolve, ResolveTypes and Check fill it.
	Rels []int32

	// slots numbers each distinct variable by first appearance, and
	// slotClass maps a slot to its class.  parent and rank are the
	// union-find over slots, with each root's constant in rootConst and
	// rootHasC.  flat backs Args.
	slots        map[Var]int32
	slotClass    []int32
	parent, rank []int32
	rootConst    []value.Value
	rootHasC     []bool
	flat         []int32

	// Validation tables.  Slots [0, bodySlots) are the placeholders'
	// variables; lastAtom and lastPos locate each one's last placeholder.
	// badAtom and badPos locate the first placeholder that is empty or
	// repeats an earlier one (badAtom -1 when none).  headSlots and
	// eqSlots hold the slots of the head's variables and of each
	// equality's left and right side, -1 for a constant.
	bodySlots         int32
	lastAtom, lastPos []int32
	badAtom, badPos   int32
	headSlots         []int32
	eqSlots           [][2]int32
	// Resolve's result: the first atom whose relation the schema lacks
	// or has at another arity (-1 when none).  ResolveTypes's: each body
	// slot's type at its last placeholder (set only when relAtom is -1).
	relAtom  int32
	slotType []value.Type
}

// compiledPool recycles the compiled forms that the search arms and the
// canonical-database build hold only while they run.
var compiledPool = sync.Pool{New: func() any { return new(Compiled) }}

// MaxPooledSlots bounds the variable count of a compiled form that goes
// back to a pool, so one huge query cannot leave every later small one
// clearing its tables.
const MaxPooledSlots = 1 << 12

// Compile returns q compiled into a form taken from a pool.  Release
// returns it; nothing may read the form afterwards.
func Compile(q *Query) *Compiled {
	c := compiledPool.Get().(*Compiled)
	c.Reset(q)
	return c
}

// Release drops c's variable names and returns c to Compile's pool.
func (c *Compiled) Release() {
	if c.Slots() <= MaxPooledSlots {
		c.DropNames()
		compiledPool.Put(c)
	}
}

// Slots returns the number of distinct variables of the compiled query.
func (c *Compiled) Slots() int { return len(c.slotClass) }

// DropNames clears the variable names, so c keeps no reference into the
// query it compiled.
func (c *Compiled) DropNames() { clear(c.slots) }

// NumClasses returns the number of classes, body classes first.
func (c *Compiled) NumClasses() int { return len(c.Const) }

// Reset compiles q into c.  Each variable occurrence is looked up in the
// slot map once; every equality joins its two slots in the union-find
// as soon as both exist, and the classes are then numbered in slot
// order, so a class's number is the first appearance of any member.
func (c *Compiled) Reset(q *Query) {
	if c.slots == nil {
		c.slots = make(map[Var]int32)
	}
	clear(c.slots)
	c.parent, c.rank = c.parent[:0], c.rank[:0]
	c.rootConst, c.rootHasC = c.rootConst[:0], c.rootHasC[:0]
	c.lastAtom, c.lastPos = c.lastAtom[:0], c.lastPos[:0]
	c.badAtom, c.badPos = -1, -1
	total := 0
	for _, a := range q.Body {
		total += len(a.Vars)
	}
	c.flat = resize(c.flat, total)
	c.Args = resize(c.Args, len(q.Body))
	off := 0
	for i, a := range q.Body {
		c.Args[i] = c.flat[off : off+len(a.Vars) : off+len(a.Vars)]
		off += len(a.Vars)
		for p, v := range a.Vars {
			s, seen := c.slots[v]
			if !seen {
				s = c.newSlot(v)
				c.lastAtom = append(c.lastAtom, 0)
				c.lastPos = append(c.lastPos, 0)
			}
			if (seen || v == "") && c.badAtom < 0 {
				c.badAtom, c.badPos = int32(i), int32(p)
			}
			c.lastAtom[s], c.lastPos[s] = int32(i), int32(p)
			c.Args[i][p] = s
		}
	}
	c.bodySlots = int32(len(c.parent))
	c.Unsat = false
	c.eqSlots = c.eqSlots[:0]
	for _, e := range q.Eqs {
		l, r := c.slot(e.Left), int32(-1)
		if e.Right.IsConst {
			c.bind(l, e.Right.Const)
		} else {
			r = c.slot(e.Right.Var)
			c.union(l, r)
		}
		c.eqSlots = append(c.eqSlots, [2]int32{l, r})
	}
	c.Head = resize(c.Head, len(q.Head))
	c.headSlots = resize(c.headSlots, len(q.Head))
	for i, t := range q.Head {
		c.Head[i] = -1
		if !t.IsConst {
			c.Head[i] = c.slot(t.Var)
		}
		c.headSlots[i] = c.Head[i]
	}

	bodySlots := int(c.bodySlots)
	c.slotClass = resize(c.slotClass, len(c.parent))
	for s := range c.slotClass {
		c.slotClass[s] = -1
	}
	c.Const, c.HasConst = c.Const[:0], c.HasConst[:0]
	for s := range c.slotClass {
		if s == bodySlots {
			c.BodyClasses = len(c.Const)
		}
		r := c.find(int32(s))
		if c.slotClass[r] < 0 {
			c.slotClass[r] = int32(len(c.Const))
			c.Const = append(c.Const, c.rootConst[r])
			c.HasConst = append(c.HasConst, c.rootHasC[r])
		}
		c.slotClass[s] = c.slotClass[r]
	}
	if bodySlots == len(c.parent) {
		c.BodyClasses = len(c.Const)
	}
	for k, s := range c.flat {
		c.flat[k] = c.slotClass[s]
	}
	for i, s := range c.Head {
		if s >= 0 {
			c.Head[i] = c.slotClass[s]
		}
	}
}

// slot returns v's slot, opening a new one on first sight.
func (c *Compiled) slot(v Var) int32 {
	if s, ok := c.slots[v]; ok {
		return s
	}
	return c.newSlot(v)
}

// newSlot opens the next slot for v, a variable the slot map lacks.
func (c *Compiled) newSlot(v Var) int32 {
	s := int32(len(c.parent))
	c.slots[v] = s
	c.parent = append(c.parent, s)
	c.rank = append(c.rank, 0)
	c.rootConst = append(c.rootConst, value.Value{})
	c.rootHasC = append(c.rootHasC, false)
	return s
}

// Resolve looks up each body atom's relation of q, the query c was
// reset to, in s: Rels[i] is its index, and the first atom whose
// relation s lacks or has at another arity is kept for the errors that
// HeadType, Check and the search build.  The search arms read nothing
// else of s.
func (c *Compiled) Resolve(q *Query, s *schema.Schema) {
	c.Rels = resize(c.Rels, len(q.Body))
	c.relAtom = -1
	ri := -1
	for i, a := range q.Body {
		if i == 0 || a.Rel != q.Body[i-1].Rel {
			ri = s.RelationIndex(a.Rel)
		}
		c.Rels[i] = int32(ri)
		if c.relAtom < 0 && (ri < 0 || len(a.Vars) != s.Relations[ri].Arity()) {
			c.relAtom = int32(i)
		}
	}
}

// ResolveTypes resolves q like Resolve and, when every atom resolves,
// gives each placeholder variable the type of its last placeholder,
// which HeadType and Check read.
func (c *Compiled) ResolveTypes(q *Query, s *schema.Schema) {
	c.Resolve(q, s)
	if c.relAtom >= 0 {
		return
	}
	c.slotType = resize(c.slotType, int(c.bodySlots))
	for v := range c.slotType {
		c.slotType[v] = s.Relations[c.Rels[c.lastAtom[v]]].Attrs[c.lastPos[v]].Type
	}
}

// Check resolves and types q, the query c was reset to, against s
// (ResolveTypes) and returns what q.Validate(s) returns.  Its errors
// come in Validate's order: the atoms in body order, each one's
// relation, arity and placeholders; an empty body; the head; the
// equality list.
func (c *Compiled) Check(q *Query, s *schema.Schema) error {
	c.ResolveTypes(q, s)
	if c.relAtom >= 0 && (c.badAtom < 0 || c.relAtom <= c.badAtom) {
		a := q.Body[c.relAtom]
		ri := c.Rels[c.relAtom]
		if ri < 0 {
			return fmt.Errorf("cq: unknown relation %q", a.Rel)
		}
		return fmt.Errorf("cq: %s has %d placeholders, scheme wants %d", a.Rel, len(a.Vars), s.Relations[ri].Arity())
	}
	if c.badAtom >= 0 {
		a := q.Body[c.badAtom]
		if v := a.Vars[c.badPos]; v != "" {
			return fmt.Errorf("cq: placeholder %s reused; placeholders must be distinct variables", v)
		}
		return fmt.Errorf("cq: empty variable in %s", a.Rel)
	}
	if len(q.Body) == 0 {
		return fmt.Errorf("cq: empty body")
	}
	for i, t := range q.Head {
		if t.IsConst {
			if t.Const.Type == value.NoType {
				return fmt.Errorf("cq: head position %d has untyped constant", i)
			}
			if t.Const.Null {
				return fmt.Errorf("cq: head position %d has labeled null %v", i, t.Const)
			}
			continue
		}
		if c.headSlots[i] >= c.bodySlots {
			return fmt.Errorf("cq: head variable %s does not occur in the body", t.Var)
		}
	}
	for i, e := range q.Eqs {
		l, r := c.eqSlots[i][0], c.eqSlots[i][1]
		if l >= c.bodySlots {
			return fmt.Errorf("cq: equality variable %s does not occur in the body", e.Left)
		}
		lt := c.slotType[l]
		if e.Right.IsConst {
			if e.Right.Const.Type != lt {
				return fmt.Errorf("cq: selection %s compares %v with %v", e, lt, e.Right.Const.Type)
			}
			if e.Right.Const.Null {
				return fmt.Errorf("cq: selection %s names a labeled null", e)
			}
			continue
		}
		if r >= c.bodySlots {
			return fmt.Errorf("cq: equality variable %s does not occur in the body", e.Right.Var)
		}
		if rt := c.slotType[r]; lt != rt {
			return fmt.Errorf("cq: equality %s compares %v with %v", e, lt, rt)
		}
	}
	return nil
}

// HeadType returns what q.HeadType(s) returns, for q and s of the last
// ResolveTypes or Check.  It reads the types ResolveTypes kept, so a
// head variable takes the type of its last placeholder even in a query
// Check rejects.
func (c *Compiled) HeadType(q *Query) ([]value.Type, error) {
	if c.relAtom >= 0 {
		a := q.Body[c.relAtom]
		if c.Rels[c.relAtom] < 0 {
			return nil, fmt.Errorf("cq: unknown relation %q", a.Rel)
		}
		return nil, fmt.Errorf("cq: %s arity mismatch", a.Rel)
	}
	out := make([]value.Type, len(q.Head))
	for i, t := range q.Head {
		if t.IsConst {
			out[i] = t.Const.Type
			continue
		}
		if c.headSlots[i] >= c.bodySlots {
			return nil, fmt.Errorf("cq: head variable %s unbound", t.Var)
		}
		out[i] = c.slotType[c.headSlots[i]]
	}
	return out, nil
}

// find is the path-halving find over slots.
func (c *Compiled) find(s int32) int32 {
	for c.parent[s] != s {
		c.parent[s] = c.parent[c.parent[s]]
		s = c.parent[s]
	}
	return s
}

// bind binds slot s's class to the constant v; a class bound to another
// constant keeps it and makes the query unsatisfiable.
func (c *Compiled) bind(s int32, v value.Value) {
	r := c.find(s)
	if !c.rootHasC[r] {
		c.rootConst[r], c.rootHasC[r] = v, true
	} else if c.rootConst[r] != v {
		c.Unsat = true
	}
}

// union merges the classes of slots a and b.  The merged class keeps
// a's constant, as EqClasses does, so an unsatisfiable query freezes
// with the constants EqClasses gives it.
func (c *Compiled) union(a, b int32) {
	ra, rb := c.find(a), c.find(b)
	if ra == rb {
		return
	}
	cv, hc := c.rootConst[ra], c.rootHasC[ra]
	if !hc {
		cv, hc = c.rootConst[rb], c.rootHasC[rb]
	} else if c.rootHasC[rb] && c.rootConst[rb] != cv {
		c.Unsat = true
	}
	if c.rank[ra] < c.rank[rb] {
		ra, rb = rb, ra
	}
	c.parent[rb] = ra
	if c.rank[ra] == c.rank[rb] {
		c.rank[ra]++
	}
	c.rootConst[ra], c.rootHasC[ra] = cv, hc
}

// resize returns s with length n and every element zero, reusing its
// backing array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
