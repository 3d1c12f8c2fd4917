package cq

import (
	"sync"

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
	slot := func(v Var) int32 {
		s, ok := c.slots[v]
		if !ok {
			s = int32(len(c.parent))
			c.slots[v] = s
			c.parent = append(c.parent, s)
			c.rank = append(c.rank, 0)
			c.rootConst = append(c.rootConst, value.Value{})
			c.rootHasC = append(c.rootHasC, false)
		}
		return s
	}
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
			c.Args[i][p] = slot(v)
		}
	}
	bodySlots := len(c.parent)
	c.Unsat = false
	for _, e := range q.Eqs {
		if e.Right.IsConst {
			c.bind(slot(e.Left), e.Right.Const)
		} else {
			c.union(slot(e.Left), slot(e.Right.Var))
		}
	}
	c.Head = resize(c.Head, len(q.Head))
	for i, t := range q.Head {
		c.Head[i] = -1
		if !t.IsConst {
			c.Head[i] = slot(t.Var)
		}
	}

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
