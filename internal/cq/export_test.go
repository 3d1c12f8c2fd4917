package cq

// Test-only access for the external tests of package cq_test.

// ParseSeeds is FuzzParseCQ's seed list.
var ParseSeeds = parseSeeds

// Class returns the class of variable v in the compiled query, or false
// when v does not occur in it.  Names are dropped on Release.
func (c *Compiled) Class(v Var) (int32, bool) {
	s, ok := c.slots[v]
	if !ok {
		return -1, false
	}
	return c.slotClass[s], true
}
