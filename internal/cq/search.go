package cq

import (
	"keyedeq/internal/value"
)

// SearchMode selects the homomorphism search implementation.
type SearchMode int

const (
	// SearchAdaptive is the production search and the zero value.  When
	// every relation the query touches holds at most
	// smallRelScanThreshold tuples it runs the dense scan (scan_id.go);
	// otherwise it runs the streamed iterator pipeline over the
	// database's frozen view (iter.go), one connected component at a
	// time (adaptive.go).
	SearchAdaptive SearchMode = iota
	// SearchNaive is the reference implementation: source-order dynamic
	// atom picking with full relation scans over surface values.  It is
	// the differential oracle and the baseline of the search benchmark
	// record.
	SearchNaive
)

// String renders the mode tag used in benchmark tables and spans.
func (m SearchMode) String() string {
	if m == SearchNaive {
		return "naive"
	}
	return "adaptive"
}

// prebinding fixes one equality class's value before the search starts
// (a constant from the equality list, or a wanted head value).  The
// slice stays tiny, so lookups are linear scans rather than map probes.
type prebinding struct {
	root Var
	val  value.Value
}

// lookupPre returns the prebound value of root, if any.
func lookupPre(pres []prebinding, root Var) (value.Value, bool) {
	for _, pb := range pres {
		if pb.root == root {
			return pb.val, true
		}
	}
	return value.Value{}, false
}

// collectConstPrebindings gathers the constant-bound classes touched by
// the body into pres (deduplicated by representative).
func collectConstPrebindings(q *Query, eq *EqClasses, pres []prebinding) []prebinding {
	for _, a := range q.Body {
		for _, v := range a.Vars {
			if c, ok := eq.Const(v); ok {
				root := eq.Find(v)
				if _, seen := lookupPre(pres, root); !seen {
					pres = append(pres, prebinding{root: root, val: c})
				}
			}
		}
	}
	return pres
}
