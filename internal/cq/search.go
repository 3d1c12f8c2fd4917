package cq

// SearchMode selects the homomorphism search implementation.
type SearchMode int

const (
	// SearchAdaptive is the production search and the zero value.  It
	// searches a frozen view on one ID core (idcore.go): when every
	// relation the query touches holds at most smallRelScanThreshold
	// tuples it runs the dense scan (scan_id.go); otherwise it runs the
	// streamed iterator pipeline (iter.go), one connected component at
	// a time (adaptive.go).
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
