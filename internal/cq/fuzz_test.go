package cq

import (
	"testing"
)

// Native fuzz targets.  Under plain `go test` the seed corpus runs as
// regression tests; `go test -fuzz=FuzzParseCQ` explores further.  The
// invariant in each case: the parser never panics, and anything it
// accepts survives a print/reparse round trip.  FuzzParseCQ also checks
// the parser's offset-to-position conversion against the reference
// scan at every offset of the input.

// parseSeeds is FuzzParseCQ's seed list; FuzzCompile and the compiled
// form's wall start from it too.
var parseSeeds = []string{
	"Q(X, Y) :- P(X, Y).",
	"Q(X) :- R(X, Y), S(Z, W), Y = Z, W = T1:3.",
	"Q(T1:7, Y) :- P(X, Y).",
	"V(X, X) :- P(X, Y), X = Y.",
	"",
	"Q(X)",
	"Q(X) :- .",
	"Q((((",
	"Q(X) :- P(X, T1:1).",
	"名前(X) :- P(X, Y).",
	"Q(X) :- P(X, Y), T1:1 = T1:2.",
	"V(X) :- E(X, T1:_2).",
	"V(X) :- E(X, Y), Y = T1:y.",
	"V(T1:_2) :- E(X, Y), X = Tx:1.",
}

func FuzzParseCQ(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		for _, base := range []Pos{{Line: 1, Col: 1}, {Line: 3, Col: 7}} {
			checkPosAgainstScan(t, text, base)
		}
		q, err := Parse(text)
		if err != nil {
			return
		}
		printed := q.String()
		q2, err := Parse(printed)
		if err != nil {
			t.Fatalf("accepted %q but rejected own print %q: %v", text, printed, err)
		}
		if q2.String() != printed {
			t.Fatalf("print not a fixpoint: %q -> %q", printed, q2.String())
		}
	})
}
