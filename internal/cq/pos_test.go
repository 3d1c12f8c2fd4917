package cq

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestParsePositionsOnNodes(t *testing.T) {
	//          1234567890123456789012345678901234567890
	text := "Q(X, Y) :- R(X, Z), S(W, Y), Z = W, X = T1:3."
	q, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if q.Pos != (Pos{Line: 1, Col: 1}) {
		t.Errorf("query pos = %v, want 1:1", q.Pos)
	}
	if got := q.Body[0].Pos; got != (Pos{Line: 1, Col: 12}) {
		t.Errorf("atom R pos = %v, want 1:12", got)
	}
	if got := q.Body[1].Pos; got != (Pos{Line: 1, Col: 21}) {
		t.Errorf("atom S pos = %v, want 1:21", got)
	}
	if got := q.Body[0].VarPosition(1); got != (Pos{Line: 1, Col: 17}) {
		t.Errorf("placeholder Z pos = %v, want 1:17", got)
	}
	if got := q.Eqs[0].Pos; got != (Pos{Line: 1, Col: 30}) {
		t.Errorf("equality Z = W pos = %v, want 1:30", got)
	}
	if got := q.Eqs[1].Pos; got != (Pos{Line: 1, Col: 37}) {
		t.Errorf("equality X = T1:3 pos = %v, want 1:37", got)
	}
	if got := q.Eqs[1].Right.Pos; got != (Pos{Line: 1, Col: 41}) {
		t.Errorf("constant T1:3 pos = %v, want 1:41", got)
	}
	if got := q.Head[1].Pos; got != (Pos{Line: 1, Col: 6}) {
		t.Errorf("head term Y pos = %v, want 1:6", got)
	}
}

func TestParseAtOffsetsPositions(t *testing.T) {
	q, err := ParseAt("Q(X) :- R(X, Y).", Pos{Line: 7, Col: 3})
	if err != nil {
		t.Fatal(err)
	}
	if q.Pos != (Pos{Line: 7, Col: 3}) {
		t.Errorf("query pos = %v, want 7:3", q.Pos)
	}
	if got := q.Body[0].Pos; got != (Pos{Line: 7, Col: 11}) {
		t.Errorf("atom pos = %v, want 7:11", got)
	}
}

func TestParseMultiLinePositions(t *testing.T) {
	q, err := Parse("Q(X) :-\n  R(X, Y),\n  Y = T2:5.")
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Body[0].Pos; got != (Pos{Line: 2, Col: 3}) {
		t.Errorf("atom pos = %v, want 2:3", got)
	}
	if got := q.Eqs[0].Pos; got != (Pos{Line: 3, Col: 3}) {
		t.Errorf("equality pos = %v, want 3:3", got)
	}
}

func TestParseErrorCoordinates(t *testing.T) {
	cases := []struct {
		text string
		pos  Pos
		sub  string
	}{
		//           123456789012345678901234567
		{"Q(X) :- P(X, T1:1).", Pos{1, 14}, "constant"},
		{"Q(X) :- P(X,, Y).", Pos{1, 13}, "empty argument"},
		{"Q(X(Y)) :- P(X, Y).", Pos{1, 3}, "bad head term"},
		{"Q(X) :- P(X, Y), = Y.", Pos{1, 18}, "bad equality"},
		{"Q(X) :- P(X, Y), T1:1 = T1:2.", Pos{1, 18}, "no variable"},
		{"Q(X) :- .", Pos{1, 1}, "empty body"},
		{"Q(X)", Pos{1, 1}, "missing \":-\""},
		{"Q(X) :- P(X, T1:_2).", Pos{1, 14}, `bad ordinal in "T1:_2"`},
		{"Q(T1:y) :- P(X, Y).", Pos{1, 3}, `bad ordinal in "T1:y"`},
		{"Q(X) :- P(X, Y), Y = T1:y.", Pos{1, 22}, `bad ordinal in "T1:y"`},
		{"Q(X) :- P(X, Y), T1:_2 = Y.", Pos{1, 18}, `bad ordinal in "T1:_2"`},
	}
	for _, c := range cases {
		_, err := Parse(c.text)
		if err == nil {
			t.Errorf("Parse(%q): no error", c.text)
			continue
		}
		pe, ok := err.(*ParseError)
		if !ok {
			t.Errorf("Parse(%q): error %T is not a *ParseError: %v", c.text, err, err)
			continue
		}
		if pe.Pos != c.pos {
			t.Errorf("Parse(%q): error at %v, want %v (%v)", c.text, pe.Pos, c.pos, err)
		}
		if !strings.Contains(pe.Msg, c.sub) {
			t.Errorf("Parse(%q): message %q missing %q", c.text, pe.Msg, c.sub)
		}
		if !strings.Contains(err.Error(), pe.Pos.String()) {
			t.Errorf("Parse(%q): rendered error %q omits position", c.text, err)
		}
	}
}

func TestClonePreservesPositions(t *testing.T) {
	q := MustParse("Q(X) :- R(X, Y), Y = T2:5.")
	c := q.Clone()
	if c.Body[0].Pos != q.Body[0].Pos || c.Body[0].VarPosition(1) != q.Body[0].VarPosition(1) {
		t.Error("Clone dropped atom positions")
	}
	if c.Eqs[0].Pos != q.Eqs[0].Pos {
		t.Error("Clone dropped equality positions")
	}
}

// scanPos is the reference offset-to-position conversion: a scan from
// byte 0 on every call, the parser's original quadratic loop.  src.pos
// must agree with it at every offset.
func scanPos(text string, base Pos, off int) Pos {
	if off > len(text) {
		off = len(text)
	}
	line, col := base.Line, base.Col
	for i := 0; i < off; i++ {
		if text[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return Pos{Line: line, Col: col}
}

// checkPosAgainstScan compares src.pos with scanPos at every offset of
// text and a few past its end.
func checkPosAgainstScan(t *testing.T, text string, base Pos) {
	t.Helper()
	p := &src{text: text, base: base, nl: newlineOffsets(text)}
	for off := 0; off <= len(text)+2; off++ {
		if got, want := p.pos(off), scanPos(text, base, off); got != want {
			t.Fatalf("pos(%d) of %q from %v = %v, want %v", off, text, base, got, want)
		}
	}
}

func TestSrcPosMatchesScan(t *testing.T) {
	bases := []Pos{{Line: 1, Col: 1}, {Line: 7, Col: 3}, {Line: 1, Col: 9}, {Line: 40, Col: 1}}
	fixed := []string{"", "\n", "\n\n", "a\n", "\na", "\r\n", "Q(X) :-\n  R(X, Y),\n  Y = T2:5."}
	rng := rand.New(rand.NewSource(1))
	pieces := []string{"a", "Q(", ")", " ", "\t", "\n", "\r\n", "é", "名", "😀", ", ", ":-", "T1:3"}
	for i := 0; i < 300; i++ {
		var b strings.Builder
		for n := rng.Intn(40); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		fixed = append(fixed, b.String())
	}
	for _, text := range fixed {
		for _, base := range bases {
			checkPosAgainstScan(t, text, base)
		}
	}
}

// TestParseLargeQueryLinear parses a 50,000-atom query of about 0.9 MB,
// once on one line and once with a line per atom.  Deriving every
// position by a scan from byte 0 made this quadratic: 88 s on a 2-vCPU
// VM for the one-line text, against ~40 ms for the newline table.
func TestParseLargeQueryLinear(t *testing.T) {
	const atoms = 50000
	for _, sep := range []string{", ", ",\n"} {
		var b strings.Builder
		b.WriteString("Q(A0) :- ")
		for i := 0; i < atoms; i++ {
			if i > 0 {
				b.WriteString(sep)
			}
			fmt.Fprintf(&b, "E(A%d, B%d)", i, i)
		}
		b.WriteString(".")
		text := b.String()
		start := time.Now()
		q, err := Parse(text)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if elapsed > 10*time.Second {
			t.Fatalf("parsing %d bytes took %v, want under 10s", len(text), elapsed)
		}
		last := q.Body[atoms-1]
		off := strings.LastIndex(text, "E(")
		if len(q.Body) != atoms || last.Pos != scanPos(text, Pos{Line: 1, Col: 1}, off) {
			t.Fatalf("%d atoms, last at %v; want %d at %v", len(q.Body), last.Pos, atoms, scanPos(text, Pos{Line: 1, Col: 1}, off))
		}
		t.Logf("%d bytes, separator %q: %v", len(text), sep, elapsed)
	}
}
