package cq

import (
	"fmt"
	"sort"
	"strings"

	"keyedeq/internal/invariant"
	"keyedeq/internal/value"
)

// Parse reads a conjunctive query in the paper's syntax:
//
//	Q(X, Y) :- R(X, Z), S(W, Y), Z = W, X = T1:3.
//
// The trailing period is optional.  Head terms are variables or constants
// in T<type>:<n> form; body literals are relation atoms; everything after
// the atoms that contains '=' is the equality list.  Whitespace is
// insignificant.
//
// Every AST node of the result carries its line:col position within
// text (1-based), and parse failures return a *ParseError pointing at
// the offending byte.
func Parse(text string) (*Query, error) {
	return ParseAt(text, Pos{Line: 1, Col: 1})
}

// ParseAt is Parse for a query embedded in a larger file: base is the
// file position of text's first byte, and every node span and error
// position is reported file-absolute.  The mapping and program parsers
// use it to give their per-line queries real coordinates.
func ParseAt(text string, base Pos) (*Query, error) {
	p := &src{text: text, base: base, nl: newlineOffsets(text)}
	start, end := p.trim(0, len(text))
	if start < end && text[end-1] == '.' {
		start, end = p.trim(start, end-1)
	}
	sep := strings.Index(text[start:end], ":-")
	if sep < 0 {
		return nil, p.errf(start, "missing \":-\" in %q", text[start:end])
	}
	sep += start

	q := &Query{}
	hs, he := p.trim(start, sep)
	q.Pos = p.pos(hs)
	name, _, args, err := p.splitAtom(hs, he)
	if err != nil {
		return nil, wrap(err, "bad head")
	}
	q.HeadRel = name
	if args.n > 0 {
		q.Head = make([]Term, 0, args.n)
	}
	for arg, ok := args.next(p); ok; arg, ok = args.next(p) {
		t, err := p.parseTerm(arg)
		if err != nil {
			return nil, p.errf(arg.a, "bad head term %q: %v", p.str(arg), msg(err))
		}
		q.Head = append(q.Head, t)
	}

	// Size the body once, so the literal pass below never regrows a
	// slice: every atom's placeholders share one Var and one Pos backing.
	atoms, eqs, vars := p.countBody(sep+2, end)
	if atoms > 0 {
		q.Body = make([]Atom, 0, atoms)
	}
	if eqs > 0 {
		q.Eqs = make([]Equality, 0, eqs)
	}
	varBuf := make([]Var, 0, vars)
	posBuf := make([]Pos, 0, vars)
	for at := sep + 2; at <= end; {
		lit := p.nextLit(at, end)
		at = lit.b + 1
		ls, le := p.trim(lit.a, lit.b)
		if ls >= le {
			continue
		}
		litText := text[ls:le]
		if isEquality(litText) {
			eq, err := p.parseEquality(ls, le, ls+strings.IndexByte(litText, '='))
			if err != nil {
				return nil, err
			}
			q.Eqs = append(q.Eqs, eq)
			continue
		}
		name, namePos, args, err := p.splitAtom(ls, le)
		if err != nil {
			return nil, wrap(err, fmt.Sprintf("bad literal %q", litText))
		}
		a := Atom{Rel: name, Pos: namePos}
		first := len(varBuf)
		for arg, ok := args.next(p); ok; arg, ok = args.next(p) {
			t, err := p.parseTerm(arg)
			if err == nil && t.IsConst {
				return nil, p.errf(arg.a, "constant %q used as placeholder; the paper's syntax requires distinct variables with conditions in the equality list", p.str(arg))
			}
			if err != nil {
				return nil, p.errf(arg.a, "bad placeholder %q in %s: %v", p.str(arg), name, msg(err))
			}
			varBuf = append(varBuf, t.Var)
			posBuf = append(posBuf, t.Pos)
		}
		if last := len(varBuf); last > first {
			a.Vars = varBuf[first:last:last]
			a.VarPos = posBuf[first:last:last]
		}
		q.Body = append(q.Body, a)
	}
	if len(q.Body) == 0 {
		return nil, p.errf(start, "empty body in %q", text[start:end])
	}
	return q, nil
}

// MustParse is Parse but panics on error; for tests and fixtures.
func MustParse(text string) *Query {
	q, err := Parse(text)
	invariant.Must(err)
	return q
}

// src is the raw query text plus the file position of its first byte;
// it converts byte offsets to file positions and carries the low-level
// span helpers of the parser.
type src struct {
	text string
	base Pos
	// nl holds the offset of every '\n' in text, ascending; nil for a
	// single-line text.
	nl []int
}

// span is a half-open byte range [a, b) into the source text.
type span struct{ a, b int }

// str returns the text of a span.
func (p *src) str(s span) string { return p.text[s.a:s.b] }

// newlineOffsets returns the offset of every '\n' in text, or nil when
// there is none.
func newlineOffsets(text string) []int {
	n := strings.Count(text, "\n")
	if n == 0 {
		return nil
	}
	nl := make([]int, 0, n)
	for i := 0; i < len(text); i++ {
		if text[i] == '\n' {
			nl = append(nl, i)
		}
	}
	return nl
}

// pos converts a byte offset into a file position: the line advances
// once per '\n' before off, and the column counts bytes after the last
// of them (from base.Col on the first line).  Offsets past the end
// clamp to it.
func (p *src) pos(off int) Pos {
	if off > len(p.text) {
		off = len(p.text)
	}
	k := sort.SearchInts(p.nl, off) // newlines before off
	if k == 0 {
		return Pos{Line: p.base.Line, Col: p.base.Col + off}
	}
	return Pos{Line: p.base.Line + k, Col: off - p.nl[k-1]}
}

// errf builds a positioned parse error at byte offset off.
func (p *src) errf(off int, format string, args ...any) error {
	return &ParseError{Pos: p.pos(off), Msg: fmt.Sprintf(format, args...)}
}

// trim narrows [a, b) past surrounding whitespace.
func (p *src) trim(a, b int) (int, int) {
	for a < b && isSpace(p.text[a]) {
		a++
	}
	for b > a && isSpace(p.text[b-1]) {
		b--
	}
	return a, b
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// parseEquality parses "left = right" between [ls, le) with '=' at eq,
// normalizing "constant = X" to "X = constant".
func (p *src) parseEquality(ls, le, eq int) (Equality, error) {
	litText := p.text[ls:le]
	la, lb := p.trim(ls, eq)
	ra, rb := p.trim(eq+1, le)
	if la >= lb || ra >= rb {
		return Equality{}, p.errf(ls, "bad equality %q", litText)
	}
	left, right := span{la, lb}, span{ra, rb}
	lt, lerr := p.parseTerm(left)
	rt, rerr := p.parseTerm(right)
	if lerr == nil && lt.IsConst {
		if rerr == nil && rt.IsConst {
			// constant = constant: the paper's syntax requires a
			// variable on one side.
			return Equality{}, p.errf(ls, "equality %q has no variable", litText)
		}
		left, right, lt, lerr, rt, rerr = right, left, rt, rerr, lt, lerr
	}
	if lerr != nil {
		return Equality{}, p.errf(left.a, "bad equality %q: %v", litText, msg(lerr))
	}
	if rerr != nil {
		return Equality{}, p.errf(right.a, "bad equality %q: %v", litText, msg(rerr))
	}
	return Equality{Left: lt.Var, Right: rt, Pos: p.pos(ls)}, nil
}

// isEquality reports whether a body literal is an equality: it holds
// '=' and no '('.
func isEquality(lit string) bool {
	return strings.IndexByte(lit, '=') >= 0 && strings.IndexByte(lit, '(') < 0
}

// argList walks the comma-separated arguments of an atom: n arguments
// in [at, end), each already checked non-empty by splitAtom.
type argList struct{ at, end, n int }

// next returns the next argument, trimmed, or false after the last.
func (l *argList) next(p *src) (span, bool) {
	if l.n == 0 {
		return span{}, false
	}
	l.n--
	b := l.end
	if l.n > 0 {
		b = l.at + strings.IndexByte(p.text[l.at:l.end], ',')
	}
	a, e := p.trim(l.at, b)
	l.at = b + 1
	return span{a, e}, true
}

// splitAtom parses "R(a, b, c)" between [start, end) into the relation
// name, its position, and its argument list.  Every argument is checked
// non-empty before any is parsed, so an empty argument is reported
// ahead of a bad one.
func (p *src) splitAtom(start, end int) (string, Pos, argList, error) {
	text := p.text[start:end]
	open := strings.IndexByte(text, '(')
	if open <= 0 || !strings.HasSuffix(text, ")") {
		return "", Pos{}, argList{}, p.errf(start, "expected name(args)")
	}
	na, nb := p.trim(start, start+open)
	name := p.text[na:nb]
	if name == "" || strings.ContainsAny(name, "(), =\t") {
		return "", Pos{}, argList{}, p.errf(na, "bad relation name %q", name)
	}
	ia, ib := p.trim(start+open+1, end-1)
	if ia >= ib {
		return name, p.pos(na), argList{}, nil
	}
	n := 0
	for at := ia; ; {
		b := ib
		if c := strings.IndexByte(p.text[at:ib], ','); c >= 0 {
			b = at + c
		}
		if aa, ab := p.trim(at, b); aa >= ab {
			return "", Pos{}, argList{}, p.errf(at, "empty argument")
		}
		n++
		if b == ib {
			break
		}
		at = b + 1
	}
	return name, p.pos(na), argList{at: ia, end: ib, n: n}, nil
}

// nextLit returns the body literal starting at at: the span up to the
// next comma outside parentheses, or up to end.
func (p *src) nextLit(at, end int) span {
	depth := 0
	for i := at; i < end; i++ {
		switch p.text[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				return span{at, i}
			}
		}
	}
	return span{at, end}
}

// countBody bounds the body between [start, end) for presizing: its
// atoms, its equalities, and its placeholders (one more than the commas
// of each atom).
func (p *src) countBody(start, end int) (atoms, eqs, vars int) {
	for at := start; at <= end; {
		lit := p.nextLit(at, end)
		at = lit.b + 1
		ls, le := p.trim(lit.a, lit.b)
		switch {
		case ls >= le:
		case isEquality(p.text[ls:le]):
			eqs++
		default:
			atoms++
			vars += 1 + strings.Count(p.text[ls:le], ",")
		}
	}
	return atoms, eqs, vars
}

// parseTerm classifies a token once: a constant when it parses as
// T<type>:<n>, an error when the text before ':' names a type but no
// ordinal follows (a null's T1:_3, or T1:y), else a variable.  So no
// variable reads like a constant or a null.
func (p *src) parseTerm(s span) (Term, error) {
	text := p.str(s)
	v, ok, err := value.TryParse(text)
	switch {
	case ok:
		t := C(v)
		t.Pos = p.pos(s.a)
		return t, nil
	case err != nil:
		return Term{}, p.errf(s.a, "%v", err)
	}
	if text == "" || strings.ContainsAny(text, "(), =") {
		return Term{}, p.errf(s.a, "bad term %q", text)
	}
	t := V(text)
	t.Pos = p.pos(s.a)
	return t, nil
}

// msg strips the "cq: line:col: " prefix when nesting parse errors.
func msg(err error) string {
	if pe, ok := err.(*ParseError); ok {
		return pe.Msg
	}
	return err.Error()
}

// wrap prefixes a parse error's message with context, keeping its
// position; non-ParseErrors pass through a plain fmt wrap.
func wrap(err error, context string) error {
	if pe, ok := err.(*ParseError); ok {
		return &ParseError{Pos: pe.Pos, Msg: context + ": " + pe.Msg}
	}
	return fmt.Errorf("cq: %s: %v", context, err)
}
