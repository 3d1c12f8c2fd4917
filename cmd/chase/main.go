// Command chase runs the key-dependency chase over a conjunctive query's
// canonical database and reports what the dependencies force: derived
// variable equalities, failure (unsatisfiability), and the chased
// canonical instance.  It can also run the two-copy view-FD test.
//
// Usage:
//
//	chase -s "R(k*:T1, a:T2)" -q "V(K, A, B) :- R(K, A), R(K2, B), K = K2."
//	chase -s "R(k*:T1, a:T2)" -q "V(X, Y) :- R(X, Y)." -fd "0->1"
//
// Exit status: 0 success, 1 failing chase / FD does not hold, 2 input
// error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"keyedeq"
	"keyedeq/internal/chase"
	"keyedeq/internal/cq"
	"keyedeq/internal/fd"
	"keyedeq/internal/schema"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chase", flag.ContinueOnError)
	fs.SetOutput(stderr)
	schemaText := fs.String("s", "", "schema (inline)")
	queryText := fs.String("q", "", "conjunctive query")
	fdSpec := fs.String("fd", "", "view FD to test, e.g. \"0,1->2\" over head positions")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "chase:", err)
		return 2
	}
	if *schemaText == "" || *queryText == "" {
		return fail(fmt.Errorf("need -s and -q; see -h"))
	}
	s, err := schema.Parse(*schemaText)
	if err != nil {
		return fail(err)
	}
	q, err := cq.Parse(*queryText)
	if err != nil {
		return fail(err)
	}
	if err := q.Validate(s); err != nil {
		return fail(err)
	}
	deps := fd.KeyFDs(s)
	fmt.Fprintf(stdout, "schema:\n%s\nquery: %s\nkey dependencies: %d\n\n", s, q, len(deps))

	if *fdSpec != "" {
		x, y, err := parseFDSpec(*fdSpec)
		if err != nil {
			return fail(err)
		}
		holds, err := keyedeq.ViewFDHolds(s, deps, q, x, y)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "view FD %v -> %v on q(d) for all key-satisfying d: %v\n", x, y, holds)
		if !holds {
			return 1
		}
		return 0
	}

	tb := chase.NewTableau(s)
	vars, err := chase.Freeze(tb, q)
	if err != nil {
		return fail(err)
	}
	stats, err := tb.Run(deps)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "chase: %d iterations, %d merges\n", stats.Iterations, stats.Merges)
	if tb.Failed() {
		fmt.Fprintln(stdout, "chase FAILED: the query is empty on every key-satisfying instance")
		return 1
	}
	// Report derived equalities among the query's variables.
	seen := map[string]bool{}
	eqc := cq.NewEqClasses(q)
	derived := 0
	for _, v1 := range q.BodyVars() {
		for _, v2 := range q.BodyVars() {
			if v1 >= v2 || seen[string(v1)+"="+string(v2)] {
				continue
			}
			seen[string(v1)+"="+string(v2)] = true
			if tb.Same(vars[v1], vars[v2]) && !eqc.Same(v1, v2) {
				fmt.Fprintf(stdout, "derived: %s = %s\n", v1, v2)
				derived++
			}
		}
	}
	if derived == 0 {
		fmt.Fprintln(stdout, "no new equalities derived")
	}
	db, _, err := tb.ToDatabase()
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "\nchased canonical database:\n%s\n", db)
	return 0
}

// parseFDSpec parses "0,1->2,3".
func parseFDSpec(spec string) (x, y []int, err error) {
	parts := strings.SplitN(spec, "->", 2)
	if len(parts) != 2 {
		return nil, nil, fmt.Errorf("chase: FD spec %q must look like \"0,1->2\"", spec)
	}
	parse := func(s string) ([]int, error) {
		s = strings.TrimSpace(s)
		if s == "" {
			return nil, nil
		}
		var out []int
		for _, tok := range strings.Split(s, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				return nil, fmt.Errorf("chase: bad position %q", tok)
			}
			out = append(out, n)
		}
		return out, nil
	}
	if x, err = parse(parts[0]); err != nil {
		return nil, nil, err
	}
	if y, err = parse(parts[1]); err != nil {
		return nil, nil, err
	}
	return x, y, nil
}
