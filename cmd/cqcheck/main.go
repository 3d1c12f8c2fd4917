// Command cqcheck decides conjunctive query containment, equivalence and
// minimization, optionally under key dependencies (via the chase), and
// can evaluate queries against database files and print containment
// certificates and SQL.
//
// Usage:
//
//	cqcheck -s "E(src:T1, dst:T1)" \
//	        -q1 "V(X) :- E(X, Y), E(Y2, Z), Y = Y2." \
//	        -q2 "V(X) :- E(X, Y)." [-keys] [-minimize] [-witness]
//	cqcheck -s @schema.txt -q1 "..." -d data.txt     # evaluate q1
//	cqcheck -s "..." -q1 "..." -sql                  # render q1 as SQL
//
// The -s argument is inline text or @file; -d names a database file in
// the "relation(T1:1, T2:5)" line format.
//
// Exit status: 0 on success, 2 on input error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"keyedeq"
	"keyedeq/internal/cli"
	"keyedeq/internal/instance"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cqcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	schemaText := fs.String("s", "", "schema (inline text or @file)")
	q1Text := fs.String("q1", "", "first query")
	q2Text := fs.String("q2", "", "second query (optional)")
	useKeys := fs.Bool("keys", false, "reason under the schema's key dependencies")
	minimize := fs.Bool("minimize", false, "print a minimal core of -q1")
	witness := fs.Bool("witness", false, "print the homomorphism certificates")
	sql := fs.Bool("sql", false, "render -q1 as SQL")
	dataFile := fs.String("d", "", "database file to evaluate -q1 over")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := cli.Fail(stderr, "cqcheck")
	if *schemaText == "" || *q1Text == "" {
		return fail(fmt.Errorf("need -s and -q1; see -h"))
	}
	s, err := cli.Schema(*schemaText)
	if err != nil {
		return fail(err)
	}
	q1, err := keyedeq.ParseQuery(*q1Text)
	if err != nil {
		return fail(fmt.Errorf("q1: %v", err))
	}
	if err := q1.Validate(s); err != nil {
		return fail(err)
	}
	var deps []keyedeq.FD
	if *useKeys {
		deps = keyedeq.KeyFDs(s)
		fmt.Fprintf(stdout, "reasoning under %d key dependencies\n", len(deps))
	}

	did := false
	if *q2Text != "" {
		did = true
		q2, err := keyedeq.ParseQuery(*q2Text)
		if err != nil {
			return fail(fmt.Errorf("q2: %v", err))
		}
		c12, st12, err := keyedeq.ContainedUnder(q1, q2, s, deps)
		if err != nil {
			return fail(err)
		}
		c21, st21, err := keyedeq.ContainedUnder(q2, q1, s, deps)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "q1 ⊑ q2: %v (search nodes %d)\n", c12, st12.Nodes)
		fmt.Fprintf(stdout, "q2 ⊑ q1: %v (search nodes %d)\n", c21, st21.Nodes)
		fmt.Fprintf(stdout, "equivalent: %v\n", c12 && c21)
		if *witness {
			if h, ok, err := keyedeq.FindHomomorphism(q1, q2, s, deps); err == nil && ok && h != nil {
				fmt.Fprintf(stdout, "certificate q1 ⊑ q2 (q2 vars → q1 terms): %s\n", h)
			}
			if h, ok, err := keyedeq.FindHomomorphism(q2, q1, s, deps); err == nil && ok && h != nil {
				fmt.Fprintf(stdout, "certificate q2 ⊑ q1 (q1 vars → q2 terms): %s\n", h)
			}
		}
	}

	if *minimize {
		did = true
		core, err := keyedeq.MinimizeQuery(q1, s, deps)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "core of q1 (%d of %d atoms):\n%s\n", len(core.Body), len(q1.Body), core)
	}

	if *sql {
		did = true
		out, err := keyedeq.QueryToSQL(q1, s)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, out)
	}

	if *dataFile != "" {
		did = true
		data, err := os.ReadFile(*dataFile)
		if err != nil {
			return fail(err)
		}
		db, err := instance.Parse(s, string(data))
		if err != nil {
			return fail(err)
		}
		ans, err := keyedeq.EvalQuery(q1, db)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "q1 over %s (%d tuples): %s\n", *dataFile, db.Size(), ans)
	}

	if !did {
		fmt.Fprintln(stdout, "q1 is well-formed:", q1)
	}
	return 0
}
