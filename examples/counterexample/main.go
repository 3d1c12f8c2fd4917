// Counterexample hunt: Theorem 13 made executable.  The program
// exhaustively enumerates a space of small keyed schemas and, for every
// non-isomorphic pair, searches for conjunctive query mappings (α, β)
// that would establish equivalence anyway.  Theorem 13 proves the hunt
// must come up empty — and it does.
package main

import (
	"context"
	"fmt"

	"keyedeq"
	"keyedeq/internal/dominance"
	"keyedeq/internal/gen"
)

func main() {
	space := gen.SchemaSpace{MaxRelations: 1, MaxAttrs: 2, Types: 2, AllKeySubsets: true}
	schemas := gen.EnumerateKeyedSchemas(space)
	fmt.Printf("enumerated %d keyed schemas (≤%d relations, ≤%d attrs, %d types)\n\n",
		len(schemas), space.MaxRelations, space.MaxAttrs, space.Types)

	bounds := dominance.SearchBounds{MaxAtoms: 1, MaxEqs: 1, MaxViews: 5000, MaxPairs: 200_000}
	var pairs, isoPairs, equivFound, counterexamples, truncated int
	for i, s1 := range schemas {
		for j := i + 1; j < len(schemas); j++ {
			s2 := schemas[j]
			pairs++
			iso := keyedeq.Isomorphic(s1, s2)
			if iso {
				isoPairs++
			}
			eq, stats, err := keyedeq.SearchEquivalence(context.Background(), s1, s2, bounds, keyedeq.SearchOptions{})
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			if stats.Truncated {
				truncated++
			}
			if eq {
				equivFound++
			}
			if eq && !iso {
				counterexamples++
				fmt.Printf("COUNTEREXAMPLE?!\n%s\nvs\n%s\n\n", s1, s2)
			}
		}
	}
	fmt.Printf("pairs examined:        %d\n", pairs)
	fmt.Printf("isomorphic pairs:      %d\n", isoPairs)
	fmt.Printf("equivalences found:    %d (all of them isomorphic pairs)\n", equivFound)
	fmt.Printf("truncated searches:    %d\n", truncated)
	fmt.Printf("counterexamples:       %d\n", counterexamples)
	if counterexamples == 0 {
		fmt.Println("\nTheorem 13 stands: keyed schemas are conjunctive query")
		fmt.Println("equivalent only when identical up to renaming and re-ordering.")
	}
}
