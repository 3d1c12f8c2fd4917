package chase

import (
	"math/rand"
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/gen"
)

// This file extends the semi-naive differential gate across the corpus
// families the interned runtime sweeps (keyed, wide, graph-star,
// graph-long): the dense-worklist chase must reach the same fixpoint as
// the full-rescan reference with identical statistics, and the canonical
// database it produces must freeze into an interned view that decodes
// back to exactly the surface tuples — the chase-side half of the
// interned differential wall.

func internedChaseFamilies() []string {
	return []string{"keyed", "wide", "graph-star", "graph-long"}
}

func TestDenseChaseFingerprintsAcrossFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep is slow in -short mode")
	}
	for fi, name := range internedChaseFamilies() {
		name, fi := name, fi
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(4600 + fi)))
			fam, err := gen.PairCorpus(rng, name, 150)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range fam.Pairs {
				for _, q := range []*cq.Query{p.Left, p.Right} {
					semi, naive, semiStats, naiveStats := chaseBoth(t, fam.Schema, fam.Deps, q)
					if semi.Failed() != naive.Failed() {
						t.Fatalf("%s: failed mismatch for %s", p.Note, q)
					}
					if semiStats.Merges != naiveStats.Merges {
						t.Fatalf("%s: merges mismatch: semi=%d naive=%d for %s",
							p.Note, semiStats.Merges, naiveStats.Merges, q)
					}
					if !semi.Failed() && !sameFingerprint(fingerprint(semi), fingerprint(naive)) {
						t.Fatalf("%s: partition mismatch for %s", p.Note, q)
					}

					// The dense worklist preserves requeue order, so two runs
					// of the same chase must report identical statistics.
					again := NewTableau(fam.Schema)
					if _, err := Freeze(again, q); err != nil {
						t.Fatal(err)
					}
					againStats, err := again.Run(fam.Deps)
					if err != nil {
						t.Fatal(err)
					}
					if againStats != semiStats {
						t.Fatalf("%s: chase stats not deterministic: %+v vs %+v for %s",
							p.Note, semiStats, againStats, q)
					}
				}
			}
		})
	}
}

func TestCanonicalDatabaseFreezeRoundTripsAcrossFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep is slow in -short mode")
	}
	for fi, name := range internedChaseFamilies() {
		name, fi := name, fi
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(4700 + fi)))
			fam, err := gen.PairCorpus(rng, name, 60)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range fam.Pairs {
				tb := NewTableau(fam.Schema)
				if _, err := Freeze(tb, p.Left); err != nil {
					t.Fatal(err)
				}
				if _, err := tb.Run(fam.Deps); err != nil {
					t.Fatal(err)
				}
				if tb.Failed() {
					continue
				}
				db, _, err := tb.ToDatabase()
				if err != nil {
					t.Fatal(err)
				}
				fz := db.Frozen()
				for ri, r := range db.Relations {
					tuples := r.Tuples()
					fr := fz.Relations[ri]
					if fr.NumRows() != len(tuples) {
						t.Fatalf("%s: relation %d has %d frozen rows, %d tuples",
							p.Note, ri, fr.NumRows(), len(tuples))
					}
					for i, tup := range tuples {
						dec := fz.DecodeTuple(ri, i)
						for pos := range tup {
							if dec[pos] != tup[pos] {
								t.Fatalf("%s: relation %d row %d decodes to %v, want %v",
									p.Note, ri, i, dec, tup)
							}
						}
					}
				}
			}
		})
	}
}
