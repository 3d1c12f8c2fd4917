package exp

import (
	"context"
	"math/rand"
	"testing"

	"keyedeq/internal/cq"
	"keyedeq/internal/gen"
)

// Scratch benchmarks comparing the naive oracle against the adaptive
// default on the H1 corpus's small-instance families, where the
// per-search prologue dominates wall time.

func homBenchCases(b *testing.B, fam string) []HomCase {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	f, err := gen.PairCorpus(rng, fam, 50)
	if err != nil {
		b.Fatal(err)
	}
	cases, err := PrepareHomCases(f)
	if err != nil {
		b.Fatal(err)
	}
	return cases
}

func benchHomMode(b *testing.B, fam string, mode cq.SearchMode) {
	cases := homBenchCases(b, fam)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cases {
			if _, _, err := c.run(ctx, mode); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkHomChainNaive(b *testing.B)    { benchHomMode(b, "graph-chain", cq.SearchNaive) }
func BenchmarkHomChainAdaptive(b *testing.B) { benchHomMode(b, "graph-chain", cq.SearchAdaptive) }
func BenchmarkHomKeyedNaive(b *testing.B)    { benchHomMode(b, "keyed", cq.SearchNaive) }
func BenchmarkHomKeyedAdaptive(b *testing.B) { benchHomMode(b, "keyed", cq.SearchAdaptive) }

func BenchmarkHomWideNaive(b *testing.B)    { benchHomMode(b, "wide", cq.SearchNaive) }
func BenchmarkHomWideAdaptive(b *testing.B) { benchHomMode(b, "wide", cq.SearchAdaptive) }
func BenchmarkHomLongAdaptive(b *testing.B) { benchHomMode(b, "graph-long", cq.SearchAdaptive) }

func BenchmarkHomStarNaive(b *testing.B)    { benchHomMode(b, "graph-star", cq.SearchNaive) }
func BenchmarkHomStarAdaptive(b *testing.B) { benchHomMode(b, "graph-star", cq.SearchAdaptive) }

func BenchmarkHomLongNaive(b *testing.B) { benchHomMode(b, "graph-long", cq.SearchNaive) }
