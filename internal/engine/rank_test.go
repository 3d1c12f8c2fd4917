package engine

import (
	"math/rand"
	"slices"
	"testing"
)

// rankRowsOracle is the comparison ranker the cell sort is held to:
// sort the row indexes lexicographically, then give equal neighbours
// one dense rank.  It writes ranks into out and returns the number of
// distinct rows.
func rankRowsOracle(rows [][]int, out []int) int {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return compareIntRows(rows[a], rows[b]) })
	rank := -1
	for k, i := range idx {
		if k == 0 || compareIntRows(rows[idx[k-1]], rows[i]) != 0 {
			rank++
		}
		out[i] = rank
	}
	return rank + 1
}

// decodeRows turns fuzz bytes into rows to rank.  The first byte
// bounds the leads; then each row takes a control byte and a lead byte.
// The control byte's low three bits give the tail length (0 for a
// lead-only row), and bit 3 starts the row from a prefix of an earlier
// row, which yields duplicates and shared prefixes.  Tail entries are
// signed bytes.
func decodeRows(data []byte) (rows [][]int, lead int) {
	if len(data) == 0 {
		return nil, 1
	}
	lead = 1 + int(data[0])%40
	data = data[1:]
	for len(data) >= 2 && len(rows) < 256 {
		ctrl, first := data[0], int(data[1])%lead
		data = data[2:]
		row := []int{first}
		if ctrl&8 != 0 && len(rows) > 0 {
			prev := rows[int(ctrl>>4)%len(rows)]
			row = append(row[:0], prev[:1+int(ctrl>>4)%len(prev)]...)
		}
		for n := int(ctrl & 7); n > 0 && len(data) > 0; n-- {
			row = append(row, int(int8(data[0])))
			data = data[1:]
		}
		rows = append(rows, row)
	}
	return rows, lead
}

// checkRanks sorts rows as one cell with splitCell and fails unless it
// puts them in the oracle's order, colors each member with the start
// of its run of equal rows, and counts the oracle's distinct rows.  The
// cell starts at an offset, as a cell inside a partition does.
func checkRanks(t *testing.T, rows [][]int) {
	t.Helper()
	const start = 3
	cell := make([]int, len(rows))
	for i := range cell {
		cell[i] = i
	}
	got, want := make([]int, len(rows)), make([]int, len(rows))
	gotN, wantN := splitCell(rows, cell, start, got), rankRowsOracle(rows, want)
	if gotN != wantN {
		t.Fatalf("rows %v: splitCell found %d runs, the oracle %d distinct rows", rows, gotN, wantN)
	}
	run := 0
	for k, i := range cell {
		if k > 0 && want[i] != want[cell[k-1]] {
			if want[i] < want[cell[k-1]] {
				t.Fatalf("rows %v: splitCell order %v puts rank %d after %d", rows, cell, want[i], want[cell[k-1]])
			}
			run = k
		}
		if got[i] != start+run {
			t.Fatalf("rows %v: member %d of the sorted cell has color %d, want its run's start %d", rows, k, got[i], start+run)
		}
	}
}

// FuzzRankRows requires splitCell, which sorts and splits every cell of
// the canonizer's refinement, to order any rows as the comparison
// oracle ranks them.  Each input is split twice, forward and reversed,
// so an order-dependent split would show in the second.
func FuzzRankRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{3, 2, 2, 5, 7, 8, 0, 1, 1, 9, 2, 0, 2})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		// Long inputs with few lead values put more than smallSort rows
		// in one cell, so the large-cell path runs too.
		data := make([]byte, 60+rng.Intn(400))
		rng.Read(data)
		data[0] = byte(i % 6)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, _ := decodeRows(data)
		checkRanks(t, rows)
		slices.Reverse(rows)
		checkRanks(t, rows)
	})
}
