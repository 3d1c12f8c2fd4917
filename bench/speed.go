package main

import (
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The machines this benchmark runs on are shared.  On the recording
// 2-vCPU microVM the speed of plain CPU work switched between phases
// about 50% apart, each lasting seconds to minutes, so two sets of runs
// taken minutes apart could differ by 25% with no code change.  A run
// therefore times a fixed CPU-bound reference kernel between pieces of
// the measured work and reports each time-based metric scaled to a
// machine on which one kernel round takes refNominal.  Each piece of
// work is scaled by the readings just before and just after it.

// pieces is how many pieces a measured window is cut into, with a
// reference reading between pieces.
const pieces = 20

// refNominal is the reference round time the time-based metrics are
// scaled to, close to the round time of the recording machine.
const refNominal = 2500 * time.Microsecond

// refRounds is the kernel rounds per worker in one reading (about 50 ms).
const refRounds = 20

// refInput is the kernel's fixed input; the kernel only reads it, so it
// allocates nothing and no garbage collection of the system under test
// can land inside a reading.
type refInput struct {
	ints  []int
	keys  []string
	index map[string]int
	bytes []byte
}

var refIn = newRefInput()

func newRefInput() *refInput {
	rng := newRand(2)
	in := &refInput{ints: make([]int, 20000), index: map[string]int{}, bytes: make([]byte, 1<<16)}
	for i := range in.ints {
		in.ints[i] = rng.Int()
	}
	for i := 0; i < 5000; i++ {
		k := "k" + strconv.Itoa(rng.Int())
		in.keys = append(in.keys, k)
		in.index[k] = i
	}
	rng.Read(in.bytes)
	return in
}

// refRound is one kernel round: sort a copy of the integers, look every
// key up four times, and hash the bytes.
func refRound(buf []int) int {
	copy(buf, refIn.ints)
	sort.Ints(buf)
	sum := buf[len(buf)/2]
	for r := 0; r < 4; r++ {
		for _, k := range refIn.keys {
			sum += refIn.index[k]
		}
	}
	h := uint32(2166136261)
	for _, b := range refIn.bytes {
		h ^= uint32(b)
		h *= 16777619
	}
	return sum + int(h)
}

// refSpeed takes the reference readings of one run.
type refSpeed struct {
	bufs [][]int // one sort buffer per worker
	sink int     // the kernel's results, kept so the compiler keeps the work
}

func newRefSpeed() *refSpeed {
	s := &refSpeed{bufs: make([][]int, workers)}
	for i := range s.bufs {
		s.bufs[i] = make([]int, len(refIn.ints))
	}
	return s
}

// read times refRounds kernel rounds on each of `workers` goroutines at
// once, after a collection so that none runs during the reading, and
// returns the slowdown: the round time over refNominal, above 1 when the
// machine runs slower than the reference.
func (s *refSpeed) read() float64 {
	runtime.GC()
	sums := make([]int, workers)
	start := now()
	var wg sync.WaitGroup
	for w := range s.bufs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < refRounds; i++ {
				sums[w] += refRound(s.bufs[w])
			}
		}(w)
	}
	wg.Wait()
	took := now().Sub(start)
	for _, v := range sums {
		s.sink += v
	}
	return took.Seconds() / refRounds / refNominal.Seconds()
}

// scaler scales the pieces of measured work of one run.  A piece is
// scaled by the mean slowdown of the readings that bracket it.
type scaler struct {
	ref      *refSpeed
	before   float64 // slowdown read before the current piece
	rates    []float64
	lat, raw []time.Duration
	ops      int
	secs     float64
}

// newScaler takes the reading before the first piece.
func newScaler(ref *refSpeed) *scaler {
	return &scaler{ref: ref, before: ref.read()}
}

// next starts a scaler for the following pieces, reusing the last reading.
func (s *scaler) next() *scaler {
	return &scaler{ref: s.ref, before: s.before}
}

// piece records ops operations done in secs with their latency samples,
// then takes the reading that closes the piece.
func (s *scaler) piece(ops int, secs float64, lat []time.Duration) {
	after := s.ref.read()
	f := (s.before + after) / 2
	s.before = after
	s.rates = append(s.rates, float64(ops)/secs*f)
	for _, l := range lat {
		s.lat = append(s.lat, time.Duration(float64(l)/f))
	}
	s.raw = append(s.raw, lat...)
	s.ops += ops
	s.secs += secs
}

// set reports ops_per_s, the median of the pieces' scaled rates, and
// latency_p90_ms.
func (s *scaler) set(res *result) {
	res.setScaled("ops_per_s", median(s.rates), float64(s.ops)/s.secs, s.ops)
	res.setScaled("latency_p90_ms", ms(quantile(s.lat, 0.90)), ms(quantile(s.raw, 0.90)), len(s.lat))
}

// setSetup reports setup_s, the median scaled set-up, from a scaler
// whose pieces were single set-ups.
func (s *scaler) setSetup(res *result) {
	res.setScaled("setup_s", quantile(s.lat, 0.5).Seconds(), quantile(s.raw, 0.5).Seconds(), len(s.lat))
}
