package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"keyedeq/internal/containment"
	"keyedeq/internal/engine"
	"keyedeq/internal/fd"
	"keyedeq/internal/gen"
	"keyedeq/internal/obs"
	"keyedeq/internal/schema"
	"keyedeq/internal/serve"
	"keyedeq/internal/store"
)

// daemonSyncEvery is keyedeqd's -sync-every default.
const daemonSyncEvery = 64

// storeKeySep joins the schema fingerprint to the pair key in the
// daemon's log records.  The filler records must use it, or boot replay
// would drop them from the live set and compact the log.
const storeKeySep = "\x1d"

// daemon is one keyedeqd handler served over loopback TCP.
type daemon struct {
	log *store.Log
	ts  *httptest.Server
}

func (d *daemon) close() error {
	d.ts.Close()
	return d.log.Close()
}

// discard closes the daemon and deletes its log.
func (d *daemon) discard() error {
	if err := d.close(); err != nil {
		return err
	}
	return os.Remove(d.log.Path())
}

// fillerSchema is the schema of the boot log's records: the wide schema
// renamed, which no workload queries.
func fillerSchema() (*schema.Schema, []fd.FD, map[string]string) {
	ren := map[string]string{"W": "F"}
	s := gen.RenameSchemaRelations(gen.WideSchema(), ren)
	return s, fd.KeyFDs(s), ren
}

// writeFiller writes the log the decide-* daemons boot on: n verdicts
// under the fingerprint of a schema no workload queries, so boot pays
// the whole replay while the filler can never evict a workload verdict
// from the cache.  Keys and stats come from a real decision over that
// schema, making a record about as large as a workload record.
func writeFiller(path string, n int) error {
	s, deps, ren := fillerSchema()
	q1 := gen.RenameRelations(gen.WideChainQuery(12), ren)
	q2 := gen.RenameRelations(gen.WideChainQuery(13), ren)
	holds, st, err := containment.EquivalentUnder(q1, q2, s, deps)
	if err != nil {
		return err
	}
	prefix := engine.Fingerprint(s, deps) + storeKeySep + "equ\x1e" + engine.CanonicalizeQuery(q1, s).Key
	k2 := "\x1f" + engine.CanonicalizeQuery(q2, s).Key
	log, err := store.Open(path, store.Options{SyncEvery: -1})
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := log.Append(store.Record{Key: prefix + "#" + strconv.Itoa(i) + k2, Holds: holds, Stats: st}); err != nil {
			log.Close()
			return err
		}
	}
	return log.Close()
}

// copyFile copies from to to and syncs the copy, so that no writeback of
// it competes with the boot that reads it.
func copyFile(from, to string) error {
	data, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	f, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// bootDaemon boots a daemon on a fresh copy of the filler log and
// returns it with its set-up time: store.Open, serve.New (which replays
// the log), the listener, and the first 200 from GET /readyz.
func bootDaemon(filler, path string, o *obs.Obs) (*daemon, time.Duration, error) {
	if err := copyFile(filler, path); err != nil {
		return nil, 0, err
	}
	start := now()
	log, err := store.Open(path, store.Options{SyncEvery: daemonSyncEvery})
	if err != nil {
		return nil, 0, err
	}
	srv, err := serve.New(serve.Config{Engine: engine.Options{Workers: workers, Now: now}, Log: log, Obs: o})
	if err != nil {
		log.Close()
		return nil, 0, err
	}
	d := &daemon{log: log, ts: httptest.NewServer(srv.Handler())}
	if err := waitReady(d.ts.URL); err != nil {
		d.close()
		return nil, 0, err
	}
	return d, now().Sub(start), nil
}

func waitReady(base string) error {
	c := &http.Client{Transport: &http.Transport{}}
	defer c.CloseIdleConnections()
	for i := 0; i < 1000; i++ {
		resp, err := c.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("daemon at %s never became ready", base)
}

// client is one load-generator connection: a keep-alive transport used
// by a single goroutine.
type client struct {
	hc  *http.Client
	url string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, url: base + "/v1/decide"}
}

type verdict struct {
	Holds    bool `json:"holds"`
	CacheHit bool `json:"cache_hit"`
}

func (c *client) decide(body []byte) (verdict, error) {
	var v verdict
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return v, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return v, err
	}
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return v, json.Unmarshal(data, &v)
}

// phase is what one load phase observed.  Failed requests — transport
// errors, non-200 responses, verdicts that differ from the oracle — are
// counted and left out of the latency samples.
type phase struct {
	attempted, failed, hits int64
	firstErr                error
	lat                     []time.Duration // per successful request
	elapsed                 time.Duration
}

func (p *phase) record(r *request, v verdict, err error, lat time.Duration) {
	p.attempted++
	if err == nil && r.known && v.Holds != r.want {
		err = fmt.Errorf("verdict %v, oracle says %v", v.Holds, r.want)
	}
	if err != nil {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = err
		}
		return
	}
	if v.CacheHit {
		p.hits++
	}
	p.lat = append(p.lat, lat)
}

// stream hands out a workload's requests in order, to every client of
// every segment; with cycle it wraps around, without it it runs out.
type stream struct {
	reqs  []request
	cycle bool
	next  atomic.Int64
}

func (st *stream) take() (*request, bool) {
	i := int(st.next.Add(1) - 1)
	if i >= len(st.reqs) && !st.cycle {
		return nil, false
	}
	return &st.reqs[i%len(st.reqs)], true
}

// closedLoop runs `workers` clients, each on its own keep-alive
// connection, each sending its next request as soon as the previous one
// returns, until dur has passed or the stream runs out.  It adds what it
// observed to p.
func closedLoop(base string, st *stream, dur time.Duration, p *phase) {
	parts := make([]phase, workers)
	start := now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			cl := newClient(base)
			defer cl.hc.CloseIdleConnections()
			for now().Before(deadline) {
				r, ok := st.take()
				if !ok {
					return
				}
				t := now()
				v, err := cl.decide(r.body)
				p.record(r, v, err, now().Sub(t))
			}
		}(&parts[c])
	}
	wg.Wait()
	p.elapsed += now().Sub(start)
	for _, part := range parts {
		p.attempted += part.attempted
		p.failed += part.failed
		p.hits += part.hits
		p.lat = append(p.lat, part.lat...)
		if p.firstErr == nil {
			p.firstErr = part.firstErr
		}
	}
}

func runDecideHot(cfg config, res *result, traceOut io.Writer) error {
	reqs, err := hotRequests(cfg)
	if err != nil {
		return err
	}
	return runDecide(cfg, res, traceOut, reqs, true)
}

func runDecideCold(cfg config, res *result, traceOut io.Writer) error {
	reqs, err := newColdGen(cfg.seed, cfg.oracleSample).requests(int(cfg.coldRate * cfg.window.Seconds()))
	if err != nil {
		return err
	}
	return runDecide(cfg, res, traceOut, reqs, false)
}

// runDecide measures one decide-* workload on the request stream reqs
// (cycled when cycle is set).  Untraced, it takes setup_s from cfg.boots
// boots and runs the closed loop for the window on the last daemon, with
// reference readings around every boot and between the loop's pieces.
// Traced, an untraced and a traced daemon, each booted fresh, run the
// closed loop for half the window each, taking turns piece by piece.
func runDecide(cfg config, res *result, traceOut io.Writer, reqs []request, cycle bool) error {
	filler := filepath.Join(cfg.dir, "filler.log")
	if err := writeFiller(filler, cfg.fillerRecords); err != nil {
		return fmt.Errorf("writing the boot log: %v", err)
	}
	boots := 0
	boot := func(o *obs.Obs) (*daemon, time.Duration, error) {
		boots++
		runtime.GC()
		return bootDaemon(filler, filepath.Join(cfg.dir, fmt.Sprintf("daemon-%d.log", boots)), o)
	}
	// keyedeqd's own Obs: a metrics registry and a clock, no span sink.
	untracedObs := func() *obs.Obs { return &obs.Obs{Reg: obs.NewRegistry(), Now: now} }

	if !cfg.trace {
		var (
			d    *daemon
			took time.Duration
			err  error
		)
		setup := newScaler(newRefSpeed())
		for i := 0; i < cfg.boots; i++ {
			if d != nil {
				if err := d.discard(); err != nil {
					return err
				}
			}
			if d, took, err = boot(untracedObs()); err != nil {
				return err
			}
			setup.piece(1, took.Seconds(), []time.Duration{took})
		}
		defer d.close()
		st := &stream{reqs: reqs, cycle: cycle}
		sc := setup.next()
		var p phase
		var alloc uint64
		for i := 0; i < pieces; i++ {
			n, secs := len(p.lat), p.elapsed
			before := readMem()
			closedLoop(d.ts.URL, st, cfg.window/pieces, &p)
			alloc += readMem().TotalAlloc - before.TotalAlloc
			sc.piece(len(p.lat)-n, (p.elapsed - secs).Seconds(), p.lat[n:])
		}
		if err := tally(res, &p); err != nil {
			return err
		}
		sc.set(res)
		setup.setSetup(res)
		res.set("alloc_kib_per_op", float64(alloc)/1024/float64(p.attempted), int(p.attempted))
		// The latency samples grow with throughput; drop them so the heap
		// reading does not.
		p.lat, sc = nil, nil
		runtime.GC()
		res.set("live_heap_mib", float64(readMem().HeapAlloc)/(1<<20), 0)
		return nil
	}

	// Traced: an untraced and a traced daemon take turns, piece by piece,
	// each on the stream from its start.
	plain, _, err := boot(untracedObs())
	if err != nil {
		return err
	}
	defer plain.discard()
	sink := newLayerSink(traceOut)
	d, _, err := boot(&obs.Obs{Reg: obs.NewRegistry(), Sink: sink, Now: now})
	if err != nil {
		return err
	}
	var base, tp phase
	plainStream, tracedStream := &stream{reqs: reqs, cycle: cycle}, &stream{reqs: reqs, cycle: cycle}
	for i := 0; i < pieces; i++ {
		runtime.GC()
		closedLoop(plain.ts.URL, plainStream, cfg.window/2/pieces, &base)
		runtime.GC()
		closedLoop(d.ts.URL, tracedStream, cfg.window/2/pieces, &tp)
	}
	if err := sink.stop(); err != nil {
		return err
	}
	if err := d.close(); err != nil {
		return err
	}
	if err := tally(res, &base, &tp); err != nil {
		return err
	}

	var sumLat time.Duration
	for _, l := range tp.lat {
		sumLat += l
	}
	sink.sums.setShares(res, float64(sumLat.Nanoseconds()), true)
	res.set("engine.cache_hit_ratio", float64(tp.hits)/float64(len(tp.lat)), len(tp.lat))
	res.set("engine.dedup_ratio", 0, 0)
	res.set("obs.trace_overhead", throughput(&base)/throughput(&tp)-1, 0)
	if err := timeRequestTexts(cfg, res, reqs); err != nil {
		return err
	}
	recs, err := workloadRecords(d.log.Path())
	if err != nil {
		return err
	}
	return timeStore(cfg, res, recs, d.log.Path())
}

func throughput(p *phase) float64 { return float64(len(p.lat)) / p.elapsed.Seconds() }

// timeRequestTexts runs timeTexts on the texts of the first
// cfg.timedItems requests.
func timeRequestTexts(cfg config, res *result, reqs []request) error {
	n := cfg.timedItems
	if n > len(reqs) {
		n = len(reqs)
	}
	items := make([]decideBody, n)
	for i := range items {
		if err := json.Unmarshal(reqs[i].body, &items[i]); err != nil {
			return err
		}
	}
	return timeTexts(res, items)
}

// tally adds the phases' requests to the result, and reports the first
// failure on standard error so a failed run says why.
func tally(res *result, phases ...*phase) error {
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.firstErr != nil {
			fmt.Fprintf(os.Stderr, "bench: %d of %d requests failed; first: %v\n", p.failed, p.attempted, p.firstErr)
		}
		if len(p.lat) == 0 {
			return fmt.Errorf("a load phase completed no request")
		}
	}
	return nil
}

// workloadRecords reads back the verdicts the daemon appended during the
// run: every record of its log outside the filler schema.
func workloadRecords(path string) ([]store.Record, error) {
	s, deps, _ := fillerSchema()
	filler := engine.Fingerprint(s, deps)
	log, err := store.Open(path, store.Options{SyncEvery: -1})
	if err != nil {
		return nil, err
	}
	defer log.Close()
	var out []store.Record
	err = log.Replay(func(r store.Record) error {
		if fp, _, _ := strings.Cut(r.Key, storeKeySep); fp != filler {
			out = append(out, r)
		}
		return nil
	})
	return out, err
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}
