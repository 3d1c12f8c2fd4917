// Command keyedeqd serves conjunctive query equivalence decisions over
// HTTP: the batch engine behind a JSON API, with per-request timeouts,
// admission control, graceful drain on SIGTERM/SIGINT, and an optional
// persistent verdict store that warm-starts the cache across restarts.
//
// Usage:
//
//	keyedeqd [-addr :8466] [-store verdicts.log] [-sync-every 64]
//	         [-workers N] [-cache N] [-max-inflight 64] [-per-client 8]
//	         [-timeout 30s] [-drain-timeout 15s]
//
// Endpoints (see internal/serve): POST /v1/decide, /v1/batch (NDJSON),
// /v1/schema/equiv, /v1/schema/dominance; GET /v1/stats, /healthz,
// /readyz, /metrics, /debug/vars, /debug/pprof/...
//
// -cache bounds the daemon's one verdict cache, in entries, shared by
// every schema the requests name; memory does not grow with the number
// of schemas.  A negative -cache turns the cache off, and with it
// persistence: -store then neither records nor warms anything.
//
// With -store, every computed verdict is appended to a log of
// CRC-framed binary records, and the next boot warms the cache with the
// newest verdicts it can hold; a crash (even kill -9) loses at most the
// unsynced tail.  A log
// in the earlier JSON format is rewritten in the binary one at boot.
// -sync-every 1 makes every verdict durable immediately at an
// fsync-per-decision cost.
//
// On SIGTERM or SIGINT the daemon stops admitting work (readyz flips to
// 503, new requests get 429), lets in-flight requests finish within
// -drain-timeout, flushes the store, and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"keyedeq/internal/engine"
	"keyedeq/internal/obs"
	"keyedeq/internal/serve"
	"keyedeq/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("keyedeqd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8466", "listen `address`")
	storePath := fs.String("store", "", "verdict log `file`; empty disables persistence")
	syncEvery := fs.Int("sync-every", 64, "fsync the verdict log every `N` appends (negative: only on drain)")
	workers := fs.Int("workers", 0, "engine worker pool size (0 = GOMAXPROCS)")
	cacheSize := fs.Int("cache", 0, "verdict cache entries, shared by every schema (0 = default 4096, <0 = no cache and no -store records)")
	maxInFlight := fs.Int("max-inflight", 64, "global concurrent request bound")
	perClient := fs.Int("per-client", 8, "per-client (API key or remote address) concurrent request bound")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-decision timeout (requests may set timeout_ms)")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "how long a drain waits for in-flight requests")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "keyedeqd: %v\n", err)
		return 1
	}

	reg := obs.NewRegistry()
	ob := &obs.Obs{Reg: reg, Now: time.Now}

	var log *store.Log
	if *storePath != "" {
		var err error
		log, err = store.Open(*storePath, store.Options{SyncEvery: *syncEvery})
		if err != nil {
			return fail(err)
		}
		defer log.Close()
		rs := log.RecoveryStats()
		fmt.Fprintf(stdout, "keyedeqd: store %s: %d records", *storePath, rs.Records)
		if rs.TruncatedBytes > 0 {
			fmt.Fprintf(stdout, " (truncated %d bytes of torn tail)", rs.TruncatedBytes)
		}
		fmt.Fprintln(stdout)
	}

	srv, err := serve.New(serve.Config{
		Engine: engine.Options{
			Workers:   *workers,
			CacheSize: *cacheSize,
			Now:       time.Now,
		},
		Log:               log,
		Obs:               ob,
		MaxInFlight:       *maxInFlight,
		PerClientInFlight: *perClient,
		DefaultTimeout:    *timeout,
	})
	if err != nil {
		return fail(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	// The smoke tests parse this line to find a :0 listener's port.
	fmt.Fprintf(stdout, "keyedeqd: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fail(err)
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the default way

	fmt.Fprintln(stdout, "keyedeqd: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		// In-flight work outlived the deadline: close connections hard,
		// but still report the dirty drain.
		srv.Close()
		<-serveErr
		return fail(fmt.Errorf("drain: %v", err))
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		return fail(err)
	}
	fmt.Fprintln(stdout, "keyedeqd: drained")
	return 0
}
