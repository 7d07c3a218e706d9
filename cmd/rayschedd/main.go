// Command rayschedd serves the rayfade scheduling algorithms over HTTP:
// capacity scheduling, latency/multihop scheduling, the non-fading→Rayleigh
// reduction, and Monte-Carlo success estimation, all on netio-format
// topologies. See internal/server for the endpoint catalogue.
//
// Usage:
//
//	rayschedd -addr :8080
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: it stops accepting
// connections, refuses new work (healthz reports "draining"), finishes
// in-flight requests (bounded by -drain-timeout), then drains
// the worker pool.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rayfade/internal/faults"
	"rayfade/internal/obs"
	"rayfade/internal/server"
	"rayfade/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected, so tests can drive it.
func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("rayschedd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		workers     = fs.Int("workers", 0, "compute workers (0 = GOMAXPROCS)")
		queue       = fs.Int("queue", 64, "queued jobs before requests are answered 429")
		cacheSize   = fs.Int("cache", 256, "response cache entries (0 disables)")
		timeout     = fs.Duration("timeout", 30*time.Second, "default per-request compute deadline")
		maxTimeout  = fs.Duration("max-timeout", 5*time.Minute, "cap on request-supplied timeout_ms")
		maxLinks    = fs.Int("max-links", 5000, "largest accepted topology (links)")
		maxBody     = fs.Int64("max-body", 16<<20, "largest accepted request body (bytes)")
		sessions    = fs.Int("sessions", 128, "topology session entries (0 disables the session API)")
		batchLines  = fs.Int("batch-lines", 10000, "largest accepted /v1/estimate/batch request (lines)")
		drain       = fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain window")
		logLevel    = fs.String("log-level", "info", "access-log level: debug, info, warn, error, or off")
		debug       = fs.Bool("debug", false, "mount /debug/obs and /debug/pprof/ (exposes runtime internals)")
		faultSpec   = fs.String("faults", "", `inject deterministic faults, e.g. "seed=1,server.handler=error:0.1,pool.job=panic:0.01"`)
		showVersion = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintf(stdout, "rayschedd %s\n", version.Version)
		return 0
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "rayschedd: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	if *faultSpec != "" {
		inj, err := faults.Parse(*faultSpec)
		if err != nil {
			fmt.Fprintf(stderr, "rayschedd: %v\n", err)
			return 2
		}
		faults.SetDefault(inj)
		defer faults.SetDefault(nil)
		fmt.Fprintf(stderr, "rayschedd: fault injection armed: %s\n", *faultSpec)
	}

	cache := *cacheSize
	if cache == 0 {
		cache = -1 // flag semantics: 0 disables; Config uses negative for that
	}
	sess := *sessions
	if sess == 0 {
		sess = -1
	}
	// The daemon logs JSON records (one access-log line per request) so the
	// output is machine-collectable; "off" keeps the pre-observability
	// silence.
	log := obs.Discard()
	if *logLevel != "off" {
		lvl, err := obs.ParseLevel(*logLevel)
		if err != nil {
			fmt.Fprintf(stderr, "rayschedd: %v\n", err)
			return 2
		}
		log = obs.NewLogger(stderr, lvl, true)
	}
	srv := server.New(server.Config{
		Workers:        *workers,
		QueueSize:      *queue,
		CacheSize:      cache,
		MaxLinks:       *maxLinks,
		MaxBodyBytes:   *maxBody,
		MaxSessions:    sess,
		MaxBatchLines:  *batchLines,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Log:            log,
		Debug:          *debug,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(stdout, "rayschedd %s listening on %s\n", version.Version, *addr)

	select {
	case err := <-errc:
		// ListenAndServe only returns on failure to bind or serve.
		fmt.Fprintf(stderr, "rayschedd: %v\n", err)
		srv.Close()
		return 1
	case <-ctx.Done():
	}

	// Three-phase graceful drain. First flip the server into drain mode: new
	// POSTs answer 503 + Retry-After and /healthz reports "draining", so a
	// cluster coordinator routes around this worker instead of burning lease
	// attempts against a dying socket. Then wait (bounded by -drain-timeout)
	// for queued and in-flight compute to finish, then stop the listener and
	// drain the pool.
	fmt.Fprintln(stdout, "rayschedd: draining")
	srv.SetDraining(true)
	deadline := time.Now().Add(*drain)
	for srv.Busy() && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if srv.Busy() {
		fmt.Fprintf(stderr, "rayschedd: drain window (%s) expired with work in flight\n", *drain)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "rayschedd: shutdown: %v\n", err)
	}
	srv.Close()
	<-errc // ListenAndServe has returned http.ErrServerClosed by now
	return 0
}
