// Command renamed (rename-daemon) serves long-lived renaming over HTTP
// and an optional binary protocol: clients acquire a small integer
// identity with a TTL lease, keep it alive with renewals, and release
// it when done. Expired leases are reclaimed by a background sweeper,
// so crashed clients only waste a name for one TTL.
//
// The service is the system layer over this repository's algorithm
// stack: transport adapters (HTTP/JSON and internal/wire/binproto)
// drive one internal/service core, which drives lease.Manager, which
// drives a renaming.Namer — by default the LevelArray, whose constant
// expected probe bound is built for exactly this sustained
// acquire/release traffic.
//
// Server mode:
//
//	renamed -addr :8077 -capacity 4096 -algo levelarray -ttl 30s
//
// With -listen-bin the same lease table is additionally served over the
// length-prefixed binary protocol (persistent pipelined connections,
// the leaseclient "bin://host:port" target scheme) — the fast path for
// heartbeat-dominated traffic:
//
//	renamed -addr :8077 -listen-bin :9077
//
// With -data-dir the lease table is durable: every acquire/renew/release/
// expiry is journaled (CRC-framed, append-only, fsync policy via -fsync)
// and periodically compacted into a snapshot. A crashed or killed server
// restarted from the same directory restores every unexpired lease with
// its fencing token — heartbeating clients never notice — and new tokens
// stay strictly above everything issued before the crash:
//
//	renamed -addr :8077 -capacity 4096 -data-dir /var/lib/renamed -fsync interval
//
// The namer can also be configured as a DSN through the renaming package's
// driver registry, which exposes every algorithm tunable as a string:
//
//	renamed -addr :8077 -namer 'levelarray?n=4096&probes=3'
//	renamed -addr :8077 -namer 'rebatching?n=1024&eps=0.5&t0=6'
//	renamed -addr :8077 -namer 'fastadaptive?n=65536&seed=7'
//
// Endpoints (JSON over POST unless noted):
//
//	POST /v1/acquire        {"owner":"w1","ttl_ms":5000,"meta":{...}}
//	                        -> {"name":17,"token":42,"expires_at_ms":...}
//	POST /v1/acquire_batch  {"owner":"w1","count":8,"ttl_ms":5000,"meta":{...}}
//	                        -> {"leases":[{"name":17,"token":42,...},...]}
//	POST /v1/renew          {"name":17,"token":42,"ttl_ms":5000}
//	POST /v1/renew_batch    {"ttl_ms":5000,"items":[{"name":17,"token":42},...]}
//	                        -> {"results":[{"lease":{...}},{"error":"...","code":"expired"},...]}
//	POST /v1/release        {"name":17,"token":42}
//	POST /v1/release_batch  {"items":[{"name":17,"token":42},...]}
//	                        -> {"results":[{},{"error":"...","code":"unknown_name"},...]}
//	POST /v1/resize         {"capacity":8192}   (elastic namers; see -resizable)
//	                        -> {"capacity":8192,"max_live":8192,"epoch":3,"draining":false,
//	                            "results":[{"component":"namer"},{"component":"lease"}]}
//	GET  /v1/leases         -> {"leases":[...]}
//	GET  /healthz           -> ok
//	GET  /metrics           -> Prometheus text exposition (renamed_* series)
//
// Acquisitions are tied to the request context: a client that disconnects
// mid-acquire cancels the probe sequence instead of holding a name nobody
// will ever renew. Batch acquisition is all-or-nothing — count leases or
// an error with nothing held. Batch renew/release are the opposite, per
// item: heartbeating sessions must learn exactly which leases they lost,
// so results are index-aligned with the request and carry typed codes
// (the leaseclient package wraps all of this in a Session).
//
// Load-generator mode hammers a running server and reports throughput;
// -target accepts either scheme (http://host:port or bin://host:port),
// -batch k switches the acquisition phase to batches of k, and
// -sessions n switches to a standing population of n heartbeating
// holders driven through leaseclient sessions (with -churn c churning
// acquire/release clients alongside):
//
//	renamed -load -target http://localhost:8077 -clients 32 -duration 5s
//	renamed -load -target bin://localhost:9077 -clients 32 -batch 8
//	renamed -load -target bin://localhost:9077 -sessions 10000 -lease-ttl 3s
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

	renaming "repro"
	"repro/internal/loadgen"
	"repro/internal/service"
	"repro/lease"
	"repro/lease/persist"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "renamed:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("renamed", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8077", "listen address (server mode)")
		listenBin = fs.String("listen-bin", "", "additional listen address for the binary protocol (bin:// targets); empty disables (server mode)")
		capacity  = fs.Int("capacity", 4096, "maximum concurrently leased names (hard cap, enforced; also sizes the namer)")
		algo      = fs.String("algo", "levelarray", "namer algorithm: levelarray, rebatching, adaptive, fastadaptive, uniform")
		resizable = fs.Bool("resizable", false, "build an elastic namer (levelarray only): POST /v1/resize and the binary TResize op retarget capacity online (server mode)")
		namerDSN  = fs.String("namer", "", "namer DSN, e.g. 'levelarray?n=4096&probes=3' or 'rebatching?n=1024&eps=0.5&t0=6'; overrides -algo/-capacity/-seed (see renaming.Open)")
		ttl       = fs.Duration("ttl", 30*time.Second, "default lease TTL")
		sweep     = fs.Duration("sweep", 0, "reclamation sweep interval (0 = TTL/4)")
		seed      = fs.Uint64("seed", 0, "probe-randomness seed (0 = library default)")
		drain     = fs.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout for in-flight requests (server mode)")
		dataDir   = fs.String("data-dir", "", "durability directory (journal + snapshot); leases survive crash and restart. Empty = in-memory only (server mode)")
		fsyncStr  = fs.String("fsync", "interval", "journal fsync policy with -data-dir: always (durable before reply), interval (bounded loss), never (OS-paced)")
		compact   = fs.Duration("compact-every", 0, "snapshot-compaction check cadence with -data-dir (0 = 1m, negative disables)")
		slowOp    = fs.Duration("slow-op", 250*time.Millisecond, "log a structured slow-operation line (with the request's X-Request-Id) for /v1 handlers slower than this; 0 disables (server mode)")
		pprofOn   = fs.Bool("pprof", false, "expose net/http/pprof profiling under /debug/pprof/ (server mode)")

		load     = fs.Bool("load", false, "run as load generator instead of server")
		target   = fs.String("target", "http://localhost:8077", "server base URL, http:// or bin:// (load mode)")
		clients  = fs.Int("clients", 16, "concurrent clients (load mode)")
		duration = fs.Duration("duration", 5*time.Second, "how long to generate load (load mode)")
		renews   = fs.Int("renews", 2, "renewals per lease before release (load mode)")
		batch    = fs.Int("batch", 1, "names acquired per cycle; > 1 uses batch acquisition (load mode)")

		sessionsN = fs.Int("sessions", 0, "standing heartbeating holders kept alive through leaseclient sessions; > 0 replaces the classic acquire/renew/release cycle (load mode)")
		churn     = fs.Int("churn", 0, "churning acquire/release clients running alongside the -sessions holders (load mode)")
		leaseTTL  = fs.Duration("lease-ttl", 3*time.Second, "requested lease TTL for -sessions holders; heartbeats run at a third of it (load mode)")
	)
	fs.SetOutput(out)
	fs.Usage = func() {
		fmt.Fprintf(out, "Usage: renamed [flags]\n\nFlags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(out, `
Namer DSNs (-namer) follow the renaming.Open grammar, driver?key=value&...:

  levelarray?n=4096&gamma=1&probes=2     long-lived, O(1) probes under churn
  rebatching?n=1024&eps=0.5&t0=6         one-shot, log log n probes
  adaptive?n=65536&t0=6                  names scale with actual contention
  fastadaptive?n=65536                   O(k log log k) total work
  uniform?n=1024&eps=1                   classical baseline
  linearscan?n=1024                      deterministic baseline

All drivers accept seed=<uint64>, padded=<bool>, counting=<bool>.
`)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *load {
		if *sessionsN > 0 {
			rep, err := loadgen.Sessions(*target, *sessionsN, *clients, *churn, *leaseTTL, *duration)
			if err != nil {
				return err
			}
			rep.Print(out)
			return nil
		}
		rep, err := loadgen.Cycles(*target, *clients, *renews, *batch, *duration)
		if err != nil {
			return err
		}
		rep.Print(out)
		return nil
	}

	capacitySet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "capacity" {
			capacitySet = true
		}
	})
	nm, maxLive, desc, err := buildServerNamer(*namerDSN, *algo, *capacity, capacitySet, *seed, *resizable)
	if err != nil {
		return err
	}
	// MaxLive pins the service to the namer's analyzed capacity: beyond it
	// the probe guarantees lapse, so over-capacity acquires get 503 instead
	// of silently degrading toward the backup scan.
	cfg := lease.Config{TTL: *ttl, SweepInterval: *sweep, MaxLive: maxLive}
	var store *persist.Store
	if *dataDir != "" {
		policy, err := persist.ParsePolicy(*fsyncStr)
		if err != nil {
			return err
		}
		store, err = persist.Open(*dataDir, persist.Options{Fsync: policy, CompactEvery: *compact})
		if err != nil {
			return err
		}
		cfg.Observer = store
	}
	mgr, err := lease.New(nm, cfg)
	if err != nil {
		if store != nil {
			store.Close()
		}
		return err
	}
	// On every exit path, shut the pair down in the durable order: with a
	// store, quiesce WITHOUT draining (the disk keeps the leases for the
	// next boot) and snapshot; without one, Close hands every name back.
	// The graceful path below runs the same idempotent sequence earlier
	// and surfaces its error; this backstop only fires on early error
	// returns, where losing the (near-empty) store still deserves a line.
	defer func() {
		if serr := shutdownManager(mgr, store); serr != nil {
			fmt.Fprintln(os.Stderr, "renamed: shutdown:", serr)
		}
	}()
	if store != nil {
		restored, lapsed, err := mgr.Restore(store.State())
		if err != nil {
			return fmt.Errorf("restore from %s: %w", *dataDir, err)
		}
		st := store.Stats()
		fmt.Fprintf(out, "renamed: recovered %d leases (+%d lapsed while down) from %s: journal replayed %d records, %d torn bytes dropped, fsync %s\n",
			restored, lapsed, *dataDir, st.ReplayedRecords, st.TruncatedBytes, *fsyncStr)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "renamed: serving %s (max live %d, namespace %d, ttl %v) on %s\n",
		desc, maxLive, nm.Namespace(), *ttl, ln.Addr())
	handler := newServer(mgr, store)
	handler.slowThreshold = *slowOp
	if *pprofOn {
		handler.enablePprof()
	}
	// The binary transport serves the SAME core on its own port: one
	// lease table, two wires. serveGraceful closes it during shutdown.
	if *listenBin != "" {
		lnBin, err := net.Listen("tcp", *listenBin)
		if err != nil {
			ln.Close()
			return fmt.Errorf("listen-bin %s: %w", *listenBin, err)
		}
		handler.binSrv = service.NewBinServer(handler.core, service.BinConfig{
			SlowThreshold: *slowOp,
			SlowLog:       handler.slowLog,
		})
		fmt.Fprintf(out, "renamed: serving binary protocol (bin://) on %s\n", lnBin.Addr())
		go func() {
			if err := handler.binSrv.Serve(lnBin); err != nil {
				fmt.Fprintln(os.Stderr, "renamed: binary listener:", err)
			}
		}()
	}
	srv := &http.Server{
		Handler: handler,
		// Slow-client bounds: a peer that stalls mid-headers or idles
		// forever must not pin goroutines and file descriptors while
		// legitimate holders' leases expire.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	// SIGINT/SIGTERM trigger a graceful shutdown: stop accepting, drain
	// in-flight requests, then close the manager so every live lease is
	// handed back to the namer instead of orphaned until its TTL.
	// One channel, two receives: the first SIGINT/SIGTERM starts the
	// graceful drain, the second force-quits a hung drain instead of
	// being swallowed for the whole -drain window. The buffer of 2 keeps
	// a rapid double Ctrl-C from dropping the second signal, and a single
	// ordered channel avoids the race a separate late-registered
	// force-quit channel would have (signal.Stop alone does not restore
	// the default disposition — the runtime keeps its handler installed —
	// so the second-signal path must exit explicitly).
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-sigs // first signal: begin the graceful drain
		cancel()
		<-sigs // second signal: force quit
		fmt.Fprintln(os.Stderr, "renamed: second signal, exiting immediately")
		os.Exit(1)
	}()
	return serveGraceful(ctx, srv, ln, mgr, store, *drain, out)
}

// shutdownManager is the one exit sequence for a manager/store pair, on
// every path (graceful drain, listener failure, boot error unwind).
// With a store the leases must SURVIVE: the manager is quiesced without
// draining (Shutdown), then the store writes its final snapshot — the
// next boot replays nothing and restores everything. Without a store the
// classic Close drains every lease back to the namer. Both halves are
// idempotent, so the deferred call after an explicit one is a no-op.
// The returned error is the store's: a failed final flush or snapshot
// means the shutdown was LOSSY (an unflushed journal tail never reached
// disk) and must not masquerade as a clean exit.
func shutdownManager(mgr *lease.Manager, store *persist.Store) error {
	if store == nil {
		return mgr.Close()
	}
	mgr.Shutdown()
	return store.Close()
}

// closeBin shuts the handler's binary listener down, when one is
// attached; its in-flight operations abort with the server context.
func closeBin(srv *http.Server) {
	if h, ok := srv.Handler.(*server); ok && h.binSrv != nil {
		h.binSrv.Close()
	}
}

// serveGraceful runs srv on ln until ctx is cancelled (a shutdown signal
// in production), drains in-flight requests for up to drain, forces any
// stragglers closed, and finally shuts the manager down — preserving the
// lease table on disk when a store is attached, draining it otherwise.
func serveGraceful(ctx context.Context, srv *http.Server, ln net.Listener, mgr *lease.Manager, store *persist.Store, drain time.Duration, out io.Writer) error {
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		// The listener failed on its own; nothing left to drain. A store
		// failure here is just as lossy as on the signal path — say so
		// even when the listener error wins the return value.
		closeBin(srv)
		if serr := shutdownManager(mgr, store); serr != nil {
			fmt.Fprintf(out, "renamed: durable shutdown FAILED: %v\n", serr)
			if err == nil {
				err = serr
			}
		}
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(out, "renamed: shutdown signal, draining for up to %v\n", drain)
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := srv.Shutdown(dctx)
	if err != nil {
		// Drain window elapsed with requests still in flight: cut them.
		srv.Close()
	}
	<-serveErr // srv.Serve has returned http.ErrServerClosed
	// Binary connections are persistent — there is no request boundary to
	// drain to, so they are cut once the HTTP drain is over; heartbeating
	// clients redial the new process and retry inside their TTL budget.
	closeBin(srv)
	// In-flight requests are done: quiesce and (with a store) write the
	// shutdown snapshot. A store error here means the final snapshot or
	// flush failed — the shutdown was lossy, so it must fail loudly, not
	// report "complete" and exit 0.
	if serr := shutdownManager(mgr, store); serr != nil {
		fmt.Fprintf(out, "renamed: durable shutdown FAILED: %v\n", serr)
		if err == nil {
			return fmt.Errorf("durable shutdown: %w", serr)
		}
	}
	// The final metrics snapshot: one structured line after the drain and
	// the durable shutdown, so it reflects everything the process did —
	// including the final compaction. The handler is a *server in
	// production; tests that serve a bare handler get no snapshot.
	if h, ok := srv.Handler.(*server); ok {
		h.logFinalSnapshot(out)
	}
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(out, "renamed: shutdown complete")
	return nil
}

// buildNamer constructs the requested namer through the renaming driver
// registry; every registered algorithm is selectable so operators can
// compare them in situ.
func buildNamer(algo string, capacity int, seed uint64, resizable bool) (renaming.Namer, error) {
	dsn := fmt.Sprintf("%s?n=%d", algo, capacity)
	if seed != 0 {
		dsn += fmt.Sprintf("&seed=%d", seed)
	}
	if resizable {
		// Only the levelarray driver reads the key; any other -algo fails
		// loudly through the registry's unused-parameter check.
		dsn += "&resizable"
	}
	return renaming.Open(dsn)
}

// buildServerNamer resolves the -namer/-algo/-capacity/-seed/-resizable
// flags into a namer plus the MaxLive cap the lease manager should
// enforce. A DSN takes precedence; its capacity cap comes from an
// explicit -capacity flag, else from the namer's own analyzed capacity
// (LongLivedNamer), else 0 (uncapped — the namespace is the only limit).
func buildServerNamer(dsn, algo string, capacity int, capacitySet bool, seed uint64, resizable bool) (nm renaming.Namer, maxLive int, desc string, err error) {
	if dsn == "" {
		nm, err = buildNamer(algo, capacity, seed, resizable)
		return nm, capacity, algo, err
	}
	if resizable {
		return nil, 0, "", fmt.Errorf("-resizable does not combine with -namer; put resizable in the DSN (e.g. %q)", dsn+"&resizable")
	}
	nm, err = renaming.Open(dsn)
	if err != nil {
		return nil, 0, "", err
	}
	switch {
	case capacitySet:
		maxLive = capacity
	default:
		if ll, ok := nm.(renaming.LongLivedNamer); ok {
			maxLive = ll.Capacity()
		}
	}
	return nm, maxLive, dsn, nil
}
