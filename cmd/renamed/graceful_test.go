package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/wire"
	"repro/lease"
)

// newGracefulStack builds the server-mode pieces (namer, manager, HTTP
// server, listener) without going through flag parsing.
func newGracefulStack(t *testing.T, handler http.Handler) (*http.Server, net.Listener, *lease.Manager) {
	t.Helper()
	nm, err := buildNamer("levelarray", 64, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := lease.New(nm, lease.Config{TTL: time.Minute, SweepInterval: -1, MaxLive: 64})
	if err != nil {
		t.Fatal(err)
	}
	if handler == nil {
		handler = newServer(mgr, nil)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return &http.Server{Handler: handler}, ln, mgr
}

// TestServeGracefulShutdown: cancelling the signal context must drain the
// server cleanly — serveGraceful returns nil, the listener stops
// accepting, the manager is closed so every lease went back to the
// namer, and the final metrics snapshot line reports the lease counters.
func TestServeGracefulShutdown(t *testing.T) {
	srv, ln, mgr := newGracefulStack(t, nil)
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- serveGraceful(ctx, srv, ln, mgr, nil, 2*time.Second, &out) }()

	// Prove the server is up and holding a lease before the shutdown.
	resp, body := postJSON(t, base+"/v1/acquire", wire.AcquireRequest{Owner: "w"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-shutdown acquire = %d, body %s", resp.StatusCode, body)
	}
	var l wire.Lease
	if err := json.Unmarshal(body, &l); err != nil {
		t.Fatal(err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveGraceful = %v, want clean shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveGraceful did not return after context cancellation")
	}
	if _, err := mgr.Acquire("late", 0, nil); !errors.Is(err, lease.ErrClosed) {
		t.Fatalf("manager not closed after shutdown: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting connections after shutdown")
	}
	log := out.String()
	if !strings.Contains(log, "shutdown complete") {
		t.Fatalf("shutdown log incomplete: %q", log)
	}
	for _, want := range []string{`msg="final metrics snapshot"`, " acquired=1 ", " live="} {
		if !strings.Contains(log, want) {
			t.Errorf("final snapshot missing %q: %q", want, log)
		}
	}
	// Fields of the deleted HTTP-only series must not come back.
	for _, gone := range []string{" requests=", " renew_p99_us="} {
		if strings.Contains(log, gone) {
			t.Errorf("final snapshot carries %q: %q", gone, log)
		}
	}
}

// TestServeGracefulDrainTimeout: a request still in flight when the drain
// window lapses must be cut, not waited on forever; serveGraceful reports
// the drain failure and still closes the manager.
func TestServeGracefulDrainTimeout(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	hung := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	srv, ln, mgr := newGracefulStack(t, hung)
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- serveGraceful(ctx, srv, ln, mgr, nil, 50*time.Millisecond, &out) }()

	go http.Get(base + "/hang")
	<-entered // the request is in flight
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("serveGraceful = nil, want drain-timeout error with a hung request")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveGraceful hung past its drain timeout")
	}
	if _, err := mgr.Acquire("late", 0, nil); !errors.Is(err, lease.ErrClosed) {
		t.Fatalf("manager not closed after forced shutdown: %v", err)
	}
}

// TestLoadReportUsesMeasuredElapsed: throughput must be computed over the
// measured wall time, not the configured duration — workers finish their
// in-flight cycle past the deadline, and dividing by the configured
// duration overstated ops/sec.
func TestLoadReportUsesMeasuredElapsed(t *testing.T) {
	srv := newTestServer(t, 256, lease.Config{TTL: time.Minute, SweepInterval: -1})
	const configured = 100 * time.Millisecond
	rep, err := loadgen.Cycles(srv.URL, 4, 1, 1, configured)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Elapsed < configured {
		t.Fatalf("Elapsed %v < configured %v; not measured wall time", rep.Elapsed, configured)
	}
	total := rep.Acquires + rep.Renews + rep.Releases
	want := float64(total) / rep.Elapsed.Seconds()
	if math.Abs(rep.OpsPerSec-want) > 1e-6*want {
		t.Fatalf("OpsPerSec = %v, want total/elapsed = %v", rep.OpsPerSec, want)
	}
	if rep.Acquires > 0 && (rep.AcquireLat.P99 <= 0 || rep.AcquireLat.P99 < rep.AcquireLat.P50) {
		t.Fatalf("acquire latency summary inconsistent: %+v", rep.AcquireLat)
	}
	var out bytes.Buffer
	rep.Print(&out)
	if !strings.Contains(out.String(), "latency") {
		t.Fatalf("report missing latency line: %q", out.String())
	}
}
