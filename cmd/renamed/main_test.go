package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/wire"
	"repro/lease"
	"repro/leaseclient"
)

// newTestServer spins a full service stack (LevelArray namer, lease
// manager, HTTP handler) on an httptest listener.
func newTestServer(t *testing.T, capacity int, cfg lease.Config) *httptest.Server {
	t.Helper()
	nm, err := buildNamer("levelarray", capacity, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxLive = capacity // mirror run()'s production wiring
	mgr, err := lease.New(nm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServer(mgr, nil))
	t.Cleanup(func() {
		srv.Close()
		mgr.Close()
	})
	return srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func TestAcquireRenewReleaseRoundTrip(t *testing.T) {
	srv := newTestServer(t, 64, lease.Config{TTL: time.Minute, SweepInterval: -1})

	resp, body := postJSON(t, srv.URL+"/v1/acquire", wire.AcquireRequest{
		Owner: "w1", Meta: map[string]string{"zone": "a"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("acquire status = %d, body %s", resp.StatusCode, body)
	}
	var l wire.Lease
	if err := json.Unmarshal(body, &l); err != nil {
		t.Fatal(err)
	}
	if l.Owner != "w1" || l.Meta["zone"] != "a" || l.ExpiresAtMs == 0 {
		t.Fatalf("acquire response incomplete: %+v", l)
	}

	resp, body = postJSON(t, srv.URL+"/v1/renew", wire.RenewRequest{Name: l.Name, Token: l.Token})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("renew status = %d, body %s", resp.StatusCode, body)
	}
	var renewed wire.Lease
	if err := json.Unmarshal(body, &renewed); err != nil {
		t.Fatal(err)
	}
	if renewed.ExpiresAtMs < l.ExpiresAtMs {
		t.Fatalf("renewal moved expiry backwards: %d -> %d", l.ExpiresAtMs, renewed.ExpiresAtMs)
	}

	// The lease shows up in the listing.
	listResp, err := http.Get(srv.URL + "/v1/leases")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Leases []wire.Lease `json:"leases"`
	}
	if err := json.NewDecoder(listResp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	listResp.Body.Close()
	if len(listing.Leases) != 1 || listing.Leases[0].Name != l.Name {
		t.Fatalf("listing = %+v", listing)
	}
	// Fencing tokens are holder-only capabilities and must never appear in
	// the listing, or any client could hijack any lease.
	if listing.Leases[0].Token != 0 {
		t.Fatalf("listing leaked fencing token %d", listing.Leases[0].Token)
	}

	resp, body = postJSON(t, srv.URL+"/v1/release", wire.ReleaseRequest{Name: l.Name, Token: l.Token})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("release status = %d, body %s", resp.StatusCode, body)
	}
	// Releasing again is a 404: the lease is gone.
	resp, _ = postJSON(t, srv.URL+"/v1/release", wire.ReleaseRequest{Name: l.Name, Token: l.Token})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double release status = %d, want 404", resp.StatusCode)
	}
}

func TestErrorStatusMapping(t *testing.T) {
	srv := newTestServer(t, 1, lease.Config{TTL: time.Minute, SweepInterval: -1})

	// Wrong token -> 409.
	_, body := postJSON(t, srv.URL+"/v1/acquire", wire.AcquireRequest{Owner: "w"})
	var l wire.Lease
	if err := json.Unmarshal(body, &l); err != nil {
		t.Fatal(err)
	}
	resp, _ := postJSON(t, srv.URL+"/v1/renew", wire.RenewRequest{Name: l.Name, Token: l.Token + 99})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("wrong-token renew = %d, want 409", resp.StatusCode)
	}

	// Unknown name -> 404.
	resp, _ = postJSON(t, srv.URL+"/v1/renew", wire.RenewRequest{Name: l.Name + 1, Token: 1})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown renew = %d, want 404", resp.StatusCode)
	}

	// Capacity 1 is a hard cap: a second concurrent lease -> 503.
	resp, _ = postJSON(t, srv.URL+"/v1/acquire", wire.AcquireRequest{Owner: "w"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity acquire = %d, want 503", resp.StatusCode)
	}

	// Malformed body -> 400.
	badResp, err := http.Post(srv.URL+"/v1/acquire", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed acquire = %d, want 400", badResp.StatusCode)
	}
}

// TestExpiredLeaseReclaimed is the acceptance flow: a lease that is never
// renewed lapses, the sweeper returns its name to the pool, and a stale
// renewal is rejected.
func TestExpiredLeaseReclaimed(t *testing.T) {
	srv := newTestServer(t, 1, lease.Config{
		TTL:           20 * time.Millisecond,
		SweepInterval: 5 * time.Millisecond,
	})

	_, body := postJSON(t, srv.URL+"/v1/acquire", wire.AcquireRequest{Owner: "crasher"})
	var l wire.Lease
	if err := json.Unmarshal(body, &l); err != nil {
		t.Fatal(err)
	}

	// Wait out the TTL plus sweeps. Capacity 1 is fully held by the
	// crashed client, so a fresh acquisition succeeding proves its lease
	// was reclaimed and the capacity slot freed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body := postJSON(t, srv.URL+"/v1/acquire", wire.AcquireRequest{Owner: "fresh", TTLms: 60_000})
		if resp.StatusCode == http.StatusOK {
			var nl wire.Lease
			if err := json.Unmarshal(body, &nl); err != nil {
				t.Fatal(err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("expired lease never reclaimed; last acquire = %d %s", resp.StatusCode, body)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The crashed holder's token is dead: renewing with it is 404 or 410
	// (depending on whether the sweeper or a re-acquisition got there first).
	resp, _ := postJSON(t, srv.URL+"/v1/renew", wire.RenewRequest{Name: l.Name, Token: l.Token})
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusGone &&
		resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale renew = %d, want 404/409/410", resp.StatusCode)
	}
}

// TestHugeTTLCappedNotWrapped sends a ttl_ms that would overflow the
// nanosecond multiplication: the lease must come back capped at MaxTTL,
// not defaulted (negative wrap) or arbitrary.
func TestHugeTTLCappedNotWrapped(t *testing.T) {
	srv := newTestServer(t, 4, lease.Config{TTL: time.Second, SweepInterval: -1})
	resp, body := postJSON(t, srv.URL+"/v1/acquire", wire.AcquireRequest{
		Owner: "greedy", TTLms: 9_300_000_000_000_000, // ~295k years in ms
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("huge-ttl acquire = %d, body %s", resp.StatusCode, body)
	}
	var l wire.Lease
	if err := json.Unmarshal(body, &l); err != nil {
		t.Fatal(err)
	}
	// MaxTTL defaults to 10×TTL = 10s; allow slack for wall-clock skew.
	capAt := time.Now().Add(11 * time.Second).UnixMilli()
	if l.ExpiresAtMs > capAt {
		t.Fatalf("expires_at_ms %d beyond the 10s MaxTTL cap (%d)", l.ExpiresAtMs, capAt)
	}
	if l.ExpiresAtMs < time.Now().Add(5*time.Second).UnixMilli() {
		t.Fatalf("expires_at_ms %d collapsed below the requested cap — overflow wrapped", l.ExpiresAtMs)
	}
}

// TestHealthAndNoVars: /healthz answers, and /metrics is the only
// metrics surface — the old expvar /debug/vars is not served.
func TestHealthAndNoVars(t *testing.T) {
	srv := newTestServer(t, 4, lease.Config{TTL: time.Minute, SweepInterval: -1})
	for path, want := range map[string]int{
		"/healthz":    http.StatusOK,
		"/debug/vars": http.StatusNotFound,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestLoadGenerator points the built-in load generator at a test server:
// a short run must complete cycles without a single failure.
func TestLoadGenerator(t *testing.T) {
	srv := newTestServer(t, 256, lease.Config{TTL: time.Minute, SweepInterval: -1})
	rep, err := loadgen.Cycles(srv.URL, 8, 2, 1, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 {
		t.Fatalf("load run had %d failures: %+v", rep.Failures, rep)
	}
	if rep.Acquires == 0 || rep.Releases != rep.Acquires {
		t.Fatalf("unbalanced load run: %+v", rep)
	}
	if rep.Renews != 2*rep.Acquires {
		t.Fatalf("renews = %d, want 2 per acquire: %+v", rep.Renews, rep)
	}
	var out bytes.Buffer
	rep.Print(&out)
	if !strings.Contains(out.String(), "throughput") {
		t.Fatalf("report output missing throughput: %q", out.String())
	}
}

func TestLoadTargetUnreachable(t *testing.T) {
	if _, err := loadgen.Cycles("http://127.0.0.1:1", 1, 0, 1, time.Millisecond); err == nil {
		t.Fatal("loadgen.Cycles against a dead target did not error")
	}
}

func TestBuildNamer(t *testing.T) {
	for _, algo := range []string{"levelarray", "rebatching", "adaptive", "fastadaptive", "uniform"} {
		nm, err := buildNamer(algo, 16, 0, false)
		if err != nil {
			t.Errorf("buildNamer(%q): %v", algo, err)
			continue
		}
		if nm.Namespace() < 16 {
			t.Errorf("buildNamer(%q) namespace %d < capacity", algo, nm.Namespace())
		}
	}
	if _, err := buildNamer("nope", 16, 0, false); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestAcquireBatchEndpoint round-trips the batch-acquire endpoint: count
// distinct leases granted in one request, each individually releasable.
func TestAcquireBatchEndpoint(t *testing.T) {
	srv := newTestServer(t, 64, lease.Config{TTL: time.Minute, SweepInterval: -1})

	resp, body := postJSON(t, srv.URL+"/v1/acquire_batch", wire.AcquireBatchRequest{
		Owner: "batcher", Count: 8, Meta: map[string]string{"job": "j1"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch acquire status = %d, body %s", resp.StatusCode, body)
	}
	var granted wire.Leases
	if err := json.Unmarshal(body, &granted); err != nil {
		t.Fatal(err)
	}
	if len(granted.Leases) != 8 {
		t.Fatalf("granted %d leases, want 8", len(granted.Leases))
	}
	seen := map[int]bool{}
	for _, l := range granted.Leases {
		if seen[l.Name] {
			t.Fatalf("duplicate name %d in batch response", l.Name)
		}
		seen[l.Name] = true
		if l.Owner != "batcher" || l.Meta["job"] != "j1" || l.Token == 0 {
			t.Fatalf("batch lease incomplete: %+v", l)
		}
	}
	for _, l := range granted.Leases {
		resp, body := postJSON(t, srv.URL+"/v1/release", wire.ReleaseRequest{Name: l.Name, Token: l.Token})
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("release batch lease %d = %d, body %s", l.Name, resp.StatusCode, body)
		}
	}
}

// TestAcquireBatchEndpointErrors covers the batch-specific error mapping:
// count <= 0 is 400, count beyond capacity is 503 with nothing granted.
func TestAcquireBatchEndpointErrors(t *testing.T) {
	srv := newTestServer(t, 4, lease.Config{TTL: time.Minute, SweepInterval: -1})

	resp, _ := postJSON(t, srv.URL+"/v1/acquire_batch", wire.AcquireBatchRequest{Owner: "w", Count: 0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("count=0 batch = %d, want 400", resp.StatusCode)
	}

	resp, _ = postJSON(t, srv.URL+"/v1/acquire_batch", wire.AcquireBatchRequest{Owner: "w", Count: 5})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity batch = %d, want 503", resp.StatusCode)
	}

	// All-or-nothing: the failed batch granted nothing, so a full-capacity
	// batch still fits.
	resp, body := postJSON(t, srv.URL+"/v1/acquire_batch", wire.AcquireBatchRequest{Owner: "w", Count: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full-capacity batch after failed batch = %d, body %s", resp.StatusCode, body)
	}
}

// TestLoadGeneratorBatchMode drives the load generator's batch mode
// against a test server: cycles go through /v1/acquire_batch and must
// stay failure-free and balanced.
func TestLoadGeneratorBatchMode(t *testing.T) {
	srv := newTestServer(t, 256, lease.Config{TTL: time.Minute, SweepInterval: -1})
	rep, err := loadgen.Cycles(srv.URL, 4, 1, 8, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 {
		t.Fatalf("batch load run had %d failures: %+v", rep.Failures, rep)
	}
	if rep.Acquires == 0 || rep.Acquires%8 != 0 {
		t.Fatalf("batch acquires = %d, want a positive multiple of 8", rep.Acquires)
	}
	if rep.Releases != rep.Acquires || rep.Renews != rep.Acquires {
		t.Fatalf("unbalanced batch load run: %+v", rep)
	}
}

// TestBuildServerNamer covers the -namer DSN path and its MaxLive
// derivation rules.
func TestBuildServerNamer(t *testing.T) {
	// DSN over a long-lived namer: MaxLive defaults to its capacity.
	nm, maxLive, desc, err := buildServerNamer("levelarray?n=128", "ignored", 4096, false, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if maxLive != 128 || desc != "levelarray?n=128" {
		t.Fatalf("maxLive = %d desc = %q, want 128 and the DSN", maxLive, desc)
	}
	if nm.Namespace() < 128 {
		t.Fatalf("namespace %d < capacity", nm.Namespace())
	}

	// Explicit -capacity wins over the namer's own capacity.
	_, maxLive, _, err = buildServerNamer("levelarray?n=128", "ignored", 32, true, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if maxLive != 32 {
		t.Fatalf("maxLive = %d, want explicit 32", maxLive)
	}

	// One-shot namers have no analyzed capacity: uncapped unless -capacity.
	_, maxLive, _, err = buildServerNamer("rebatching?n=64&t0=6", "ignored", 4096, false, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if maxLive != 0 {
		t.Fatalf("maxLive = %d for one-shot DSN, want 0 (uncapped)", maxLive)
	}

	// A bad DSN fails loudly.
	if _, _, _, err := buildServerNamer("levelarray?n=128&eps=2", "ignored", 0, false, 0, false); err == nil {
		t.Fatal("DSN with inapplicable eps accepted")
	}
}

// TestRenewBatchEndpoint round-trips the batch heartbeat endpoint with a
// mix of outcomes in one request: renewals succeed per item, and each
// failure carries its machine-readable code so clients learn exactly
// which leases they lost.
func TestRenewBatchEndpoint(t *testing.T) {
	srv := newTestServer(t, 64, lease.Config{TTL: time.Minute, SweepInterval: -1})

	_, body := postJSON(t, srv.URL+"/v1/acquire_batch", wire.AcquireBatchRequest{Owner: "hb", Count: 3, TTLms: 5_000})
	var granted wire.Leases
	if err := json.Unmarshal(body, &granted); err != nil {
		t.Fatal(err)
	}
	ls := granted.Leases

	resp, body := postJSON(t, srv.URL+"/v1/renew_batch", wire.RenewBatchRequest{
		TTLms: 30_000,
		Items: []wire.Item{
			{Name: ls[0].Name, Token: ls[0].Token},
			{Name: ls[1].Name, Token: ls[1].Token + 99}, // hijacked token
			{Name: -1, Token: 1},                        // never granted
			{Name: ls[2].Name, Token: ls[2].Token},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("renew_batch status = %d, body %s — per-item failures must not fail the request", resp.StatusCode, body)
	}
	var results wire.BatchResults
	if err := json.Unmarshal(body, &results); err != nil {
		t.Fatal(err)
	}
	if len(results.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(results.Results))
	}
	for _, pair := range [][2]int{{0, 0}, {3, 2}} { // result index -> granted lease index
		r := results.Results[pair[0]]
		if r.Lease == nil || r.Code != "" {
			t.Fatalf("item %d = %+v, want renewed lease", pair[0], r)
		}
		if r.Lease.ExpiresAtMs <= ls[pair[1]].ExpiresAtMs {
			t.Fatalf("item %d renewal did not extend expiry: %d -> %d",
				pair[0], ls[pair[1]].ExpiresAtMs, r.Lease.ExpiresAtMs)
		}
	}
	if got := results.Results[1].Code; got != wire.CodeWrongToken {
		t.Fatalf("hijacked item code = %q, want %q", got, wire.CodeWrongToken)
	}
	if got := results.Results[2].Code; got != wire.CodeUnknownName {
		t.Fatalf("unknown item code = %q, want %q", got, wire.CodeUnknownName)
	}

	// Empty batch: processed, zero results.
	resp, body = postJSON(t, srv.URL+"/v1/renew_batch", wire.RenewBatchRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty renew_batch = %d, body %s", resp.StatusCode, body)
	}
}

// TestReleaseBatchEndpoint covers the batched shutdown path: every held
// lease back in one request, already-gone names reported per item.
func TestReleaseBatchEndpoint(t *testing.T) {
	srv := newTestServer(t, 64, lease.Config{TTL: time.Minute, SweepInterval: -1})

	_, body := postJSON(t, srv.URL+"/v1/acquire_batch", wire.AcquireBatchRequest{Owner: "bye", Count: 4})
	var granted wire.Leases
	if err := json.Unmarshal(body, &granted); err != nil {
		t.Fatal(err)
	}
	items := make([]wire.Item, 0, 5)
	for _, l := range granted.Leases {
		items = append(items, wire.Item{Name: l.Name, Token: l.Token})
	}
	items = append(items, wire.Item{Name: -1, Token: 9}) // never granted

	resp, body := postJSON(t, srv.URL+"/v1/release_batch", wire.ReleaseBatchRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release_batch status = %d, body %s", resp.StatusCode, body)
	}
	var results wire.BatchResults
	if err := json.Unmarshal(body, &results); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if results.Results[i].Code != "" || results.Results[i].Error != "" {
			t.Fatalf("release item %d = %+v, want success", i, results.Results[i])
		}
	}
	if got := results.Results[4].Code; got != wire.CodeUnknownName {
		t.Fatalf("unknown release code = %q, want %q", got, wire.CodeUnknownName)
	}

	// Everything is back in the pool: the full capacity fits again.
	resp, _ = postJSON(t, srv.URL+"/v1/acquire_batch", wire.AcquireBatchRequest{Owner: "next", Count: 64})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full-capacity batch after release_batch = %d", resp.StatusCode)
	}
}

// TestSessionAgainstRealServer is the full-stack integration check: a
// leaseclient.Session heartbeating against the real handler chain
// (HTTP mux -> lease.Manager -> LevelArray) with an aggressive sweeper
// hunting for expired leases. On-time renewals must keep every lease
// alive — OnLost firing means the client and server drifted.
func TestSessionAgainstRealServer(t *testing.T) {
	srv := newTestServer(t, 64, lease.Config{TTL: time.Minute, SweepInterval: 10 * time.Millisecond})

	var lost atomic.Int64
	s, err := leaseclient.NewSession(leaseclient.Config{
		Target: srv.URL,
		Owner:  "integration",
		TTL:    400 * time.Millisecond,
		OnLost: func(int, error) { lost.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	const k = 16
	if _, err := s.AcquireN(context.Background(), k); err != nil {
		t.Fatal(err)
	}

	// Outlive several TTLs under the sweeper's nose.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Renewed < 4*k {
		if time.Now().After(deadline) {
			t.Fatalf("session never reached 4 renewal rounds: %+v", s.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if lost.Load() != 0 {
		t.Fatalf("lost %d leases with on-time renewals", lost.Load())
	}
	listResp, err := http.Get(srv.URL + "/v1/leases")
	if err != nil {
		t.Fatal(err)
	}
	var listing wire.Leases
	if err := json.NewDecoder(listResp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	listResp.Body.Close()
	if len(listing.Leases) != k {
		t.Fatalf("server lists %d live leases mid-session, want %d", len(listing.Leases), k)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("session close: %v", err)
	}
	listResp, err = http.Get(srv.URL + "/v1/leases")
	if err != nil {
		t.Fatal(err)
	}
	listing = wire.Leases{}
	if err := json.NewDecoder(listResp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	listResp.Body.Close()
	if len(listing.Leases) != 0 {
		t.Fatalf("server still lists %d leases after session Close", len(listing.Leases))
	}
}

// TestLoadGeneratorSessionsMode drives the -sessions load mode against a
// test server: holders heartbeat through leaseclient while churners
// cycle alongside, and nothing may be lost or fail.
func TestLoadGeneratorSessionsMode(t *testing.T) {
	srv := newTestServer(t, 256, lease.Config{TTL: time.Minute, SweepInterval: 20 * time.Millisecond})
	rep, err := loadgen.Sessions(srv.URL, 64, 4, 2, 500*time.Millisecond, 1500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 0 {
		t.Fatalf("session load lost %d leases: %+v", rep.Lost, rep)
	}
	if rep.Holders != 64 || rep.Sessions != 4 {
		t.Fatalf("report shape wrong: %+v", rep)
	}
	if rep.Renews < 64 {
		t.Fatalf("renews = %d, want at least one full round for 64 holders", rep.Renews)
	}
	if rep.Heartbeats == 0 || rep.Renews < rep.Heartbeats {
		t.Fatalf("heartbeats %d / renews %d not coalesced: %+v", rep.Heartbeats, rep.Renews, rep)
	}
	if rep.ChurnAcquires == 0 || rep.ChurnFailures != 0 {
		t.Fatalf("churn traffic unhealthy: %+v", rep)
	}
	var out bytes.Buffer
	rep.Print(&out)
	if !strings.Contains(out.String(), "renewal throughput") {
		t.Fatalf("report output missing throughput: %q", out.String())
	}
}
