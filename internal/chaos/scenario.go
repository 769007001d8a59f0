package chaos

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
	"repro/lease/persist"
	"repro/leaseclient"
)

// Scenario is one named, composed adversary: which faults run, how many
// sessions push against them, and for how sharp a TTL.
type Scenario struct {
	Name        string
	Description string

	// Clients is how many concurrent sessions run; LeasesEach is the
	// standing lease population per session.
	Clients    int
	LeasesEach int
	// TTL is the lease TTL requested by every session (and configured as
	// the server default). Heartbeats run at TTL/3.
	TTL time.Duration

	// Proxy is the wire-level fault mix; Transport the call-level one.
	Proxy     Faults
	Transport TransportFaults
	// Crash, when set, runs the kill/restart scheduler.
	Crash *CrashSchedule
	// Skews are per-client clock offsets, assigned round-robin. Empty
	// means every client keeps real time.
	Skews []time.Duration
	// PartitionEvery/PartitionFor generate black-hole windows across the
	// fault phase, alternating client groups; zero disables.
	PartitionEvery, PartitionFor time.Duration
	// Churn is the per-tick probability (per client, ~4 ticks/sec) of
	// releasing one lease and acquiring a fresh one.
	Churn float64
	// Resize, when set, plays an operator retargeting the namespace
	// online while sessions churn against it: the server starts at
	// Resize.Base (-capacity, -resizable), cycles through Resize.Steps
	// during the fault phase, and returns to Base when the heal phase
	// begins. Every applied retarget feeds the checker's capacity
	// timeline (invariant 6).
	Resize *ResizePlan
}

// ResizePlan shapes the resize adversary.
type ResizePlan struct {
	// Base is the capacity the server boots with and returns to for the
	// heal phase.
	Base int
	// Steps are the target capacities cycled through, in order, during
	// the fault phase. Steps below the standing lease population force
	// shrink-below-live: holders drain out while fresh acquires bounce
	// off the cap.
	Steps []int
	// Every is the nominal interval between retargets; each wait adds
	// seeded jitter of up to a quarter interval.
	Every time.Duration
}

// Options configures one run of a scenario.
type Options struct {
	// Seed parameterizes every random stream in the run. The same seed
	// reproduces the same fault schedule.
	Seed uint64
	// Duration is the whole run, heal phase included.
	Duration time.Duration
	// Binary is the renamed binary to run.
	Binary string
	// WorkDir holds the data directory; it must exist. A temp dir.
	WorkDir string
	// Transport selects the wire under test: "bin" (default) or "http".
	Transport string
	// Inject re-introduces a known-fixed bug so the harness can prove it
	// still catches it. Known values:
	//   no-call-timeout — sessions run with CallTimeout disabled, the
	//     pre-fix behavior where a black-holed call wedges forever.
	Inject string
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// Report is the machine-readable outcome of one run.
type Report struct {
	Scenario    string         `json:"scenario"`
	Description string         `json:"description"`
	Seed        uint64         `json:"seed"`
	Transport   string         `json:"transport"`
	Inject      string         `json:"inject,omitempty"`
	Start       time.Time      `json:"start"`
	Duration    time.Duration  `json:"duration_ns"`
	Clients     int            `json:"clients"`
	Checker     CheckerStats   `json:"checker"`
	Proxy       ProxyStats     `json:"proxy"`
	CallFaults  TransportStats `json:"call_faults"`
	// TransportErrors aggregates every session's failed round trips —
	// the evidence that injected corruption was DETECTED, not absorbed.
	TransportErrors int64       `json:"transport_errors"`
	Crashes         int64       `json:"crashes"`
	Resizes         int64       `json:"resizes,omitempty"`
	Violations      []Violation `json:"violations"`
	AuditLive       int         `json:"audit_live_leases"`
	AuditToken      uint64      `json:"audit_max_token"`
	AuditTorn       int64       `json:"audit_torn_bytes"`
	ServerMetrics   string      `json:"server_metrics,omitempty"`
	Pass            bool        `json:"pass"`
}

// Print renders the human summary.
func (r *Report) Print(w io.Writer) {
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(w, "chaos %s: %s (seed %d, %s, %v, %d clients)\n",
		r.Scenario, status, r.Seed, r.Transport, r.Duration.Round(time.Millisecond), r.Clients)
	fmt.Fprintf(w, "  leases: %d acquired, %d released, %d lost, %d names, max token %d\n",
		r.Checker.Acquired, r.Checker.Released, r.Checker.Lost, r.Checker.Names, r.Checker.MaxToken)
	fmt.Fprintf(w, "  proxy: %d conns, %d chunks, %d dropped, %d delayed, %d reordered, %d resets, %d corrupted, %d blackholed\n",
		r.Proxy.Conns, r.Proxy.Chunks, r.Proxy.Dropped, r.Proxy.Delayed, r.Proxy.Reordered, r.Proxy.Resets, r.Proxy.Corrupted, r.Proxy.Blackholed)
	if r.Proxy.Corrupted > 0 {
		fmt.Fprintf(w, "  corruption: %d chunks damaged, %d transport errors observed\n",
			r.Proxy.Corrupted, r.TransportErrors)
	}
	fmt.Fprintf(w, "  calls: %d dup renews, %d dup releases, %d deferred; crashes: %d\n",
		r.CallFaults.DupRenews, r.CallFaults.DupReleases, r.CallFaults.Deferred, r.Crashes)
	if r.Resizes > 0 {
		fmt.Fprintf(w, "  resizes: %d capacity retargets applied\n", r.Resizes)
	}
	fmt.Fprintf(w, "  audit: %d live leases, watermark %d, %d torn bytes\n",
		r.AuditLive, r.AuditToken, r.AuditTorn)
	if len(r.Violations) == 0 {
		fmt.Fprintf(w, "  invariants: all clean\n")
		return
	}
	fmt.Fprintf(w, "  VIOLATIONS (%d):\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(w, "    [%s] %s\n", v.Invariant, v.Detail)
	}
}

// Scenarios is the named-adversary registry, keyed by name.
func Scenarios() map[string]Scenario {
	list := []Scenario{
		{
			Name:        "healthy",
			Description: "no faults at all — the baseline every invariant must trivially pass",
			Clients:     4, LeasesEach: 8, TTL: 3 * time.Second,
			Churn: 0.3,
		},
		{
			Name:        "lossy",
			Description: "dropped and delayed chunks with occasional mid-frame resets",
			Clients:     5, LeasesEach: 10, TTL: 3 * time.Second,
			Proxy: Faults{Drop: 0.03, Delay: 0.25, DelayMax: 40 * time.Millisecond, Reset: 0.004},
			Churn: 0.3,
		},
		{
			Name:        "corrupt",
			Description: "bytes flipped in flight — framing intact, content damaged; every corruption must be caught by the payload CRC, never accepted as data",
			Clients:     5, LeasesEach: 10, TTL: 3 * time.Second,
			Proxy: Faults{Corrupt: 0.04, Delay: 0.15, DelayMax: 25 * time.Millisecond},
			Churn: 0.3,
		},
		{
			Name:        "partition",
			Description: "alternating client groups black-holed for windows shorter than the TTL",
			Clients:     6, LeasesEach: 8, TTL: 4 * time.Second,
			Proxy:          Faults{Groups: 2},
			PartitionEvery: 4 * time.Second, PartitionFor: 1500 * time.Millisecond,
			Churn: 0.2,
		},
		{
			Name:        "crash-storm",
			Description: "SIGKILL and restart against the same data dir, fsync always",
			Clients:     4, LeasesEach: 8, TTL: 5 * time.Second,
			Crash: &CrashSchedule{MinUp: 1500 * time.Millisecond, MaxUp: 3 * time.Second,
				MinDown: 200 * time.Millisecond, MaxDown: 700 * time.Millisecond},
			Churn: 0.2,
		},
		{
			Name:        "skew",
			Description: "client clocks offset both directions; schedules shift, safety must not",
			Clients:     5, LeasesEach: 8, TTL: 6 * time.Second,
			Skews: []time.Duration{-2 * time.Second, -time.Second, 0, time.Second, 2 * time.Second},
			Churn: 0.3,
		},
		{
			Name:        "dup-reorder",
			Description: "duplicated renew/release calls over a delaying, reordering wire",
			Clients:     5, LeasesEach: 10, TTL: 3 * time.Second,
			Proxy:     Faults{Delay: 0.3, DelayMax: 30 * time.Millisecond, Reorder: 0.05},
			Transport: TransportFaults{DupRenew: 0.2, DupRelease: 0.2, Defer: 0.2, DeferMax: 40 * time.Millisecond},
			Churn:     0.4,
		},
		{
			Name:        "resize-churn",
			Description: "online grow/shrink retargets racing lease churn over a delaying wire — no grant may exceed the instantaneous capacity, and every shrink must eventually quiesce",
			Clients:     5, LeasesEach: 8, TTL: 3 * time.Second,
			Proxy:  Faults{Delay: 0.2, DelayMax: 25 * time.Millisecond},
			Churn:  0.5,
			Resize: &ResizePlan{Base: 64, Steps: []int{192, 48, 256, 32, 128}, Every: 2 * time.Second},
		},
		{
			Name:        "kitchen-sink",
			Description: "everything at once: loss, partitions, crashes, skew, duplication",
			Clients:     6, LeasesEach: 8, TTL: 5 * time.Second,
			Proxy:          Faults{Drop: 0.015, Delay: 0.2, DelayMax: 30 * time.Millisecond, Reset: 0.002, Groups: 2},
			Transport:      TransportFaults{DupRenew: 0.1, DupRelease: 0.1, Defer: 0.1, DeferMax: 30 * time.Millisecond},
			Crash:          &CrashSchedule{MinUp: 4 * time.Second, MaxUp: 8 * time.Second, MinDown: 200 * time.Millisecond, MaxDown: 600 * time.Millisecond},
			Skews:          []time.Duration{-time.Second, 0, time.Second},
			PartitionEvery: 6 * time.Second, PartitionFor: 1200 * time.Millisecond,
			Churn: 0.25,
		},
	}
	m := make(map[string]Scenario, len(list))
	for _, s := range list {
		m[s.Name] = s
	}
	return m
}

// ScenarioNames lists the registry in stable order.
func ScenarioNames() []string {
	m := Scenarios()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// freePort reserves an ephemeral port and releases it for the server to
// bind: the address stays stable across crash restarts.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// Run executes one scenario end to end: real server process, fault
// proxy, real sessions, invariant checker, post-run journal audit.
//
//lint:wallclock the run clock frames real subprocess and socket activity; everything schedule-shaping draws from rng(seed, label)
func Run(ctx context.Context, sc Scenario, opts Options) (*Report, error) {
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "chaos: "+format+"\n", args...)
		}
	}
	if opts.Transport == "" {
		opts.Transport = "bin"
	}
	if opts.Transport != "bin" && opts.Transport != "http" {
		return nil, fmt.Errorf("chaos: transport %q (want bin or http)", opts.Transport)
	}
	if opts.Duration < 4*sc.TTL {
		// The heal phase alone needs ~2 TTLs for sessions to recover and
		// prove invariant 5 fairly.
		opts.Duration = 4 * sc.TTL
		logf("duration raised to %v (4x TTL %v)", opts.Duration, sc.TTL)
	}

	httpAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	binAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(opts.WorkDir, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}

	srvCfg := ServerConfig{
		Binary:   opts.Binary,
		DataDir:  dataDir,
		HTTPAddr: httpAddr,
		BinAddr:  binAddr,
		TTL:      sc.TTL,
		Fsync:    "always",
		Stdout:   opts.Log,
	}
	if sc.Resize != nil {
		if sc.Resize.Base <= 0 || len(sc.Resize.Steps) == 0 || sc.Resize.Every <= 0 {
			return nil, fmt.Errorf("chaos: degenerate resize plan %+v", *sc.Resize)
		}
		srvCfg.Capacity = sc.Resize.Base
		srvCfg.Resizable = true
	}
	srv, err := StartServer(srvCfg)
	if err != nil {
		return nil, err
	}
	defer srv.Stop(10 * time.Second) // backstop; the happy path stops explicitly below

	upstream := binAddr
	if opts.Transport == "http" {
		upstream = httpAddr
	}

	// Generate the partition windows inside the fault phase. The run's
	// last quarter (at least 2 TTLs) is the heal phase: every fault goes
	// quiet so sessions must demonstrably recover.
	start := time.Now()
	faultPhase := opts.Duration * 3 / 4
	if opts.Duration-faultPhase < 2*sc.TTL {
		faultPhase = opts.Duration - 2*sc.TTL
	}
	proxyFaults := sc.Proxy
	if sc.PartitionEvery > 0 {
		if proxyFaults.Groups < 2 {
			proxyFaults.Groups = 2
		}
		r := rng(opts.Seed, "partitions")
		group := 0
		for at := sc.PartitionEvery; at+sc.PartitionFor < faultPhase; at += sc.PartitionEvery + durBetween(r, 0, sc.PartitionEvery/2) {
			proxyFaults.Partitions = append(proxyFaults.Partitions, Window{At: at, For: sc.PartitionFor, Group: group})
			group = (group + 1) % proxyFaults.Groups
		}
	}

	proxy, err := NewProxy(upstream, opts.Seed, proxyFaults)
	if err != nil {
		srv.Stop(5 * time.Second)
		return nil, err
	}
	defer proxy.Close()
	logf("server on %s (http) / %s (bin), proxy on %s -> %s, %d partition windows",
		httpAddr, binAddr, proxy.Addr(), upstream, len(proxyFaults.Partitions))

	checker := NewChecker(sc.TTL)
	if sc.Resize != nil {
		// Seed the capacity timeline before any grant can be judged
		// against it.
		checker.CapacityChanged(start, sc.Resize.Base)
	}
	// Probabilistic faults cover the whole fault phase; windows and
	// crashes register themselves as they happen.
	probabilistic := sc.Proxy.Drop > 0 || sc.Proxy.Delay > 0 || sc.Proxy.Reorder > 0 ||
		sc.Proxy.Reset > 0 || sc.Proxy.Corrupt > 0 || sc.Proxy.ByteRate > 0 ||
		sc.Transport.DupRenew > 0 || sc.Transport.DupRelease > 0 || sc.Transport.Defer > 0
	if probabilistic {
		checker.Fault(start, start.Add(faultPhase).Add(sc.TTL), "probabilistic")
	}
	for _, w := range proxyFaults.Partitions {
		// A partition can starve heartbeats into the next TTL; pad the
		// window by one TTL so recovery-phase losses stay excused.
		checker.Fault(start.Add(w.At), start.Add(w.At+w.For+sc.TTL), "partition")
	}
	for i := range sc.Skews {
		if sc.Skews[i] != 0 {
			// A skewed clock shifts schedules for the whole run.
			checker.Fault(start, start.Add(opts.Duration), "skew")
			break
		}
	}

	// The shared fault gate: flipped off at heal time.
	var active atomic.Bool
	active.Store(true)

	// Sessions, each with its own seeded jitter stream and (possibly
	// skewed) clock, all dialing through the proxy.
	target := "bin://" + proxy.Addr()
	if opts.Transport == "http" {
		target = "http://" + proxy.Addr()
	}
	callTimeout := sc.TTL / 4
	if opts.Inject == "no-call-timeout" {
		callTimeout = -1 // the pre-fix unbounded client
	} else if opts.Inject != "" {
		proxy.Close()
		srv.Stop(5 * time.Second)
		return nil, fmt.Errorf("chaos: unknown injection %q", opts.Inject)
	}

	type clientRun struct {
		sess  *leaseclient.Session
		hooks *Client
		ft    *FaultTransport
	}
	clients := make([]*clientRun, sc.Clients)
	for i := range clients {
		hooks := checker.Client(i)
		var skew time.Duration
		if len(sc.Skews) > 0 {
			skew = sc.Skews[i%len(sc.Skews)]
		}
		inner, err := leaseclient.NewTransportTimeout(target, callTimeout)
		if err != nil {
			proxy.Close()
			srv.Stop(5 * time.Second)
			return nil, err
		}
		ft := WrapTransport(inner, opts.Seed, fmt.Sprintf("client/%d", i), sc.Transport, &active)
		jitter := rng(opts.Seed, fmt.Sprintf("session/%d", i))
		sess, err := leaseclient.NewSession(leaseclient.Config{
			Transport:   ft,
			Owner:       fmt.Sprintf("chaos-%d", i),
			TTL:         sc.TTL,
			CallTimeout: callTimeout,
			Now:         SkewedClock(skew),
			Rand:        jitter.Float64,
			OnLost:      hooks.LostFunc(),
		})
		if err != nil {
			proxy.Close()
			srv.Stop(5 * time.Second)
			return nil, err
		}
		clients[i] = &clientRun{sess: sess, hooks: hooks, ft: ft}
	}

	// Seed the lease population. The server may be mid-crash already in
	// pathological schedules, so acquire with patience.
	for i, cr := range clients {
		var acquired []leaseclient.Lease
		for attempt := 0; len(acquired) == 0 && attempt < 10; attempt++ {
			ls, err := cr.sess.AcquireN(ctx, sc.LeasesEach)
			if err == nil {
				acquired = ls
				break
			}
			time.Sleep(200 * time.Millisecond)
		}
		if len(acquired) == 0 {
			logf("client %d failed to seed its leases", i)
			continue
		}
		cr.hooks.Acquired(acquired...)
	}

	runCtx, cancelRun := context.WithDeadline(ctx, start.Add(opts.Duration))
	defer cancelRun()
	faultCtx, cancelFaults := context.WithDeadline(ctx, start.Add(faultPhase))
	defer cancelFaults()

	var wg sync.WaitGroup

	// Crash scheduler.
	var crashErr error
	if sc.Crash != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			crashErr = srv.CrashLoop(faultCtx, opts.Seed, *sc.Crash,
				func(t time.Time) {
					// Downtime plus a TTL of recovery grace is an excused
					// window; the next onUp only narrows it.
					checker.Fault(t, t.Add(sc.TTL*2), "crash")
					logf("server killed")
				},
				func(time.Time) { logf("server restarted") })
		}()
	}

	// Churn drivers: one per client, seeded independently.
	for i, cr := range clients {
		wg.Add(1)
		go func(i int, cr *clientRun) {
			defer wg.Done()
			r := rng(opts.Seed, fmt.Sprintf("churn/%d", i))
			ticker := time.NewTicker(250 * time.Millisecond)
			defer ticker.Stop()
			for {
				select {
				case <-faultCtx.Done():
					return
				case <-ticker.C:
				}
				if r.Float64() >= sc.Churn {
					continue
				}
				held := cr.sess.Leases()
				if len(held) == 0 {
					continue
				}
				victim := held[r.IntN(len(held))]
				cr.hooks.ReleaseSent(victim.Name, victim.Token)
				// A failed release is interesting, not an error: either the
				// server refused (already gone) or the transport dropped it
				// and the session re-adopted — the sampler's next Observe
				// reopens the belief in that case.
				if err := cr.sess.Release(runCtx, victim.Name); err == nil {
					if ls, err := cr.sess.AcquireN(runCtx, 1); err == nil {
						cr.hooks.Acquired(ls...)
					}
				}
			}
		}(i, cr)
	}

	// Resize driver: retargets the namespace through the fault phase on
	// a seeded cadence, then returns it to base for the heal phase. The
	// admin calls go DIRECTLY to the server, not through the proxy —
	// resize is operator traffic, not the wire under test, and judging
	// invariant 6 against a capacity report the proxy delayed or dropped
	// would test the harness, not the server.
	var resizesApplied atomic.Int64
	if sc.Resize != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng(opts.Seed, "resize")
			step := 0
			for {
				wait := sc.Resize.Every + durBetween(r, 0, sc.Resize.Every/4)
				select {
				case <-faultCtx.Done():
					// Heal: the recovery phase runs against the base
					// geometry, with whatever drain the last shrink left.
					if st, err := postResize(httpAddr, sc.Resize.Base); err == nil {
						checker.CapacityChanged(time.Now(), st.Capacity)
						resizesApplied.Add(1)
					}
					return
				case <-time.After(wait):
				}
				target := sc.Resize.Steps[step%len(sc.Resize.Steps)]
				step++
				st, err := postResize(httpAddr, target)
				if err != nil {
					logf("resize to %d failed: %v", target, err)
					continue
				}
				checker.CapacityChanged(time.Now(), st.Capacity)
				resizesApplied.Add(1)
				logf("resized to %d (epoch %d, draining %v)", st.Capacity, st.Epoch, st.Draining)
			}
		}()
	}

	// Sampler: refresh belief expiries from every session.
	samplerDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(samplerDone)
		ticker := time.NewTicker(25 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-ticker.C:
				for _, cr := range clients {
					cr.hooks.Observe(cr.sess.Leases())
				}
			}
		}
	}()

	<-faultCtx.Done()
	active.Store(false)
	logf("fault phase over (%v); healing", faultPhase.Round(time.Millisecond))
	<-runCtx.Done()
	wg.Wait()
	if crashErr != nil {
		proxy.Close()
		return nil, fmt.Errorf("chaos: crash scheduler: %w", crashErr)
	}

	// Final observation sweep, then freeze the run clock for invariants.
	for _, cr := range clients {
		cr.hooks.Observe(cr.sess.Leases())
	}
	end := time.Now()

	// Teardown. Severing first releases any wedged round trip (the
	// injected-bug case) so Close can always finish; sessions then
	// redial through the still-open proxy and release cleanly.
	proxy.SeverConns()
	for _, cr := range clients {
		for _, l := range cr.sess.Leases() {
			cr.hooks.ReleaseSent(l.Name, l.Token)
		}
		cr.hooks.Closed()
		cr.sess.Close()
	}

	// Shrink-quiesce (resize runs only): with every session closed and
	// its releases landed, any name still draining above the base bound
	// can only be an expired straggler — the sweeper must reclaim it
	// within a couple of TTLs, after which the drain state clears for
	// good. A drain that never clears means the shrink wedged. The probe
	// is an idempotent same-capacity resize: its response reports the
	// authoritative drain state.
	var quiesce *Violation
	if sc.Resize != nil {
		deadline := time.Now().Add(2*sc.TTL + 2*time.Second)
		for {
			st, err := postResize(httpAddr, sc.Resize.Base)
			if err == nil && !st.Draining {
				break
			}
			if time.Now().After(deadline) {
				detail := "shrink never quiesced: drain state still set after every session released and expiries passed"
				if err != nil {
					detail = fmt.Sprintf("shrink-quiesce probe failed: %v", err)
				}
				quiesce = &Violation{Invariant: "shrink-quiesces", Detail: detail, Time: time.Now()}
				logf("shrink-quiesce: %s", detail)
				break
			}
			time.Sleep(200 * time.Millisecond)
		}
	}

	// Server metrics snapshot, then the graceful stop and the read-only
	// audit of what the disk says happened.
	serverMetrics := scrapeMetrics(httpAddr)
	crashes := srv.Kills()
	if err := srv.Stop(10 * time.Second); err != nil {
		logf("graceful stop: %v", err)
	}
	proxy.Close()
	audit, err := persist.ReadAudit(dataDir)
	if err != nil {
		return nil, fmt.Errorf("chaos: post-run audit: %w", err)
	}

	violations := checker.Finish(end, audit)
	if quiesce != nil {
		violations = append(violations, *quiesce)
	}

	// Corruption-detection expectation: the CRC gate must convert every
	// damaged chunk into an observable error. If the proxy flipped bytes
	// and NO session ever saw a round trip fail, damaged frames were
	// accepted as data — a fail-open checksum, and a violation in its
	// own right even when the lease invariants happen to hold.
	var transportErrs int64
	for _, cr := range clients {
		transportErrs += cr.sess.Stats().TransportErrors
	}
	if ps := proxy.Stats(); ps.Corrupted > 0 && transportErrs == 0 {
		violations = append(violations, Violation{
			Invariant: "corruption-detected",
			Detail: fmt.Sprintf("proxy corrupted %d chunks but no session observed a transport error — damaged frames were accepted silently",
				ps.Corrupted),
			Time: end,
		})
	}

	rep := &Report{
		Scenario:        sc.Name,
		Description:     sc.Description,
		Seed:            opts.Seed,
		Transport:       opts.Transport,
		Inject:          opts.Inject,
		Start:           start,
		Duration:        time.Since(start),
		Clients:         sc.Clients,
		Checker:         checker.Stats(),
		Proxy:           proxy.Stats(),
		Crashes:         crashes,
		Resizes:         resizesApplied.Load(),
		Violations:      violations,
		AuditLive:       len(audit.Leases),
		AuditToken:      audit.MaxToken,
		AuditTorn:       audit.TornBytes,
		ServerMetrics:   serverMetrics,
		TransportErrors: transportErrs,
		Pass:            len(violations) == 0,
	}
	for _, cr := range clients {
		st := cr.ft.Stats()
		rep.CallFaults.DupRenews += st.DupRenews
		rep.CallFaults.DupReleases += st.DupReleases
		rep.CallFaults.Deferred += st.Deferred
	}
	return rep, nil
}

// postResize drives one capacity retarget through the server's admin
// endpoint. The endpoint answers 200 with per-component verdicts even
// when a component refused (the batch per-item contract); a verdict
// failure is surfaced as an error here because the chaos driver only
// ever asks for retargets the elastic server must accept.
func postResize(httpAddr string, n int) (wire.ResizeResponse, error) {
	var out wire.ResizeResponse
	body := wire.AppendResizeRequest(nil, &wire.ResizeRequest{Capacity: n})
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Post("http://"+httpAddr+"/v1/resize", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("resize to %d: HTTP %d", n, resp.StatusCode)
	}
	if body, err = io.ReadAll(resp.Body); err != nil {
		return out, err
	}
	if err := wire.DecodeResizeResponse(body, &out); err != nil {
		return out, err
	}
	for _, r := range out.Results {
		if r.Code != "" {
			return out, fmt.Errorf("resize to %d: %s refused: %s (%s)", n, r.Component, r.Error, r.Code)
		}
	}
	return out, nil
}

// scrapeMetrics fetches the server's /metrics exposition directly (not
// through the proxy) for the report; best-effort, "" on any failure.
func scrapeMetrics(httpAddr string) string {
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		return ""
	}
	return string(body)
}
