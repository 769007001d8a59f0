// Package loadgen drives a running renamed server over either wire and
// reports what it saw. The target scheme picks the wire: http://host:port
// speaks JSON, bin://host:port speaks the binary protocol over one
// persistent connection per worker. Four shapes of traffic:
//
//   - Cycles: acquire → renews → release, one cycle after another, with
//     per-op client latency (renamed -load).
//   - Sessions: a standing population of heartbeating leaseclient
//     sessions, with churning acquire/release clients alongside
//     (renamed -load -sessions; benchreport -target).
//   - Saturate: tight-loop renew_batch over a standing set, no heartbeat
//     schedule in between — what a wire can move (benchreport's
//     renews_per_sec_http row).
//   - Pipelined: the binary protocol with its pipelining used, many
//     renew frames in flight on one connection (benchreport's
//     renews_per_sec_bin row).
package loadgen

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/leaseclient"
)

// LatSummary is one operation's client-observed latency in a report.
type LatSummary struct {
	P50, P99 time.Duration
}

func quantiles(h *telemetry.Histogram) LatSummary {
	return LatSummary{P50: h.Quantile(0.50), P99: h.Quantile(0.99)}
}

// CycleReport aggregates a Cycles run. Duration is the configured run
// length; Elapsed is the measured wall time, which runs past Duration
// because workers finish their in-flight acquire→renew→release cycle
// after the deadline. Throughput is computed over Elapsed — dividing by
// the configured duration overstated ops/sec by the overshoot.
type CycleReport struct {
	Clients    int
	Batch      int // names acquired per cycle; > 1 uses batch acquisition
	Duration   time.Duration
	Elapsed    time.Duration
	Acquires   int64
	Renews     int64
	Releases   int64
	Failures   int64
	OpsPerSec  float64
	AcquireLat LatSummary
	RenewLat   LatSummary
	ReleaseLat LatSummary
}

// Print writes the human report.
func (r CycleReport) Print(out io.Writer) {
	fmt.Fprintf(out, "load: %d clients, batch %d, configured %v, ran %v\n",
		r.Clients, r.Batch, r.Duration, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "  acquires  %d\n  renews    %d\n  releases  %d\n  failures  %d\n",
		r.Acquires, r.Renews, r.Releases, r.Failures)
	fmt.Fprintf(out, "  latency (p50/p99) acquire %v/%v, renew %v/%v, release %v/%v\n",
		r.AcquireLat.P50, r.AcquireLat.P99, r.RenewLat.P50, r.RenewLat.P99,
		r.ReleaseLat.P50, r.ReleaseLat.P99)
	fmt.Fprintf(out, "  throughput %.0f ops/sec\n", r.OpsPerSec)
}

// pingTarget fails fast if the server is unreachable, rather than
// reporting a run with nothing but failures. It also validates the
// target scheme before any workers start.
func pingTarget(target string) error {
	tr, err := leaseclient.NewTransport(target)
	if err != nil {
		return err
	}
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tr.Ping(ctx); err != nil {
		return fmt.Errorf("target unreachable: %w", err)
	}
	return nil
}

// fanOut runs body on n goroutines, each with its own transport to
// target, and returns once all have finished: the first error a worker
// returned, else nil.
func fanOut(target string, n int, body func(id int, tr leaseclient.Transport) error) error {
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for id := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := leaseclient.NewTransport(target)
			if err == nil {
				err = body(id, tr)
				tr.Close()
			}
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// Cycles drives acquire -> renews -> release cycles against target from
// `clients` workers for the given duration. batch > 1 acquires through
// batch acquisition (batch leases per cycle, each renewed and released
// individually), measuring what batching saves on the acquisition path.
func Cycles(target string, clients, renewsPerLease, batch int, duration time.Duration) (CycleReport, error) {
	batch = max(batch, 1)
	if err := pingTarget(target); err != nil {
		return CycleReport{}, err
	}

	var acquires, renews, releases, failures atomic.Int64
	acquireLat, renewLat, releaseLat := telemetry.NewHistogram(), telemetry.NewHistogram(), telemetry.NewHistogram()
	start := time.Now()
	deadline := start.Add(duration)
	err := fanOut(target, clients, func(id int, tr leaseclient.Transport) error {
		ctx := context.Background()
		owner := fmt.Sprintf("loadgen-%d", id)
		timed := func(h *telemetry.Histogram, f func() error) bool {
			t0 := time.Now()
			if f() != nil {
				// Failures are counted separately; recording them
				// here would let client-timeout constants (5s)
				// masquerade as the op's p99.
				return false
			}
			h.Observe(time.Since(t0))
			return true
		}
		for time.Now().Before(deadline) {
			// If the server granted leases but the response failed
			// mid-read, the names stay leased until their TTL lapses;
			// we can't release what we couldn't parse, so it's counted
			// as a failure and left to the server's sweeper.
			var cycle []wire.Lease
			if batch > 1 {
				var granted wire.Leases
				if !timed(acquireLat, func() error {
					var err error
					granted, err = tr.AcquireBatch(ctx, &wire.AcquireBatchRequest{Owner: owner, Count: batch})
					return err
				}) {
					failures.Add(1)
					continue
				}
				acquires.Add(int64(len(granted.Leases)))
				cycle = granted.Leases
			} else {
				var l wire.Lease
				if !timed(acquireLat, func() error {
					var err error
					l, err = tr.Acquire(ctx, &wire.AcquireRequest{Owner: owner})
					return err
				}) {
					failures.Add(1)
					continue
				}
				acquires.Add(1)
				cycle = []wire.Lease{l}
			}
			for _, l := range cycle {
				ok := true
				for r := 0; r < renewsPerLease && ok; r++ {
					if timed(renewLat, func() error {
						renewed, err := tr.Renew(ctx, &wire.RenewRequest{Name: l.Name, Token: l.Token})
						if err == nil {
							l = renewed
						}
						return err
					}) {
						renews.Add(1)
					} else {
						failures.Add(1)
						ok = false
					}
				}
				if timed(releaseLat, func() error {
					return tr.Release(ctx, &wire.ReleaseRequest{Name: l.Name, Token: l.Token})
				}) {
					releases.Add(1)
				} else {
					failures.Add(1)
				}
			}
		}
		return nil
	})
	if err != nil {
		return CycleReport{}, err
	}
	// Workers keep finishing their in-flight cycle past the deadline;
	// throughput over the configured duration would count those ops
	// against a window they didn't run in.
	elapsed := time.Since(start)
	total := acquires.Load() + renews.Load() + releases.Load()
	return CycleReport{
		Clients:    clients,
		Batch:      batch,
		Duration:   duration,
		Elapsed:    elapsed,
		Acquires:   acquires.Load(),
		Renews:     renews.Load(),
		Releases:   releases.Load(),
		Failures:   failures.Load(),
		OpsPerSec:  float64(total) / elapsed.Seconds(),
		AcquireLat: quantiles(acquireLat),
		RenewLat:   quantiles(renewLat),
		ReleaseLat: quantiles(releaseLat),
	}, nil
}

// SessionReport aggregates a Sessions run: a standing population of
// heartbeating holders (the renewal-dominated traffic shape a name
// service actually serves) with optional churn clients alongside.
type SessionReport struct {
	Holders  int // heartbeating leases, spread across Sessions
	Sessions int
	Churners int
	Duration time.Duration
	Elapsed  time.Duration

	Heartbeats int64  // renew_batch round trips
	Renews     int64  // individual lease renewals across them
	Retries    int64  // heartbeat rounds that hit transport failures
	Lost       int64  // leases lost mid-run (must be 0 with on-time renewals)
	MaxToken   uint64 // highest fencing token observed across the holders

	// TransportErrs and SessionP99 come straight from the sessions' own
	// Stats — the callback-free counters a monitoring scrape would read —
	// rather than from loadgen-side instrumentation. SessionP99 is the
	// WORST per-session renew_batch p99, so one laggard session can't
	// hide inside a fleet-wide aggregate.
	TransportErrs int64
	SessionP99    time.Duration

	// MaxToken is what makes the loadgen a crash-restart harness: run it
	// with -sessions against a -data-dir server, kill -9 the server mid-
	// run, restart it from the same directory, and the report must show
	// lost 0 (every restored lease kept renewing on its old token, with
	// retries absorbing the downtime) while any lease acquired AFTER the
	// restart carries a token strictly above this watermark — the
	// monotonic-fencing guarantee, checkable from outside with one curl.

	ChurnAcquires int64
	ChurnReleases int64
	ChurnFailures int64

	RenewLat   LatSummary // per renew_batch round trip, client-observed
	RenewsPerS float64
}

// Print writes the human report.
func (r SessionReport) Print(out io.Writer) {
	fmt.Fprintf(out, "session load: %d holders over %d sessions, %d churners, configured %v, ran %v\n",
		r.Holders, r.Sessions, r.Churners, r.Duration, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "  heartbeats %d (renew_batch round trips)\n  renews     %d\n  retries    %d\n  lost       %d\n  max token  %d\n",
		r.Heartbeats, r.Renews, r.Retries, r.Lost, r.MaxToken)
	fmt.Fprintf(out, "  churn      %d acquires, %d releases, %d failures\n",
		r.ChurnAcquires, r.ChurnReleases, r.ChurnFailures)
	fmt.Fprintf(out, "  renew_batch latency p50/p99 %v/%v\n", r.RenewLat.P50, r.RenewLat.P99)
	fmt.Fprintf(out, "  session stats %d transport errors, worst-session p99 %v\n",
		r.TransportErrs, r.SessionP99)
	fmt.Fprintf(out, "  renewal throughput %.0f renews/sec\n", r.RenewsPerS)
}

// Sessions keeps `holders` leases alive for `duration` through
// `clients` leaseclient sessions (each heartbeating its share in
// coalesced renew_batch calls at a third of leaseTTL), while `churn`
// workers cycle acquire→release alongside. Lost must come back 0: a
// holder population whose renewals are on time never loses a lease.
// The target scheme picks the wire for sessions and churners alike.
func Sessions(target string, holders, clients, churn int, leaseTTL, duration time.Duration) (SessionReport, error) {
	clients = min(max(clients, 1), holders)
	if err := pingTarget(target); err != nil {
		return SessionReport{}, err
	}

	var lost atomic.Int64
	renewLat := telemetry.NewHistogram()
	sessions := make([]*leaseclient.Session, 0, clients)
	closeAll := func() {
		var wg sync.WaitGroup
		for _, s := range sessions {
			wg.Add(1)
			go func(s *leaseclient.Session) { defer wg.Done(); s.Close() }(s)
		}
		wg.Wait()
	}
	for c := 0; c < clients; c++ {
		s, err := leaseclient.NewSession(leaseclient.Config{
			Target: target,
			Owner:  fmt.Sprintf("sessgen-%d", c),
			TTL:    leaseTTL,
			OnLost: func(int, error) { lost.Add(1) },
			OnHeartbeat: func(_ int, d time.Duration, err error) {
				if err == nil {
					renewLat.Observe(d)
				}
			},
		})
		if err != nil {
			closeAll()
			return SessionReport{}, err
		}
		sessions = append(sessions, s)
		// Spread the holders across sessions, remainder to the first few.
		share := holders / clients
		if c < holders%clients {
			share++
		}
		if share == 0 {
			continue
		}
		if _, err := s.AcquireN(context.Background(), share); err != nil {
			closeAll()
			return SessionReport{}, fmt.Errorf("session %d acquiring %d holders: %w", c, share, err)
		}
	}

	// The measured window opens only after every session is populated:
	// setup (N acquire_batch round trips) must not dilute the renewal
	// throughput, and the window closes BEFORE teardown for the same
	// reason. Counters are baselined here so heartbeats that fired while
	// later sessions were still acquiring don't count against the window
	// either.
	var baseHeartbeats, baseRenews, baseRetries int64
	for _, s := range sessions {
		st := s.Stats()
		baseHeartbeats += st.Heartbeats
		baseRenews += st.Renewed
		baseRetries += st.Retries
	}
	start := time.Now()

	// Churn traffic rides alongside: acquire → release, one lease at a
	// time, sharing the server with the heartbeat storm.
	var churnAcquires, churnReleases, churnFailures atomic.Int64
	deadline := start.Add(duration)
	err := fanOut(target, churn, func(id int, tr leaseclient.Transport) error {
		ctx := context.Background()
		owner := fmt.Sprintf("churn-%d", id)
		for time.Now().Before(deadline) {
			l, err := tr.Acquire(ctx, &wire.AcquireRequest{Owner: owner})
			if err != nil {
				churnFailures.Add(1)
				continue
			}
			churnAcquires.Add(1)
			if tr.Release(ctx, &wire.ReleaseRequest{Name: l.Name, Token: l.Token}) == nil {
				churnReleases.Add(1)
			} else {
				churnFailures.Add(1)
			}
		}
		return nil
	})
	if err != nil {
		closeAll()
		return SessionReport{}, err
	}
	time.Sleep(time.Until(deadline))

	// Snapshot the counters and close the window at the same instant,
	// before teardown: closeAll's release_batch round trips are not
	// renewal throughput. Lost is tallied through OnLost; the
	// per-session Stats cover the rest.
	var heartbeats, renews, retries, transportErrs int64
	var maxToken uint64
	var sessP99 time.Duration
	for _, s := range sessions {
		st := s.Stats()
		heartbeats += st.Heartbeats
		renews += st.Renewed
		retries += st.Retries
		transportErrs += st.TransportErrors
		if st.HeartbeatLatency.P99 > sessP99 {
			sessP99 = st.HeartbeatLatency.P99
		}
		for _, l := range s.Leases() {
			if l.Token > maxToken {
				maxToken = l.Token
			}
		}
	}
	heartbeats -= baseHeartbeats
	renews -= baseRenews
	retries -= baseRetries
	elapsed := time.Since(start)
	closeAll()
	return SessionReport{
		Holders:       holders,
		Sessions:      len(sessions),
		Churners:      churn,
		Duration:      duration,
		Elapsed:       elapsed,
		Heartbeats:    heartbeats,
		Renews:        renews,
		Retries:       retries,
		Lost:          lost.Load(),
		MaxToken:      maxToken,
		TransportErrs: transportErrs,
		SessionP99:    sessP99,
		ChurnAcquires: churnAcquires.Load(),
		ChurnReleases: churnReleases.Load(),
		ChurnFailures: churnFailures.Load(),
		RenewLat:      quantiles(renewLat),
		RenewsPerS:    float64(renews) / elapsed.Seconds(),
	}, nil
}
