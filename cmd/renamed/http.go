package main

import (
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"sync/atomic"
	"time"

	renaming "repro"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/lease"
	"repro/lease/persist"
)

// server is the HTTP front end over the shared service core: JSON
// adapters around the same transport-neutral operations the binary
// protocol serves, plus the observability surfaces (/metrics,
// /debug/vars, pprof) that only make sense over HTTP.
type server struct {
	mgr   *lease.Manager
	mux   *http.ServeMux
	start time.Time
	// store is the optional durability layer; non-nil only with -data-dir.
	// The handlers never touch it (the manager's observer hook does the
	// journaling); it is here for the persistence gauges.
	store *persist.Store

	// core is the transport-neutral request core; bind is its "http"
	// binding (pre-resolved per-transport instrumentation). binSrv is the
	// optional binary-protocol front end over the SAME core, attached by
	// run() when -listen-bin is set and closed through serveGraceful.
	core   *service.Core
	bind   *service.Binding
	binSrv *service.BinServer

	// met is the Prometheus surface (GET /metrics); the /debug/vars
	// expvar view reads the same histograms, so the two cannot disagree.
	met *serverMetrics

	// request counters, exported through expvar-style /debug/vars.
	requests atomic.Int64
	errors   atomic.Int64

	// per-operation latency histograms: one telemetry.Histogram per /v1
	// op, shared between /metrics (cumulative buckets) and /debug/vars
	// (µs quantile summaries).
	lat struct {
		acquire, acquireBatch, renew, renewBatch, release, releaseBatch, resize *telemetry.Histogram
	}

	// slowThreshold gates the structured slow-operation log line; 0
	// disables it. slowLog defaults to stderr; tests redirect it.
	slowThreshold time.Duration
	slowLog       *slog.Logger
}

// newServer wires the routes and metrics for one manager. store may be
// nil (in-memory mode); when set, the persistence series register too.
func newServer(mgr *lease.Manager, store *persist.Store) *server {
	s := &server{
		mgr:     mgr,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		store:   store,
		slowLog: slog.New(slog.NewTextHandler(os.Stderr, nil)),
	}
	s.met = newServerMetrics(s)
	s.core = service.New(mgr, s.met.svc)
	s.bind = s.core.Bind("http")
	s.lat.acquire = s.mountTimed("acquire", s.handleAcquire)
	s.lat.acquireBatch = s.mountTimed("acquire_batch", s.handleAcquireBatch)
	s.lat.renew = s.mountTimed("renew", s.handleRenew)
	s.lat.renewBatch = s.mountTimed("renew_batch", s.handleRenewBatch)
	s.lat.release = s.mountTimed("release", s.handleRelease)
	s.lat.releaseBatch = s.mountTimed("release_batch", s.handleReleaseBatch)
	s.lat.resize = s.mountTimed("resize", s.handleResize)
	s.mux.HandleFunc("GET /v1/leases", s.handleLeases)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	s.mux.Handle("GET /debug/vars", s.varsHandler())
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", telemetry.ContentType)
		s.met.reg.WritePrometheus(w)
	})
	return s
}

// enablePprof mounts net/http/pprof on the server's private mux (the
// package's init-time handlers live on http.DefaultServeMux, which this
// server never serves). Profiling endpoints cost CPU and reveal internal
// state, so they are opt-in via -pprof.
func (s *server) enablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	// Echo the client's request ID on every response so either side of a
	// slow or failed call can quote the same handle; mint one for bare
	// callers (curl) so the slow-op log never carries an empty id. The
	// mint is written back onto the request header, which is where
	// mountTimed() reads it from.
	rid := r.Header.Get(wire.HeaderRequestID)
	if rid == "" {
		rid = wire.NewRequestID()
		r.Header.Set(wire.HeaderRequestID, rid)
	}
	w.Header().Set(wire.HeaderRequestID, rid)
	s.mux.ServeHTTP(w, r)
}

// mountTimed mounts fn as "POST /v1/<op>" with the per-op instrumentation:
// request counter, latency histogram (returned, shared with /debug/vars)
// and the slow-operation log line carrying the request's X-Request-Id.
func (s *server) mountTimed(op string, fn http.HandlerFunc) *telemetry.Histogram {
	h := s.met.latency.With(op)
	reqs := s.met.requests.With(op)
	s.mux.HandleFunc("POST /v1/"+op, func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		start := time.Now()
		fn(w, r)
		d := time.Since(start)
		h.Observe(d)
		if s.slowThreshold > 0 && d >= s.slowThreshold {
			s.slowLog.Warn("slow operation",
				"op", op,
				"duration_ms", float64(d)/float64(time.Millisecond),
				"request_id", r.Header.Get(wire.HeaderRequestID))
		}
	})
	return h
}

// varsHandler serves the expvar JSON format with the service's own gauges
// under a private map, avoiding the process-global expvar registry so
// multiple servers (tests) can coexist.
func (s *server) varsHandler() http.Handler {
	vars := expvar.Map{}
	vars.Set("renamed_requests", expvar.Func(func() any { return s.requests.Load() }))
	vars.Set("renamed_errors", expvar.Func(func() any { return s.errors.Load() }))
	vars.Set("renamed_uptime_seconds", expvar.Func(func() any { return time.Since(s.start).Seconds() }))
	vars.Set("renamed_lease", expvar.Func(func() any { return s.mgr.Metrics() }))
	vars.Set("renamed_persist", expvar.Func(func() any {
		// s.store is assigned after newServer returns (run() wires it),
		// so the nil check must live here in the closure, not at
		// registration time; null means "no -data-dir".
		if s.store == nil {
			return nil
		}
		st := s.store.Stats()
		// Stats.Err is an error (not JSON-friendly); flatten it.
		errStr := ""
		if st.Err != nil {
			errStr = st.Err.Error()
		}
		return map[string]any{
			"recovered_leases": st.RecoveredLeases,
			"replayed_records": st.ReplayedRecords,
			"truncated_bytes":  st.TruncatedBytes,
			"recovery_ms":      float64(st.RecoveryDuration) / float64(time.Millisecond),
			"appends":          st.Appends,
			"syncs":            st.Syncs,
			"compactions":      st.Compactions,
			"journal_bytes":    st.JournalBytes,
			"journal_records":  st.JournalRecords,
			"live":             st.Live,
			"err":              errStr,
		}
	}))
	vars.Set("renamed_latency", expvar.Func(func() any {
		return map[string]histSummary{
			"acquire":       summarize(s.lat.acquire),
			"acquire_batch": summarize(s.lat.acquireBatch),
			"renew":         summarize(s.lat.renew),
			"renew_batch":   summarize(s.lat.renewBatch),
			"release":       summarize(s.lat.release),
			"release_batch": summarize(s.lat.releaseBatch),
			"resize":        summarize(s.lat.resize),
		}
	}))
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{%q: %s}\n", "renamed", vars.String())
	})
}

// The JSON wire types and their codec live in internal/wire, shared with
// the leaseclient session layer so server and client cannot drift; the
// handlers below are thin JSON adapters over the service core's
// bindings.

func (s *server) handleAcquire(w http.ResponseWriter, r *http.Request) {
	var req wire.AcquireRequest
	if !decode(s, w, r, &req, wire.DecodeAcquireRequest) {
		return
	}
	// The request context ties the probe sequence to the client: a peer
	// that disconnects mid-acquire cancels instead of leaving behind a
	// lease nobody will renew.
	l, err := s.bind.Acquire(r.Context(), &req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &l, wire.AppendLease)
}

func (s *server) handleAcquireBatch(w http.ResponseWriter, r *http.Request) {
	var req wire.AcquireBatchRequest
	if !decode(s, w, r, &req, wire.DecodeAcquireBatchRequest) {
		return
	}
	ls, err := s.bind.AcquireBatch(r.Context(), &req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &wire.Leases{Leases: ls}, wire.AppendLeases)
}

func (s *server) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req wire.RenewRequest
	if !decode(s, w, r, &req, wire.DecodeRenewRequest) {
		return
	}
	l, err := s.bind.Renew(&req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &l, wire.AppendLease)
}

// handleRenewBatch is the heartbeat hot path: one request renews every
// lease a session holds through one lock visit per involved stripe. The
// response is per-item — 200 even when individual items failed — because
// a session must learn exactly which leases it lost; only a request that
// could not be processed at all (malformed body, closed manager, context
// already done) gets a non-2xx status.
func (s *server) handleRenewBatch(w http.ResponseWriter, r *http.Request) {
	var req wire.RenewBatchRequest
	if !decode(s, w, r, &req, wire.DecodeRenewBatchRequest) {
		return
	}
	items := make([]lease.RenewItem, len(req.Items))
	for i, it := range req.Items {
		items[i] = lease.RenewItem{Name: it.Name, Token: it.Token}
	}
	// The request context is threaded through: a client that disconnects
	// mid-batch stops the stripe walk instead of renewing leases for a
	// session that is gone.
	verdicts, err := s.bind.RenewBatch(r.Context(), wire.TTLFromMs(req.TTLms), items, make([]service.Verdict, 0, len(items)))
	if err != nil {
		s.writeError(w, err)
		return
	}
	out := wire.BatchResults{Results: make([]wire.BatchResult, len(verdicts))}
	for i := range verdicts {
		if v := &verdicts[i]; v.Code != "" {
			out.Results[i] = wire.BatchResult{Error: v.Msg, Code: v.Code}
		} else {
			out.Results[i].Lease = &v.Lease
		}
	}
	writeJSON(w, http.StatusOK, &out, wire.AppendBatchResults)
}

func (s *server) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req wire.ReleaseRequest
	if !decode(s, w, r, &req, wire.DecodeReleaseRequest) {
		return
	}
	if err := s.bind.Release(&req); err != nil {
		s.writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleReleaseBatch ends many leases in one request with per-item
// outcomes, mirroring handleRenewBatch — the shutdown path of a session
// holding hundreds of names must not take hundreds of round trips.
func (s *server) handleReleaseBatch(w http.ResponseWriter, r *http.Request) {
	var req wire.ReleaseBatchRequest
	if !decode(s, w, r, &req, wire.DecodeReleaseBatchRequest) {
		return
	}
	items := make([]lease.ReleaseItem, len(req.Items))
	for i, it := range req.Items {
		items[i] = lease.ReleaseItem{Name: it.Name, Token: it.Token}
	}
	verdicts, err := s.bind.ReleaseBatch(r.Context(), items, make([]service.Verdict, 0, len(items)))
	if err != nil {
		s.writeError(w, err)
		return
	}
	out := wire.BatchResults{Results: make([]wire.BatchResult, len(verdicts))}
	for i, v := range verdicts {
		if v.Code != "" {
			out.Results[i] = wire.BatchResult{Error: v.Msg, Code: v.Code}
		}
	}
	writeJSON(w, http.StatusOK, &out, wire.AppendBatchResults)
}

// handleResize retargets the elastic namespace online: the namer's
// capacity and the lease manager's live cap move together (see
// service.Binding.Resize for the ordering guarantees). The response
// follows the batch per-item contract — 200 with per-component verdicts
// even when a component refused, because the operator must learn
// exactly which half moved; only a malformed body gets a non-2xx.
func (s *server) handleResize(w http.ResponseWriter, r *http.Request) {
	var req wire.ResizeRequest
	if !decode(s, w, r, &req, wire.DecodeResizeRequest) {
		return
	}
	resp := s.bind.Resize(req.Capacity).Wire()
	writeJSON(w, http.StatusOK, &resp, wire.AppendResizeResponse)
}

func (s *server) handleLeases(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, &wire.Leases{Leases: s.core.Leases()}, wire.AppendLeases)
}

// decode reads the request body, up to wire.MaxBody bytes, into a pooled
// buffer and parses it into v with dec. A body that fails to parse is
// answered 400; when the read itself failed, its error is the one shown.
func decode[T any](s *server, w http.ResponseWriter, r *http.Request, v *T, dec func([]byte, *T) error) bool {
	buf := wire.GetBuffer()
	var rerr error
	*buf, rerr = wire.ReadBody(r.Body, *buf, wire.MaxBody)
	err := dec(*buf, v)
	wire.PutBuffer(buf)
	if err == nil {
		return true
	}
	if rerr != nil {
		err = rerr
	}
	s.errors.Add(1)
	writeJSON(w, http.StatusBadRequest, &wire.Error{Error: "bad request body: " + err.Error()}, wire.AppendError)
	return false
}

// writeError maps lease/namer errors onto HTTP status codes:
// exhaustion is 503 (retryable), stale tokens are 409, expiry is 410,
// unknown names are 404, bad batch parameters are 400, and an acquisition
// the client itself abandoned is 408 (the response is usually unread —
// the status mostly serves the error counter and access logs).
func (s *server) writeError(w http.ResponseWriter, err error) {
	s.errors.Add(1)
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, renaming.ErrNamespaceExhausted), errors.Is(err, lease.ErrCapacity):
		status = http.StatusServiceUnavailable
	case errors.Is(err, renaming.ErrCancelled):
		status = http.StatusRequestTimeout
	case errors.Is(err, renaming.ErrBadConfig):
		status = http.StatusBadRequest
	case errors.Is(err, lease.ErrWrongToken):
		status = http.StatusConflict
	case errors.Is(err, lease.ErrExpired):
		status = http.StatusGone
	case errors.Is(err, lease.ErrUnknownName):
		status = http.StatusNotFound
	case errors.Is(err, lease.ErrClosed):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, &wire.Error{Error: err.Error()}, wire.AppendError)
}

// writeJSON sends v, encoded by enc into a pooled buffer and ended with
// a newline, in one write.
func writeJSON[T any](w http.ResponseWriter, status int, v *T, enc func([]byte, *T) []byte) {
	buf := wire.GetBuffer()
	*buf = append(enc(*buf, v), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(*buf)
	wire.PutBuffer(buf)
}

// logFinalSnapshot emits the shutdown metrics snapshot: one structured
// log line with the counters an operator wants in the last lines before
// the process exits (and that a log pipeline can parse without scraping
// /metrics mid-shutdown). Safe after Close/Shutdown — every source here
// reads atomics or mutex-guarded snapshots.
func (s *server) logFinalSnapshot(out io.Writer) {
	lm := s.mgr.Metrics()
	attrs := []any{
		"uptime_s", time.Since(s.start).Seconds(),
		"requests", s.requests.Load(),
		"errors", s.errors.Load(),
		"acquired", lm.Acquired,
		"renewed", lm.Renewed,
		"released", lm.Released,
		"expired", lm.Expired,
		"rejected", lm.Rejected,
		"live", lm.Live,
		"max_live", lm.MaxLive,
		"resizes", lm.Resizes,
		"renew_p99_us", summarize(s.lat.renewBatch).P99Us,
	}
	if s.store != nil {
		st := s.store.Stats()
		attrs = append(attrs,
			"persist_appends", st.Appends,
			"persist_fsyncs", st.Syncs,
			"persist_compactions", st.Compactions,
			"persist_journal_bytes", st.JournalBytes,
			"persist_live", st.Live,
		)
		if st.Err != nil {
			attrs = append(attrs, "persist_err", st.Err.Error())
		}
	}
	slog.New(slog.NewTextHandler(out, nil)).Info("final metrics snapshot", attrs...)
}
