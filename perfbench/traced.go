package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/wire"
	"repro/leaseclient"
)

// Shares of --seconds in a traced run: the open-loop phase against the
// spawned server, the traced/untraced in-process replay, the ladder.
const (
	tracedOpenShare   = 0.35
	tracedReplayShare = 0.25
	tracedLadderShare = 0.30
	// replayRound is how many ops one replay round sends on each stack.
	replayRound = 1000
)

// runTraced measures the per-layer metrics: spans and /metrics deltas from
// an open-loop phase against the spawned server (client transports
// traced), call counts and tracing overhead from a replay on the
// in-process stack with and without tracing decorators, and per-layer
// self times from the ladder.
func runTraced(env *benchEnv, w workload, d time.Duration, rep *report) error {
	ctx := context.Background()
	http.DefaultTransport.(*http.Transport).MaxIdleConnsPerHost = workers()
	openDur := time.Duration(float64(d) * tracedOpenShare)
	nOpen := int(w.rate * openDur.Seconds())
	sched := newSchedule(w, rep.Seed, nOpen+1<<16)
	t := newTracer()

	var acct genStats
	l, _, err := setUp(ctx, env, w, sched, filepath.Join(env.tmpDir, "data"), &acct, rep)
	if err != nil {
		return err
	}
	defer l.close()
	for i, tr := range l.gen.trs {
		l.gen.trs[i] = &tracedTransport{Transport: tr, t: t, wire: w.wire}
	}
	before, err := l.srv.scrape()
	if err != nil {
		return err
	}
	open := l.gen.openLoop(ctx, 0, nOpen, w.rate, 1)
	after, err := l.srv.scrape()
	if err != nil {
		return err
	}
	acct.merge(&open)
	wait := summarize(open.waits)
	rep.Invalid = validity(nOpen, open, wait)

	rp, err := replay(ctx, env, w, sched, t, time.Duration(float64(d)*tracedReplayShare), rep)
	if err != nil {
		return err
	}
	acct.merge(&rp.acct)

	lad, err := runLadder(ctx, w, sched, env.tmpDir, time.Duration(float64(d)*tracedLadderShare))
	if err != nil {
		return err
	}
	httpSelf, err := httpRung(ctx, l, sched, nOpen, &acct, time.Duration(float64(d)*tracedLadderShare/8))
	if err != nil {
		return err
	}

	spansFile := filepath.Join(env.resultsDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, rep.Seed))
	if err := t.write(spansFile); err != nil {
		return err
	}
	rep.SpansFile = spansFile

	fR, fC := sched.mix()
	batch := float64(w.batch)
	leaseOps := delta(before, after, "renamed_lease_acquired_total") + delta(before, after, "renamed_lease_renewed_total") +
		delta(before, after, "renamed_lease_released_total")
	rep.Result.Metrics = map[string]metric{
		"levelarray.acquire_ns":              {lad.namer.acq, "ns"},
		"levelarray.release_ns":              {lad.namer.rel, "ns"},
		"levelarray.probes_per_acquire":      {lad.probesPerAcquire, "count"},
		"levelarray.calls_per_op":            {rp.namerCallsPerOp, "ratio"},
		"lease.renew_ns_per_item":            {lad.lease.renew / batch, "ns"},
		"lease.acquire_self_ns":              {lad.lease.acq - lad.namer.acq, "ns"},
		"lease.release_ns":                   {lad.lease.rel, "ns"},
		"lease.rejected_frac":                {delta(before, after, "renamed_lease_rejected_total") / max(leaseOps, 1), "ratio"},
		"persist.observe_ns":                 {lad.persistObserveNs, "ns"},
		"persist.journal_bytes_per_op":       {delta(before, after, "renamed_persist_journal_bytes_total") / float64(max(open.ops, 1)), "B"},
		"persist.syncs_per_s":                {delta(before, after, "renamed_persist_fsyncs_total") / open.elapsed.Seconds(), "1/s"},
		"service.renew_self_ns_per_item":     {(lad.service.renew - lad.lease.renew) / batch, "ns"},
		"service.acquire_self_ns":            {lad.service.acq - lad.lease.acq, "ns"},
		"service.server_mean_us.renew_batch": {serverMeanUs(before, after, w.wire, "renew_batch"), "us"},
		"service.server_mean_us.acquire":     {serverMeanUs(before, after, w.wire, "acquire"), "us"},
		"service.server_mean_us.release":     {serverMeanUs(before, after, w.wire, "release"), "us"},
		"binproto.encode_ns":                 {lad.codecEnc, "ns"},
		"binproto.decode_ns":                 {lad.codecDec, "ns"},
		"binproto.bytes_per_renew":           {lad.bytesPerRenew, "B"},
		"binserver.rt_self_us": {(fR*(lad.raw.renew-lad.service.renew-lad.codecEnc-lad.codecDec) +
			fC*(lad.raw.acq-lad.service.acq)) / 1e3, "us"},
		"http.rt_self_us":          {httpSelf, "us"},
		"leaseclient.self_us":      {(fR*(lad.client.renew-lad.raw.renew) + fC*(lad.client.acq-lad.raw.acq)) / 1e3, "us"},
		"leaseclient.heartbeat_us": {lad.heartbeatUs, "us"},
		"leaseclient.retries":      {float64(lad.retries), "count"},
		"gen.wait_p99_us":          {wait.P99us, "us"},
		"gen.backlog_max":          {float64(open.backlogMax), "count"},
		"trace.overhead_frac":      {rp.overhead, "ratio"},
		"trace.spans":              {float64(t.countPrefix("")), "count"},
		"trace.persist_spans":      {float64(t.countPrefix("persist.")), "count"},
		"trace.http_spans":         {float64(t.countPrefix("leaseclient.http.")), "count"},
	}
	rep.Extra = map[string]metric{}
	for name, ns := range t.selfTimes() {
		rep.Extra["span_self_us."+name] = metric{ns / 1e3, "us"}
	}
	rep.Latency = map[string]pctl{"gen.wait": wait}
	rep.Result.Attempted, rep.Result.Failed = acct.attempted, acct.failed
	return nil
}

// replayResult is what the in-process replay measured.
type replayResult struct {
	overhead        float64 // traced time per op / untraced time per op − 1
	namerCallsPerOp float64
	acct            genStats
}

// replay builds the in-process stack twice, once with tracing decorators
// and once without, and alternates rounds of the same scheduled ops on
// each, one request at a time, until budget is spent.
func replay(ctx context.Context, env *benchEnv, w workload, sched *schedule, t *tracer, budget time.Duration, rep *report) (replayResult, error) {
	var res replayResult
	plain, err := newStack(w, filepath.Join(env.tmpDir, "stack-plain"), nil)
	if err != nil {
		return res, err
	}
	defer plain.close()
	traced, err := newStack(w, filepath.Join(env.tmpDir, "stack-traced"), t)
	if err != nil {
		return res, err
	}
	defer traced.close()
	gens := make([]*generator, 2)
	for i, s := range []*stack{plain, traced} {
		g := &generator{sched: sched, chk: rep.newChecker(s.mgr.Namespace()), trs: []leaseclient.Transport{s.tr}}
		g.standing, err = fill(ctx, s.tr, w, g.chk, &res.acct)
		if err != nil {
			return res, err
		}
		ws := g.warm(ctx)
		res.acct.merge(&ws)
		gens[i] = g
	}
	calls0 := traced.namer.calls.Load()
	var perOp [2][]float64
	var tracedOps int64
	end := time.Now().Add(budget)
	for round := 0; round < 3 || time.Now().Before(end); round++ {
		for i, g := range gens {
			start := time.Now()
			st := g.replay(ctx, round*replayRound, replayRound)
			perOp[i] = append(perOp[i], float64(time.Since(start))/replayRound)
			res.acct.merge(&st)
			if i == 1 {
				tracedOps += replayRound
			}
		}
	}
	res.overhead = median(perOp[1])/median(perOp[0]) - 1
	res.namerCallsPerOp = float64(traced.namer.calls.Load()-calls0) / float64(tracedOps)
	return res, nil
}

// httpRung times renew and acquire round trips over HTTP against the
// spawned server, through the generator (so every response is checked),
// and subtracts the server's own Binding time for the same requests from
// its /metrics. It returns the mix-weighted HTTP self time in µs.
func httpRung(ctx context.Context, l *live, sched *schedule, first int, acct *genStats, budget time.Duration) (float64, error) {
	tr, err := leaseclient.NewTransport("http://" + l.srv.httpAddr)
	if err != nil {
		return 0, err
	}
	defer tr.Close()
	before, err := l.srv.scrape()
	if err != nil {
		return 0, err
	}
	var st genStats
	var items []wire.Item
	// At least 50 samples of each kind, however long that takes up to a
	// hard limit: on heartbeat-bin only one op in 32 is an acquire.
	end, limit := time.Now().Add(budget), time.Now().Add(budget+10*time.Second)
	for i := first; (len(st.renewLat) < 50 || len(st.acqLat) < 50 || time.Now().Before(end)) && time.Now().Before(limit); i++ {
		items = l.gen.exec(ctx, tr, i, time.Time{}, items, &st)
	}
	after, err := l.srv.scrape()
	if err != nil {
		return 0, err
	}
	acct.merge(&st)
	renew, acq := summarize(st.renewLat), summarize(st.acqLat)
	if renew.N < 50 || acq.N < 50 {
		return 0, fmt.Errorf("http rung completed %d renews and %d acquires", renew.N, acq.N)
	}
	fR, fC := sched.mix()
	return fR*(renew.P50us-serverMeanUs(before, after, "http", "renew_batch")) +
		fC*(acq.P50us-serverMeanUs(before, after, "http", "acquire")), nil
}
