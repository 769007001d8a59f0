package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/leaseclient"
)

const (
	// A run sets the server up from exec to a held, warm standing set
	// twice over: before the measured phases and after them, each time at
	// least minSetups times and until setupBudget is spent; setup_s is
	// the median of all of them. A set-up of tens of milliseconds is
	// mostly process start and scheduling noise, so the cheap workloads
	// take dozens of samples, and sampling both ends of the run keeps a
	// slow spell of a shared host from setting every sample.
	minSetups   = 3
	setupBudget = 1500 * time.Millisecond
	// fixedShare is the share of --seconds spent in the fixed-rate phase;
	// the saturated phase takes the rest.
	fixedShare = 0.55
	// windows is how many equal parts the saturated phase is cut into;
	// the reported rate is the median over the parts.
	windows = 20
	// latencyWindow is the length of one part of the fixed-rate phase; a
	// reported percentile is the median over the parts of each part's
	// exact percentile.
	latencyWindow = 250 * time.Millisecond
	// Validity limits for an open-loop phase: a generator that sends its
	// ops later than this at p99, or ends with this much of the schedule
	// still unsent, measured itself rather than the server.
	maxWaitP99     = 10 * time.Millisecond
	maxBehindShare = 0.01
)

// live is a spawned server with the generator attached to it, set up and
// warm.
type live struct {
	srv *server
	gen *generator
}

func (l *live) close() {
	for _, tr := range l.gen.trs {
		tr.Close()
	}
	l.srv.stop()
}

// setUp execs a fresh server for w, fills its standing set and warms it.
// It returns the live pair and the time from exec to warm.
func setUp(ctx context.Context, env *benchEnv, w workload, sched *schedule, dataDir string, acct *genStats, rep *report) (*live, time.Duration, error) {
	start := time.Now()
	srv, err := startServer(env.serverBin, w, dataDir)
	if err != nil {
		return nil, 0, err
	}
	l := &live{srv: srv, gen: &generator{sched: sched, chk: rep.newChecker(srv.namespace)}}
	for i := 0; i < workers(); i++ {
		tr, err := leaseclient.NewTransport(srv.target(w.wire))
		if err != nil {
			l.close()
			return nil, 0, err
		}
		l.gen.trs = append(l.gen.trs, tr)
	}
	l.gen.standing, err = fill(ctx, l.gen.trs[0], w, l.gen.chk, acct)
	if err != nil {
		l.close()
		return nil, 0, fmt.Errorf("%w; server stderr: %s", err, srv.stderrText())
	}
	ws := l.gen.warm(ctx)
	acct.merge(&ws)
	return l, time.Since(start), nil
}

// setUpTimes is what repeated set-ups measured: each one's time, whether
// the host stole no more than its budget during it, and how much it stole.
type setUpTimes struct {
	secs   []float64
	clean  []bool
	stolen []int64
}

// setUpRepeated sets the server up at least minSetups times and until
// setupBudget is spent, adding each set-up to t, and keeps the last one
// live.
func setUpRepeated(ctx context.Context, env *benchEnv, w workload, sched *schedule, t *setUpTimes, acct *genStats, rep *report) (*live, error) {
	var l *live
	var spent time.Duration
	for k := 0; k < minSetups || spent < setupBudget; k++ {
		if l != nil {
			l.close()
		}
		var d time.Duration
		var err error
		steal0 := stealTicks()
		l, d, err = setUp(ctx, env, w, sched, filepath.Join(env.tmpDir, fmt.Sprintf("data-%d", len(t.secs))), acct, rep)
		if err != nil {
			return nil, err
		}
		spent += d
		stolen := stealTicks() - steal0
		t.secs = append(t.secs, d.Seconds())
		t.stolen = append(t.stolen, stolen)
		t.clean = append(t.clean, stolen <= stealBudget(d))
	}
	return l, nil
}

// runEndToEnd measures the end-to-end metrics with tracing off: set-up
// time, latency at the workload's fixed offered rate, saturated
// throughput, server CPU per op and peak memory.
func runEndToEnd(env *benchEnv, w workload, d time.Duration, rep *report) error {
	ctx := context.Background()
	http.DefaultTransport.(*http.Transport).MaxIdleConnsPerHost = workers()
	fixedDur := time.Duration(float64(d) * fixedShare)
	nFixed := int(w.rate * fixedDur.Seconds())
	sched := newSchedule(w, rep.Seed, nFixed+1<<16)

	var acct genStats
	var setups setUpTimes
	l, err := setUpRepeated(ctx, env, w, sched, &setups, &acct, rep)
	if err != nil {
		return err
	}
	defer func() {
		if l != nil {
			l.close()
		}
	}()

	cpu0, err := l.srv.cpuMicros()
	if err != nil {
		return err
	}
	latWindows := max(1, int(fixedDur/latencyWindow))
	fixed := l.gen.openLoop(ctx, 0, nFixed, w.rate, latWindows)
	cpu1, err := l.srv.cpuMicros()
	if err != nil {
		return err
	}
	var sat genStats
	var renewRates, cycleRates []float64
	var satClean []bool
	var satSteal []int64
	satWindow := (d - fixedDur) / windows
	for k := 0; k < windows; k++ {
		steal0 := stealTicks()
		st := l.gen.closedLoop(ctx, nFixed+int(sat.attempted), satWindow)
		satSteal = append(satSteal, stealTicks()-steal0)
		satClean = append(satClean, satSteal[k] <= stealBudget(satWindow))
		renewRates = append(renewRates, float64(st.renewed)/st.elapsed.Seconds())
		cycleRates = append(cycleRates, float64(st.cycles)/st.elapsed.Seconds())
		sat.merge(&st)
	}
	// A window is clean when the host stole no more than its budget in it.
	latClean := make([]bool, latWindows)
	var stolen int64
	for w, ticks := range fixed.windowSteal {
		latClean[w] = ticks <= stealBudget(fixedDur/time.Duration(latWindows))
		stolen += ticks
	}
	latKeep := kept(latClean, fixed.windowSteal)
	rss, err := l.srv.peakRSSMB()
	if err != nil {
		return err
	}
	l.close()
	if l, err = setUpRepeated(ctx, env, w, sched, &setups, &acct, rep); err != nil {
		return err
	}
	acct.merge(&fixed)
	acct.merge(&sat)

	renew, acq := summarize(slices.Clone(fixed.renewLat)), summarize(slices.Clone(fixed.acqLat))
	if renew.N == 0 || acq.N == 0 || fixed.ops == 0 || sat.renewed == 0 || sat.cycles == 0 {
		return fmt.Errorf("a phase completed no work: renew samples %d, acquire samples %d, saturated renews %d, cycles %d",
			renew.N, acq.N, sat.renewed, sat.cycles)
	}
	renew50, renew99, renewWin := windowed(fixed.renewLat, fixed.renewAt, 0, nFixed, latKeep)
	acq50, acq99, acqWin := windowed(fixed.acqLat, fixed.acqAt, 0, nFixed, latKeep)
	satKeep := kept(satClean, satSteal)
	rep.Windows = map[string][]float64{"setup_s": setups.secs, "renew_p99_us": renewWin, "acquire_p99_us": acqWin,
		"renews_per_s": renewRates, "acquires_per_s": cycleRates}
	rep.Result.Metrics = map[string]metric{
		"setup_s":              {medianOver(setups.secs, kept(setups.clean, setups.stolen)), "s"},
		"renew_p50_us":         {renew50, "us"},
		"renews_per_s":         {medianOver(renewRates, satKeep), "1/s"},
		"acquire_p50_us":       {acq50, "us"},
		"acquires_per_s":       {medianOver(cycleRates, satKeep), "1/s"},
		"server_cpu_us_per_op": {(cpu1 - cpu0) / float64(fixed.ops), "us"},
		"server_rss_mb":        {rss, "MB"},
	}
	satRenew, satAcq := summarize(sat.renewLat), summarize(sat.acqLat)
	wait := summarize(fixed.waits)
	rep.Latency = map[string]pctl{"renew.fixed": renew, "acquire.fixed": acq, "renew.saturated": satRenew, "acquire.saturated": satAcq, "gen.wait": wait}
	// The p99s are reported, not gated: on a 2-vCPU VM the host's
	// millisecond stalls set them, and their run-to-run spread stays far
	// wider than any bound a regression check could use (see README.md).
	rep.Extra = map[string]metric{
		"renew_p99_us":       {renew99, "us"},
		"acquire_p99_us":     {acq99, "us"},
		"failed_frac":        {float64(acct.failed) / float64(max(acct.attempted, 1)), "ratio"},
		"offered_ops_per_s":  {w.rate, "1/s"},
		"achieved_ops_per_s": {float64(fixed.ops) / fixed.elapsed.Seconds(), "1/s"},
		"gen.wait_p99_us":    {wait.P99us, "us"},
		"gen.backlog_max":    {float64(fixed.backlogMax), "count"},
		// Steal is CPU time the hypervisor withheld from this machine;
		// windows over their steal budget are left out of the medians.
		"host.steal_frac":            {float64(stolen) / (fixedDur.Seconds() * float64(runtime.NumCPU()) * 100), "ratio"},
		"host.clean_latency_windows": {float64(countClean(latClean)) / float64(latWindows), "ratio"},
		"host.clean_rate_windows":    {float64(countClean(satClean)) / windows, "ratio"},
	}
	rep.Invalid = validity(nFixed, fixed, wait)
	if countClean(latClean) < minClean || countClean(satClean) < minClean {
		rep.Invalid = append(rep.Invalid, "the host stole CPU time in nearly every window")
	}
	rep.Result.Attempted, rep.Result.Failed = acct.attempted, acct.failed
	return nil
}

// validity lists why an open-loop phase does not measure the server: the
// generator sent late, fell behind, or overran its time limit.
func validity(n int, st genStats, wait pctl) []string {
	var why []string
	if st.overran {
		why = append(why, "fixed-rate phase overran its time limit")
	}
	if wait.P99us > us(maxWaitP99) {
		why = append(why, fmt.Sprintf("gen.wait_p99_us %.0f exceeds %.0f", wait.P99us, us(maxWaitP99)))
	}
	if float64(st.behindEnd) > maxBehindShare*float64(n) {
		why = append(why, fmt.Sprintf("backlog of %d ops still due at the end of the fixed-rate phase", st.behindEnd))
	}
	return why
}
