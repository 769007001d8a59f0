package main

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/leaseclient"
)

// Each known-bad case feeds the checker one response that breaks one rule
// and expects exactly that rule to fire.

func violations(t *testing.T, c *checker) []string {
	t.Helper()
	_, msgs := c.result()
	return msgs
}

func expectOne(t *testing.T, c *checker, substr string) {
	t.Helper()
	msgs := violations(t, c)
	if len(msgs) != 1 || !strings.Contains(msgs[0], substr) {
		t.Fatalf("violations = %q, want one containing %q", msgs, substr)
	}
}

func TestCheckerAcceptsValidHistory(t *testing.T) {
	c := newChecker(16)
	c.granted(3, 10, c.floor())
	c.granted(4, 11, c.floor())
	c.renewed([]wire.Item{{Name: 3, Token: 10}, {Name: 4, Token: 11}}, wire.BatchResults{Results: []wire.BatchResult{
		{Lease: &wire.Lease{Name: 3, Token: 10}}, {Lease: &wire.Lease{Name: 4, Token: 11}},
	}})
	c.releasing(3, 10)
	c.granted(3, 12, c.floor())
	if msgs := violations(t, c); len(msgs) != 0 {
		t.Fatalf("valid history flagged: %q", msgs)
	}
}

func TestCheckerNameOutsideNamespace(t *testing.T) {
	c := newChecker(16)
	c.granted(16, 1, c.floor())
	expectOne(t, c, "outside [0, 16)")
}

func TestCheckerNegativeName(t *testing.T) {
	c := newChecker(16)
	c.granted(-1, 1, c.floor())
	expectOne(t, c, "outside [0, 16)")
}

func TestCheckerDuplicateHolder(t *testing.T) {
	c := newChecker(16)
	c.granted(5, 1, c.floor())
	c.granted(5, 2, c.floor())
	expectOne(t, c, "while held")
}

func TestCheckerTokenNotAbovePreviousGrantOfName(t *testing.T) {
	c := newChecker(16)
	c.granted(5, 9, 0)
	c.releasing(5, 9)
	// Floor 0 isolates the per-name rule from the real-time one.
	c.granted(5, 9, 0)
	expectOne(t, c, "not above its previous grant")
}

func TestCheckerTokenNotAboveRealTimeFloor(t *testing.T) {
	c := newChecker(16)
	c.granted(1, 20, c.floor())
	floor := c.floor() // a later acquire is sent after the grant of 20 completed
	c.granted(2, 19, floor)
	expectOne(t, c, "granted before it was requested")
}

func TestCheckerConcurrentGrantsMayCompleteOutOfOrder(t *testing.T) {
	c := newChecker(16)
	floor := c.floor() // both acquires in flight at once
	c.granted(1, 20, floor)
	c.granted(2, 19, floor)
	if msgs := violations(t, c); len(msgs) != 0 {
		t.Fatalf("overlapping grants flagged: %q", msgs)
	}
}

func TestCheckerLostOnRenew(t *testing.T) {
	c := newChecker(16)
	c.granted(7, 1, c.floor())
	lost := c.renewed([]wire.Item{{Name: 7, Token: 1}}, wire.BatchResults{Results: []wire.BatchResult{
		{Code: wire.CodeExpired, Error: "lease expired"},
	}})
	if lost != 1 {
		t.Fatalf("lost = %d, want 1", lost)
	}
	expectOne(t, c, "lost on renew")
}

func TestCheckerRenewAnsweredForOtherLease(t *testing.T) {
	c := newChecker(16)
	c.granted(7, 1, c.floor())
	lost := c.renewed([]wire.Item{{Name: 7, Token: 1}}, wire.BatchResults{Results: []wire.BatchResult{
		{Lease: &wire.Lease{Name: 8, Token: 1}},
	}})
	if lost != 1 {
		t.Fatalf("lost = %d, want 1", lost)
	}
	expectOne(t, c, "answered for 8/1")
}

func TestCheckerRenewResultCountMismatch(t *testing.T) {
	c := newChecker(16)
	c.granted(7, 1, c.floor())
	lost := c.renewed([]wire.Item{{Name: 7, Token: 1}}, wire.BatchResults{})
	if lost != 1 {
		t.Fatalf("lost = %d, want 1", lost)
	}
	expectOne(t, c, "answered with 0 results")
}

func TestCheckerRenewOfLeaseNotHeld(t *testing.T) {
	c := newChecker(16)
	c.renewed([]wire.Item{{Name: 7, Token: 1}}, wire.BatchResults{Results: []wire.BatchResult{
		{Lease: &wire.Lease{Name: 7, Token: 1}},
	}})
	expectOne(t, c, "not one the generator holds")
}

func TestCheckerReleaseOfLeaseNotHeld(t *testing.T) {
	c := newChecker(16)
	c.releasing(7, 1)
	expectOne(t, c, "does not hold")
}

func TestSummarizeExactPercentiles(t *testing.T) {
	d := make([]time.Duration, 1000)
	for i := range d {
		d[len(d)-1-i] = time.Duration(i+1) * time.Microsecond
	}
	p := summarize(d)
	if p.N != 1000 || p.P50us != 500 || p.P99us != 990 {
		t.Fatalf("summary = %+v, want n=1000 p50=500 p99=990", p)
	}
	if p.Beyond99 != 10 || p.TopLabel != "99" || p.TopUs != 990 {
		t.Fatalf("top = %d beyond, p%s=%v; want 10 beyond p99=990", p.Beyond99, p.TopLabel, p.TopUs)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	w, _ := workloadByName("churn-bin")
	a, b, c := newSchedule(w, 7, 4096), newSchedule(w, 7, 4096), newSchedule(w, 8, 4096)
	for i := range a.ops {
		if a.ops[i] != b.ops[i] {
			t.Fatalf("same seed, op %d differs", i)
		}
	}
	same := true
	for i := range a.ops {
		same = same && a.ops[i] == c.ops[i]
	}
	if same || a.order[0] == c.order[0] && a.order[1] == c.order[1] && a.order[2] == c.order[2] {
		t.Fatalf("seeds 7 and 8 gave the same schedule")
	}
}

func TestWorkloadsSplitTheNamer(t *testing.T) {
	for _, tc := range []struct {
		name           string
		minCyc, maxCyc float64
	}{
		{"heartbeat-bin", 0, 0.05},
		{"churn-bin", 0.9, 1},
	} {
		w, _ := workloadByName(tc.name)
		s := newSchedule(w, 1, 1<<16)
		if _, f := s.mix(); f < tc.minCyc || f > tc.maxCyc {
			t.Errorf("%s: cycle share %.3f outside [%v, %v]", tc.name, f, tc.minCyc, tc.maxCyc)
		}
	}
}

func TestKeptFallsBackToLeastStolenWindows(t *testing.T) {
	clean := []bool{true, false, false, true, false}
	got := kept(clean, []int64{0, 9, 2, 1, 5})
	want := []bool{true, false, true, true, false}
	if !slices.Equal(got, want) {
		t.Fatalf("kept = %v, want %v", got, want)
	}
	clean = []bool{true, true, false, true}
	if got := kept(clean, []int64{0, 0, 9, 0}); !slices.Equal(got, clean) {
		t.Fatalf("kept = %v, want the clean windows %v", got, clean)
	}
}

func TestVerdictGathersEveryChecker(t *testing.T) {
	// A run sets the server up several times; a violation seen by an early
	// set-up's checker must fail the run although a later one is clean.
	var rep report
	early := rep.newChecker(16)
	early.granted(16, 1, early.floor())
	rep.newChecker(16).granted(3, 1, 0)
	rep.verdict()
	if rep.Result.Correct || len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0], "outside [0, 16)") {
		t.Fatalf("correct=%v violations=%q, want the early set-up's violation", rep.Result.Correct, rep.Violations)
	}
}

func TestVerdictSeesViolationsOfLaterPhases(t *testing.T) {
	// The traced run keeps using a checker after its open-loop phase; the
	// verdict is taken only once every phase is over.
	var rep report
	c := rep.newChecker(16)
	c.granted(3, 1, c.floor())
	c.releasing(3, 1)
	c.granted(3, 1, 0) // a later phase sees a token reused
	rep.verdict()
	if rep.Result.Correct || len(rep.Violations) != 1 {
		t.Fatalf("correct=%v violations=%q, want the later phase's violation", rep.Result.Correct, rep.Violations)
	}
}

func TestVerdictFailedRequestIsViolation(t *testing.T) {
	var rep report
	rep.newChecker(16)
	rep.Result.Attempted, rep.Result.Failed = 10, 1
	rep.verdict()
	if rep.Result.Correct || len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0], "1 of 10 requests failed") {
		t.Fatalf("correct=%v violations=%q, want a failed-request violation", rep.Result.Correct, rep.Violations)
	}
}

func TestVerdictCleanRunIsCorrect(t *testing.T) {
	var rep report
	c := rep.newChecker(16)
	c.granted(3, 1, c.floor())
	rep.Result.Attempted = 1
	rep.verdict()
	if !rep.Result.Correct || len(rep.Violations) != 0 {
		t.Fatalf("correct=%v violations=%q, want a clean verdict", rep.Result.Correct, rep.Violations)
	}
}

// failingTransport answers every call with an error.
type failingTransport struct{ leaseclient.Transport }

var errRefused = errors.New("refused")

func (failingTransport) Acquire(context.Context, *wire.AcquireRequest) (wire.Lease, error) {
	return wire.Lease{}, errRefused
}

func (failingTransport) RenewBatch(context.Context, *wire.RenewBatchRequest) (wire.BatchResults, error) {
	return wire.BatchResults{}, errRefused
}

func TestExecCountsTransportErrorsAsFailed(t *testing.T) {
	for _, tc := range []struct {
		name  string
		share float64
	}{{"renew", 0}, {"acquire", 1}} {
		w := workload{name: tc.name, standing: 4, batch: 2, cycleShare: tc.share}
		g := &generator{sched: newSchedule(w, 1, 8), chk: newChecker(16), standing: make([]wire.Item, 4)}
		var st genStats
		g.exec(context.Background(), failingTransport{}, 0, time.Time{}, nil, &st)
		rep := report{Result: resultLine{Attempted: st.attempted, Failed: st.failed}}
		rep.verdict()
		if st.failed != 1 || st.ops != 0 || rep.Result.Correct {
			t.Fatalf("%s: failed=%d ops=%d correct=%v, want one failed op and an incorrect run", tc.name, st.failed, st.ops, rep.Result.Correct)
		}
	}
}

func TestHostComparableIgnoresCommitAndSeed(t *testing.T) {
	a := host{NProc: 2, GoMaxProcsGen: 1, GoMaxProcsServer: 1, CPUModel: "x", GoVersion: "go1", Commit: "parent", Seed: 1}
	b := a
	b.Commit, b.Seed = "change", 2
	if !a.comparable(b) {
		t.Fatalf("reports of two commits on one machine called incomparable")
	}
	b.GoMaxProcsServer = 2
	if a.comparable(b) {
		t.Fatalf("reports from machines with different GOMAXPROCS called comparable")
	}
}
