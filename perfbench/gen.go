package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/wire"
	"repro/leaseclient"
)

// genStats is what one generator phase observed. Latencies are exact.
type genStats struct {
	renewLat  []time.Duration // renew_batch round trips
	acqLat    []time.Duration // acquire round trips
	renewAt   []int32         // schedule index of each renewLat sample
	acqAt     []int32         // schedule index of each acqLat sample
	waits     []time.Duration // open loop only: how late each op was sent
	renewed   int64           // renew items completed OK
	cycles    int64           // acquire→release cycles completed OK
	ops       int64           // scheduled ops completed without failure
	attempted int64           // requests sent
	failed    int64           // requests that errored, were refused, or lost a lease
	// backlogMax is the most ops ever due but not yet sent; behindEnd is
	// how many were due and unsent when the last op was claimed. Both
	// are 0 for a closed loop.
	backlogMax int64
	behindEnd  int64
	elapsed    time.Duration
	overran    bool // the open loop hit its time limit before sending every op
	// windowSteal is, per window of an open loop, the steal ticks
	// (stealTicks) from the window's first op to the next window's.
	windowSteal []int64
}

func (g *genStats) merge(o *genStats) {
	g.renewLat = append(g.renewLat, o.renewLat...)
	g.acqLat = append(g.acqLat, o.acqLat...)
	g.renewAt = append(g.renewAt, o.renewAt...)
	g.acqAt = append(g.acqAt, o.acqAt...)
	g.waits = append(g.waits, o.waits...)
	g.renewed += o.renewed
	g.cycles += o.cycles
	g.ops += o.ops
	g.attempted += o.attempted
	g.failed += o.failed
	g.backlogMax = max(g.backlogMax, o.backlogMax)
}

// generator drives one server through a fixed set of transports, one
// worker goroutine per transport, checking every response.
type generator struct {
	sched    *schedule
	standing []wire.Item // index → held standing lease
	chk      *checker
	trs      []leaseclient.Transport
}

// exec runs op i on transport tr, timing it from due (the zero time means
// from the moment it is sent), and records the outcome in st.
func (g *generator) exec(ctx context.Context, tr leaseclient.Transport, i int, due time.Time, items []wire.Item, st *genStats) []wire.Item {
	o := g.sched.at(i)
	w := g.sched.w
	switch o.kind {
	case opRenew:
		items = items[:0]
		for k := 0; k < w.batch; k++ {
			items = append(items, g.standing[g.sched.order[(int(o.first)+k)%len(g.sched.order)]])
		}
		sent := time.Now()
		if due.IsZero() {
			due = sent
		}
		st.attempted++
		res, err := tr.RenewBatch(ctx, &wire.RenewBatchRequest{TTLms: leaseTTL.Milliseconds(), Items: items})
		if err != nil {
			st.failed++
			return items
		}
		st.renewLat = append(st.renewLat, time.Since(due))
		st.renewAt = append(st.renewAt, int32(i))
		if g.chk.renewed(items, res) > 0 {
			st.failed++
			return items
		}
		st.renewed += int64(len(items))
		st.ops++
	case opCycle:
		floor := g.chk.floor()
		sent := time.Now()
		if due.IsZero() {
			due = sent
		}
		st.attempted++
		l, err := tr.Acquire(ctx, &wire.AcquireRequest{Owner: g.sched.owners[o.owner], TTLms: leaseTTL.Milliseconds()})
		if err != nil {
			st.failed++
			return items
		}
		st.acqLat = append(st.acqLat, time.Since(due))
		st.acqAt = append(st.acqAt, int32(i))
		g.chk.granted(l.Name, l.Token, floor)
		g.chk.releasing(l.Name, l.Token)
		st.attempted++
		if err := tr.Release(ctx, &wire.ReleaseRequest{Name: l.Name, Token: l.Token}); err != nil {
			st.failed++
			return items
		}
		st.cycles++
		st.ops++
	}
	return items
}

// openLoop sends ops first..first+n at a fixed rate in k windows. Each
// window is its own open-loop trial: its ops are due at fixed intervals
// from the window's start, whether or not earlier ops have completed, and
// latency is timed from the due instant, so a stall inside a window is
// charged to every op it delays. A window starts on schedule, or when its
// first op is claimed if the generator is behind: the backlog a steal
// storm leaves is not carried into the next window. The phase stops
// early, marked overran, if it runs past twice its plan.
func (g *generator) openLoop(ctx context.Context, first, n int, rate float64, k int) genStats {
	start := time.Now().Add(time.Millisecond)
	limit := start.Add(2*time.Duration(float64(n)/rate*float64(time.Second)) + time.Second)
	interval := func(ops int) time.Duration { return time.Duration(float64(ops) / rate * float64(time.Second)) }
	firstOf := func(w int) int { return (w*n + k - 1) / k } // first op index of window w
	// Per window, set by whoever claims its first op: the steal counter
	// then (and, in steal[k], at the end) and the window's base instant.
	steal := make([]atomic.Int64, k+1)
	base := make([]atomic.Int64, k) // UnixNano; 0 until set
	for w := range steal {
		steal[w].Store(-1)
	}
	var next atomic.Int64
	var overran atomic.Bool
	var behind atomic.Int64
	per := make([]genStats, len(g.trs))
	var wg sync.WaitGroup
	for wi, tr := range g.trs {
		wg.Add(1)
		go func(st *genStats, tr leaseclient.Transport) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			preciseTimers()
			st.renewLat = make([]time.Duration, 0, n/len(g.trs)+16)
			st.acqLat = make([]time.Duration, 0, n/len(g.trs)/4+16)
			st.waits = make([]time.Duration, 0, n/len(g.trs)+16)
			var items []wire.Item
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				now := time.Now()
				w := i * k / n
				if i == firstOf(w) {
					steal[w].Store(stealTicks())
					base[w].Store(max(start.Add(interval(i)).UnixNano(), now.UnixNano()))
				}
				if now.After(limit) {
					overran.Store(true)
					return
				}
				for base[w].Load() == 0 { // another worker is opening the window
					runtime.Gosched()
				}
				wbase := time.Unix(0, base[w].Load())
				due := wbase.Add(interval(i - firstOf(w)))
				if d := due.Sub(now); d > 0 {
					nanosleep(d)
					now = time.Now()
				}
				// Ops of this window due by now but not yet claimed.
				backlog := int64(float64(now.Sub(wbase))/float64(time.Second)*rate) - int64(i-firstOf(w))
				st.backlogMax = max(st.backlogMax, backlog)
				if i == n-1 {
					behind.Store(max(backlog, 0))
				}
				st.waits = append(st.waits, now.Sub(due))
				items = g.exec(ctx, tr, first+i, due, items, st)
			}
		}(&per[wi], tr)
	}
	wg.Wait()
	steal[k].Store(stealTicks())
	var out genStats
	for i := range per {
		out.merge(&per[i])
	}
	out.elapsed = time.Since(start)
	out.overran = overran.Load()
	out.behindEnd = behind.Load()
	out.windowSteal = make([]int64, k)
	for w := 0; w < k; w++ {
		end := steal[w+1].Load()
		for j := w + 2; end < 0 && j <= k; j++ {
			end = steal[j].Load()
		}
		if begin := steal[w].Load(); begin >= 0 {
			out.windowSteal[w] = end - begin
		}
	}
	return out
}

// closedLoop runs every worker back to back for d, starting at op first:
// each sends its next op as soon as the previous one completes, so the
// pipeline depth is fixed at one request per connection.
func (g *generator) closedLoop(ctx context.Context, first int, d time.Duration) genStats {
	start := time.Now()
	end := start.Add(d)
	var next atomic.Int64
	per := make([]genStats, len(g.trs))
	var wg sync.WaitGroup
	for wi, tr := range g.trs {
		wg.Add(1)
		go func(st *genStats, tr leaseclient.Transport) {
			defer wg.Done()
			var items []wire.Item
			for time.Now().Before(end) {
				i := int(next.Add(1) - 1)
				items = g.exec(ctx, tr, first+i, time.Time{}, items, st)
			}
		}(&per[wi], tr)
	}
	wg.Wait()
	var out genStats
	for i := range per {
		out.merge(&per[i])
	}
	out.elapsed = time.Since(start)
	return out
}

// fill acquires the workload's standing population through tr in batches
// and records every grant with the checker.
func fill(ctx context.Context, tr leaseclient.Transport, w workload, chk *checker, st *genStats) ([]wire.Item, error) {
	items := make([]wire.Item, 0, w.standing)
	for len(items) < w.standing {
		k := min(1024, w.standing-len(items))
		floor := chk.floor()
		st.attempted++
		ls, err := tr.AcquireBatch(ctx, &wire.AcquireBatchRequest{Owner: "standing", Count: k, TTLms: leaseTTL.Milliseconds()})
		if err != nil {
			st.failed++
			return nil, fmt.Errorf("fill standing set at %d/%d: %w", len(items), w.standing, err)
		}
		for _, l := range ls.Leases {
			chk.granted(l.Name, l.Token, floor)
			items = append(items, wire.Item{Name: l.Name, Token: l.Token})
		}
	}
	return items, nil
}

// warm renews every standing lease once, in the workload's batch size,
// across all transports: connections are open, buffers sized and the
// table's cache lines touched before anything is timed.
func (g *generator) warm(ctx context.Context) genStats {
	batches := (len(g.standing) + g.sched.w.batch - 1) / g.sched.w.batch
	var next atomic.Int64
	per := make([]genStats, len(g.trs))
	var wg sync.WaitGroup
	for wi, tr := range g.trs {
		wg.Add(1)
		go func(st *genStats, tr leaseclient.Transport) {
			defer wg.Done()
			items := make([]wire.Item, 0, g.sched.w.batch)
			for {
				b := int(next.Add(1) - 1)
				if b >= batches {
					return
				}
				lo, hi := b*g.sched.w.batch, min((b+1)*g.sched.w.batch, len(g.standing))
				items = append(items[:0], g.standing[lo:hi]...)
				st.attempted++
				res, err := tr.RenewBatch(ctx, &wire.RenewBatchRequest{TTLms: leaseTTL.Milliseconds(), Items: items})
				if err != nil {
					st.failed++
					continue
				}
				if g.chk.renewed(items, res) > 0 {
					st.failed++
				}
			}
		}(&per[wi], tr)
	}
	wg.Wait()
	var out genStats
	for i := range per {
		out.merge(&per[i])
	}
	return out
}

// preciseTimers sets the calling thread's timer slack to 1µs (Linux
// prctl PR_SET_TIMERSLACK), so nanosleep wakes it within microseconds of
// an op's due time instead of the default 50µs later. The caller holds
// its goroutine on the thread with runtime.LockOSThread.
func preciseTimers() {
	const prSetTimerslack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)
}

// nanosleep blocks the calling thread for d. The runtime's timers round
// sub-millisecond sleeps up to a millisecond when the process is
// otherwise idle, which at these rates would charge the generator's own
// lateness to every op; a thread sleep has microsecond precision and,
// unlike spinning, leaves the CPUs to the server.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// replay runs ops first..first+n back to back on the first transport, one
// request at a time.
func (g *generator) replay(ctx context.Context, first, n int) genStats {
	var st genStats
	var items []wire.Item
	for i := first; i < first+n; i++ {
		items = g.exec(ctx, g.trs[0], i, time.Time{}, items, &st)
	}
	return st
}
