package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	renaming "repro"
	"repro/internal/wire"
	"repro/lease"
	"repro/leaseclient"
)

// span is one timed call at a layer boundary. The spans of one request
// share Trace; Parent is the span that caused this one (0 for a root).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept in memory; counts stay exact past it.
const maxSpans = 200_000

// tracer keeps spans in memory until the run ends. Children link to the
// open root: the traced replay has one request in flight at a time, so
// every span a layer records inside a root's interval belongs to it.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	root   atomic.Uint64 // ID (= Trace) of the open root span, 0 if none

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, maxSpans), counts: map[string]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginRoot opens a root span and makes it the parent of later children.
func (t *tracer) beginRoot(name string) span {
	id := t.nextID.Add(1)
	t.root.Store(id)
	return span{Trace: id, ID: id, Name: name, Start: t.now()}
}

// beginChild opens a span under the open root, if any.
func (t *tracer) beginChild(name string) span {
	root := t.root.Load()
	return span{Trace: root, ID: t.nextID.Add(1), Parent: root, Name: name, Start: t.now()}
}

func (t *tracer) end(s span) {
	s.End = t.now()
	if s.Parent == 0 {
		t.root.CompareAndSwap(s.ID, 0)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[s.Name]++
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	}
}

// countPrefix is the number of spans whose name starts with prefix.
func (t *tracer) countPrefix(prefix string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for name, c := range t.counts {
		if strings.HasPrefix(name, prefix) {
			n += c
		}
	}
	return n
}

// selfTimes computes each kept span's self time — its duration minus the
// part its children cover — and returns the mean per span name.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[uint64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	sum, n := map[string]int64{}, map[string]int64{}
	for _, s := range t.spans {
		sum[s.Name] += s.End - s.Start - child[s.ID]
		n[s.Name]++
	}
	out := map[string]float64{}
	for name, total := range sum {
		out[name] = float64(total) / float64(n[name])
	}
	return out
}

// write saves the kept spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedNamer is the renaming.Namer handed to lease.New in the traced
// stack: it counts every call and records a span around each.
type tracedNamer struct {
	renaming.Namer
	t     *tracer
	calls atomic.Int64
}

func (n *tracedNamer) Acquire(ctx context.Context) (int, error) {
	s := n.t.beginChild("levelarray.acquire")
	name, err := n.Namer.Acquire(ctx)
	n.t.end(s)
	n.calls.Add(1)
	return name, err
}

func (n *tracedNamer) AcquireN(ctx context.Context, k int) ([]int, error) {
	s := n.t.beginChild("levelarray.acquire_n")
	names, err := n.Namer.AcquireN(ctx, k)
	n.t.end(s)
	n.calls.Add(1)
	return names, err
}

func (n *tracedNamer) Release(name int) error {
	s := n.t.beginChild("levelarray.release")
	err := n.Namer.Release(name)
	n.t.end(s)
	n.calls.Add(1)
	return err
}

// timedObserver wraps the persist.Store observer: it accumulates the time
// spent in every callback and, given a tracer, records a span for each.
type timedObserver struct {
	lease.Observer
	t     *tracer // nil: time only
	ns    atomic.Int64
	calls atomic.Int64
}

func (o *timedObserver) observe(f func()) {
	var s span
	if o.t != nil {
		s = o.t.beginChild("persist.observe")
	}
	start := time.Now()
	f()
	o.ns.Add(int64(time.Since(start)))
	o.calls.Add(1)
	if o.t != nil {
		o.t.end(s)
	}
}

func (o *timedObserver) ObserveAcquire(l lease.Lease) {
	o.observe(func() { o.Observer.ObserveAcquire(l) })
}

func (o *timedObserver) ObserveRenew(name int, token uint64, expiresAt time.Time) {
	o.observe(func() { o.Observer.ObserveRenew(name, token, expiresAt) })
}

func (o *timedObserver) ObserveRelease(name int, token uint64) {
	o.observe(func() { o.Observer.ObserveRelease(name, token) })
}

func (o *timedObserver) ObserveExpire(name int, token uint64) {
	o.observe(func() { o.Observer.ObserveExpire(name, token) })
}

// tracedTransport records a root span around every leaseclient call,
// named leaseclient.<wire>.<op>.
type tracedTransport struct {
	leaseclient.Transport
	t    *tracer
	wire string
}

func (tt *tracedTransport) begin(op string) span {
	return tt.t.beginRoot("leaseclient." + tt.wire + "." + op)
}

func (tt *tracedTransport) Acquire(ctx context.Context, req *wire.AcquireRequest) (wire.Lease, error) {
	s := tt.begin("acquire")
	defer tt.t.end(s)
	return tt.Transport.Acquire(ctx, req)
}

func (tt *tracedTransport) AcquireBatch(ctx context.Context, req *wire.AcquireBatchRequest) (wire.Leases, error) {
	s := tt.begin("acquire_batch")
	defer tt.t.end(s)
	return tt.Transport.AcquireBatch(ctx, req)
}

func (tt *tracedTransport) RenewBatch(ctx context.Context, req *wire.RenewBatchRequest) (wire.BatchResults, error) {
	s := tt.begin("renew_batch")
	defer tt.t.end(s)
	return tt.Transport.RenewBatch(ctx, req)
}

func (tt *tracedTransport) Release(ctx context.Context, req *wire.ReleaseRequest) error {
	s := tt.begin("release")
	defer tt.t.end(s)
	return tt.Transport.Release(ctx, req)
}
