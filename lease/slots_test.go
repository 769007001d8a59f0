package lease

import (
	"context"
	"slices"
	"testing"
	"time"

	renaming "repro"
)

// newSlotManager builds a manager over a LevelArray of capacity n with a
// fake clock and the sweeper off; cfg supplies the other settings.
func newSlotManager(t *testing.T, n int, cfg Config, opts ...renaming.Option) (*Manager, *fakeClock) {
	t.Helper()
	nm, err := renaming.NewLevelArray(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	cfg.SweepInterval, cfg.Now = -1, clk.Now
	m, err := New(nm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, clk
}

// TestResizeGrowGrantPastOldEnd grows the namer online and takes grants
// whose names lie past the old namespace end. The stripe's slot slice
// grows under its lock on that first insert — the table is never told
// about the Resize — and every operation then finds the lease there.
func TestResizeGrowGrantPastOldEnd(t *testing.T) {
	newManager := func() (*Manager, *fakeClock) {
		return newSlotManager(t, 8, Config{TTL: 10 * time.Second, Shards: 2}, renaming.WithResizable())
	}
	grow := func(m *Manager) {
		if err := m.Namer().(renaming.ResizableNamer).Resize(1024); err != nil {
			t.Fatal(err)
		}
	}
	m, clk := newManager()
	oldEnd := m.Namespace()
	if _, err := m.Acquire("before", 0, nil); err != nil {
		t.Fatal(err)
	}
	grow(m)
	var past []Lease // grants past the old end; the others stay held
	for len(past) < 2 {
		l, err := m.Acquire("w", 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if l.Name >= oldEnd {
			past = append(past, l)
		}
	}
	far, short := past[0], past[1]

	renewed, err := m.Renew(far.Name, far.Token, 20*time.Second)
	if err != nil || !renewed.ExpiresAt.Equal(clk.Now().Add(20*time.Second)) {
		t.Fatalf("renew past the old end = %+v, %v", renewed, err)
	}
	if got, ok := m.Get(far.Name); !ok || got.Token != far.Token {
		t.Fatalf("Get(%d) = %+v, %v; want token %d", far.Name, got, ok, far.Token)
	}
	if !slices.ContainsFunc(m.Leases(), func(l Lease) bool { return l.Name == far.Name }) {
		t.Fatalf("Leases() misses name %d", far.Name)
	}
	if err := m.Release(far.Name, far.Token); err != nil {
		t.Fatalf("release past the old end: %v", err)
	}
	if _, ok := m.Get(far.Name); ok {
		t.Fatal("released lease still visible")
	}

	if _, err := m.Renew(short.Name, short.Token, time.Second); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second) // past short's deadline only
	if n := m.SweepOnce(); n != 1 {
		t.Fatalf("SweepOnce = %d, want 1 (the lease past the old end)", n)
	}

	// A fresh grown manager restores that name straight into a slot its
	// stripe has never grown to.
	m2, clk2 := newManager()
	grow(m2)
	st := RestoreState{Leases: []Lease{{Name: short.Name, Token: 7, Owner: "r", ExpiresAt: clk2.Now().Add(time.Minute)}}}
	if n, _, err := m2.Restore(st); err != nil || n != 1 {
		t.Fatalf("Restore = %d, %v; want 1 restored", n, err)
	}
	if got, ok := m2.Get(short.Name); !ok || got.Token != 7 || got.Owner != "r" {
		t.Fatalf("restored Get = %+v, %v", got, ok)
	}
	if _, err := m2.Renew(short.Name, 7, 0); err != nil {
		t.Fatalf("renew restored lease: %v", err)
	}
}

// TestRenewShorterTTL renews a lease with a TTL shorter than the time it
// has left. The in-place deadline store must lower the stripe's nextDue
// bound, or reclamation would skip the stripe until the original, later
// deadline: both a sweep and the capacity-pressure path must reclaim the
// lease at the shorter deadline, the latter rather than fail ErrCapacity.
func TestRenewShorterTTL(t *testing.T) {
	for _, path := range []string{"sweep", "capacity"} {
		m, clk := newSlotManager(t, 8, Config{TTL: 10 * time.Second, MaxLive: 1})
		l, err := m.Acquire("w", time.Minute, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Renew(l.Name, l.Token, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		clk.Advance(3 * time.Second) // past the renewed deadline, long before the original
		if path == "sweep" {
			if n := m.SweepOnce(); n != 1 {
				t.Fatalf("SweepOnce after the shorter deadline = %d, want 1", n)
			}
		} else if _, err := m.Acquire("next", 0, nil); err != nil {
			t.Fatalf("acquire with only a lapsed lease at the cap: %v", err)
		}
		if mt := m.Metrics(); mt.Expired != 1 {
			t.Fatalf("%s: metrics = %+v, want Expired 1", path, mt)
		}
	}
}

// TestTableSizedByNamespace: with the sweeper off, thousands of grants
// reclaimed only lazily (Get on a lapsed lease) leave a table sized by
// the namespace, not by the number of grants.
func TestTableSizedByNamespace(t *testing.T) {
	m, clk := newSlotManager(t, 8, Config{TTL: time.Second, Shards: 1})
	for i := 0; i < 5000; i++ {
		l, err := m.Acquire("w", 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		clk.Advance(2 * time.Second)
		if _, ok := m.Get(l.Name); ok {
			t.Fatal("expired lease still live")
		}
	}
	// The sweeper is off: nothing races this read.
	if n := len(m.shards[0].slots); n > m.Namespace() {
		t.Fatalf("%d slots after 5000 grants, want <= namespace %d", n, m.Namespace())
	}
	if mt := m.Metrics(); mt.Expired != 5000 || mt.Live != 0 {
		t.Fatalf("metrics = %+v, want Expired 5000, Live 0", mt)
	}
}

// TestRenewRacingSweepPopSurvives pins the sweep's deadline check under
// its nastiest interleaving: a sweep has already read its clock, and the
// stripe's nextDue still names the lease's old deadline, when a renewal
// lands and moves the deadline forward. The sweep must judge the lease by
// the deadline stored in its slot, not the one that made the stripe due,
// and keep the freshly renewed lease.
//
// The interleaving is deterministic via a clock hook: SweepOnce's Now()
// call fires a hook that (in a separate goroutine, so -race watches the
// handoff) renews the lease at T0+9s — one second before its original
// T0+10s deadline, extending it to T0+19s — and then advances the clock
// to T0+11s. The sweep therefore runs with now = T0+11s: past the old
// entry's deadline, inside the renewed one's.
func TestRenewRacingSweepPopSurvives(t *testing.T) {
	nm, err := renaming.NewLevelArray(8)
	if err != nil {
		t.Fatal(err)
	}
	clk := &hookClock{t: time.Unix(1000, 0)}
	m, err := New(nm, Config{TTL: 10 * time.Second, SweepInterval: -1, Shards: 1, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	l, err := m.Acquire("hb", 10*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}

	var renewed Lease
	clk.mu.Lock()
	clk.hook = func() {
		clk.Advance(9 * time.Second) // T0+9: lease live for one more second
		done := make(chan struct{})
		go func() {
			defer close(done)
			var rerr error
			renewed, rerr = m.Renew(l.Name, l.Token, 10*time.Second)
			if rerr != nil {
				t.Errorf("renew racing sweep: %v", rerr)
			}
		}()
		<-done
		clk.Advance(2 * time.Second) // T0+11: past the OLD deadline only
	}
	clk.mu.Unlock()

	if n := m.SweepOnce(); n != 0 {
		t.Fatalf("sweep reclaimed %d leases popping a stale entry, want 0 — renewed lease lost", n)
	}
	got, ok := m.Get(l.Name)
	if !ok {
		t.Fatal("renewed lease gone after sweep popped its stale heap entry")
	}
	if !got.ExpiresAt.Equal(renewed.ExpiresAt) {
		t.Fatalf("lease deadline = %v, want renewed %v", got.ExpiresAt, renewed.ExpiresAt)
	}
	if mt := m.Metrics(); mt.Expired != 0 || mt.Live != 1 {
		t.Fatalf("metrics = %+v, want Expired 0 and the renewed lease live", mt)
	}
	// The holder's token still fences: a follow-up heartbeat succeeds.
	if _, err := m.Renew(l.Name, l.Token, 0); err != nil {
		t.Fatalf("heartbeat after the race: %v", err)
	}
}

// TestSweepKeepsSurvivorsDue sweeps a stripe wider than one scan chunk.
// First the long leases heartbeat while sweeps reclaim the short ones,
// so renewals race scans across chunk boundaries (run with -race). Then
// a sweep that reclaims one more lapsed lease passes over the long ones,
// which must lower the stripe's nextDue again so the sweep after their
// deadline does not skip the stripe.
func TestSweepKeepsSurvivorsDue(t *testing.T) {
	ctx := context.Background()
	m, clk := newSlotManager(t, 4096, Config{TTL: time.Second, Shards: 1})
	short, err := m.AcquireBatch(ctx, "short", 1500, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	long, err := m.AcquireBatch(ctx, "long", 1500, 10*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	byName := func(a, b Lease) int { return a.Name - b.Name }
	if top := max(slices.MaxFunc(short, byName).Name, slices.MaxFunc(long, byName).Name); top < sweepChunk {
		t.Fatalf("highest name %d fits in one scan chunk of %d; the test needs several", top, sweepChunk)
	}
	items := make([]RenewItem, len(long))
	for i, l := range long {
		items[i] = RenewItem{Name: l.Name, Token: l.Token}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 50; round++ {
			clk.Advance(40 * time.Millisecond)
			res, err := m.RenewBatch(ctx, items, 10*time.Second)
			for _, r := range res {
				if r.Err != nil {
					err = r.Err
				}
			}
			if err != nil {
				t.Errorf("heartbeat round %d: %v", round, err)
				return
			}
		}
	}()
	swept := 0
	for heartbeating := true; heartbeating; {
		select {
		case <-done:
			heartbeating = false
		default:
		}
		swept += m.SweepOnce()
	}
	if swept != len(short) {
		t.Fatalf("sweeps racing heartbeats reclaimed %d, want %d", swept, len(short))
	}

	if _, err := m.Acquire("mid", time.Second, nil); err != nil {
		t.Fatal(err)
	}
	clk.Advance(1500 * time.Millisecond) // past mid's deadline, before long's
	if n := m.SweepOnce(); n != 1 {
		t.Fatalf("SweepOnce after mid's deadline = %d, want 1", n)
	}
	clk.Advance(10 * time.Second)
	if n := m.SweepOnce(); n != len(long) {
		t.Fatalf("SweepOnce after long's deadline = %d, want %d", n, len(long))
	}
}
