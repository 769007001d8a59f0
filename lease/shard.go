package lease

import (
	"runtime"
	"sync"
	"time"
)

// sweepChunk bounds how many slots a sweep examines per hold of a stripe
// lock, so scanning a large stripe never stalls its renewals for longer
// than one chunk.
const sweepChunk = 4096

// shard is one lock stripe of the manager's lease table. Names route to
// shards by name & (len(shards)-1) and to a slot within the shard by
// name >> log2(len(shards)), so every operation on a given name
// serializes on exactly one shard mutex while operations on other names
// proceed in parallel. The struct is padded to a cache line so adjacent
// shards' mutexes don't false-share under contention.
type shard struct {
	mu sync.Mutex
	// slots[i] is nil until the name at slot i is first granted; that
	// record is then reused by every later grant of the name, so the
	// table allocates nothing in steady state. Token 0 marks a free
	// record (tokens are minted from 1). An insert past the end grows
	// the slice, so a namer Resize needs no coupling to the table.
	slots []*Lease
	// nextDue is a lower bound on the stripe's earliest deadline (zero:
	// none). Deadline writes lower it and sweep scans recompute it, so
	// while now is not past it a sweep skips the stripe in O(1).
	nextDue time.Time

	_ [8]byte // pad to 64 bytes: mutex(8) + slice header(24) + time.Time(24)
}

// held reports whether rec is a granted lease, possibly lapsed, rather
// than an empty slot.
func held(rec *Lease) bool { return rec != nil && rec.Token != 0 }

// lookup returns the granted record at slot i, or nil when i is out of
// range or the slot is empty. Callers hold sh.mu.
func (sh *shard) lookup(i int) *Lease {
	if uint(i) >= uint(len(sh.slots)) {
		return nil
	}
	if rec := sh.slots[i]; held(rec) {
		return rec
	}
	return nil
}

// put makes l the lease at slot i, growing the slot slice when i lies
// past its end. On a name's first grant the record is spare, or a fresh
// allocation when spare is nil; later grants overwrite it in place.
// Callers hold sh.mu.
func (sh *shard) put(i int, l Lease, spare *Lease) {
	if i >= len(sh.slots) {
		sh.slots = append(sh.slots, make([]*Lease, i+1-len(sh.slots))...)
	}
	rec := sh.slots[i]
	if rec == nil {
		if rec = spare; rec == nil {
			rec = new(Lease)
		}
		sh.slots[i] = rec
	}
	*rec = l
	sh.due(l.ExpiresAt)
}

// due lowers nextDue to cover deadline d. Callers hold sh.mu.
func (sh *shard) due(d time.Time) {
	if sh.nextDue.IsZero() || d.Before(sh.nextDue) {
		sh.nextDue = d
	}
}

// sweepShard drops stripe s's leases expired as of now and appends
// their names to expired. It costs O(1) while now is not past the
// stripe's nextDue; otherwise it resets nextDue and scans every slot,
// retaking the stripe lock each sweepChunk slots, while survivors — and
// writes landing between chunks — lower nextDue again. Callers hold
// m.sweepMu, so no second scan resets nextDue mid-way, and must hand the
// names to m.releaseNames after releasing it.
func (m *Manager) sweepShard(s int, now time.Time, expired []int) []int {
	sh := &m.shards[s]
	sh.mu.Lock()
	if sh.nextDue.IsZero() || !now.After(sh.nextDue) {
		sh.mu.Unlock()
		return expired
	}
	sh.nextDue = time.Time{}
	for lo := 0; lo < len(sh.slots); lo += sweepChunk {
		if lo > 0 {
			sh.mu.Unlock()
			runtime.Gosched() // let an op blocked on the stripe in first
			sh.mu.Lock()
		}
		for _, rec := range sh.slots[lo:min(lo+sweepChunk, len(sh.slots))] {
			switch {
			case !held(rec):
			case now.After(rec.ExpiresAt):
				expired = append(expired, rec.Name)
				m.expireLocked(rec)
			default:
				sh.due(rec.ExpiresAt)
			}
		}
	}
	sh.mu.Unlock()
	return expired
}

// expireLocked empties rec, a lapsed lease, and settles the counters and
// observer. It does NOT hand the name back to the namer — the caller
// must m.releaseName(name) after unlocking the stripe, so a slow
// namer.Release (or a synchronous journal fsync) never runs under sh.mu.
// Callers hold the lock of rec's stripe.
func (m *Manager) expireLocked(rec *Lease) {
	name, token := rec.Name, rec.Token
	*rec = Lease{}
	m.live.Add(-1)
	m.expired.Add(1)
	if m.cfg.Observer != nil {
		m.cfg.Observer.ObserveExpire(name, token)
	}
}

// releaseNames hands a batch of reclaimed names back to the namer.
// Callers must NOT hold any stripe lock; failures are counted in
// Metrics.ReclaimFailed by releaseName.
func (m *Manager) releaseNames(names []int) {
	for _, name := range names {
		m.releaseName(name)
	}
}

// releaseName hands a name back to the namer, counting failures: over a
// one-shot namer (whose Release always errors) the slot would otherwise
// leak invisibly on every reclaim.
func (m *Manager) releaseName(name int) error {
	err := m.namer.Release(name)
	if err != nil {
		m.reclaimFailed.Add(1)
	}
	return err
}

// nextPow2 returns the smallest power of two >= n (and >= 1), so shard
// routing can be a mask instead of a modulo.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
