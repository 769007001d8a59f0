package main

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// workload is one traffic mix against one server configuration. Every
// workload carries both operation kinds, so every end-to-end metric has
// samples on every workload; the mix decides which layer does the work.
type workload struct {
	name     string
	wire     string // "bin" or "http": the leaseclient transport
	durable  bool   // server runs with -data-dir and -fsync interval
	capacity int    // server -capacity: the enforced MaxLive
	standing int    // leases held from set-up to the end of the run
	batch    int    // items per renew_batch request
	// cycleShare is the share of ops that are acquire→release cycles; the
	// rest are renew batches.
	cycleShare float64
	// rate is the offered load of the fixed-rate phase, in ops per
	// second; it sits at about half the saturated rate measured on a
	// 2-core host.
	rate float64
}

var workloads = []workload{
	{
		// 2^16 standing leases renewed in 16-item batches over the binary
		// wire: a lease table far larger than L2, and almost no namer work.
		name: "heartbeat-bin", wire: "bin", capacity: 1 << 17, standing: 1 << 16,
		batch: 16, cycleShare: 1.0 / 32, rate: 8000,
	},
	{
		// A standing set at ~90% of MaxLive, the rest cycled
		// acquire→release one at a time: the LevelArray descends levels
		// and the lease reserve/insert/delete path does the work.
		name: "churn-bin", wire: "bin", capacity: 8192, standing: 8192 * 9 / 10,
		batch: 16, cycleShare: 15.0 / 16, rate: 4000,
	},
	{
		// ~4096 standing leases over HTTP/JSON against a journaled table,
		// heartbeat batches with acquire/release churn alongside.
		name: "durable-http", wire: "http", durable: true, capacity: 8192, standing: 4096,
		batch: 16, cycleShare: 1.0 / 3, rate: 1500,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// serverTTL is the server's default lease TTL; requests ask for
	// leaseTTL. Both far exceed a run, so no lease expires and the
	// background sweep (TTL/4) never fires inside the measured window.
	serverTTL = 10 * time.Minute
	leaseTTL  = 10 * time.Minute
	// owners is the size of the seeded pool acquire owners are drawn from.
	owners = 64
)

type opKind uint8

const (
	opRenew opKind = iota // one renew_batch of w.batch standing leases
	opCycle               // one acquire, then release of the granted lease
)

// op is one scheduled generator operation. A renew covers the standing
// leases at positions first..first+batch of the seeded renew order.
type op struct {
	kind  opKind
	owner uint8
	first int32
}

// schedule is a workload's seeded operation sequence. The seed alone
// decides renew order, the interleaving of cycles among renewals, and
// acquire owners; the server sees only the requests it produces.
type schedule struct {
	w      workload
	ops    []op
	order  []int32 // permutation of standing-set indices: the renew order
	owners []string
}

func newSchedule(w workload, seed uint64, n int) *schedule {
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	s := &schedule{w: w, ops: make([]op, n), order: make([]int32, w.standing), owners: make([]string, owners)}
	for i := range s.order {
		s.order[i] = int32(i)
	}
	r.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
	for i := range s.owners {
		s.owners[i] = fmt.Sprintf("gen-%08x", r.Uint32())
	}
	next := 0
	for i := range s.ops {
		if r.Float64() < w.cycleShare {
			s.ops[i] = op{kind: opCycle, owner: uint8(r.IntN(owners))}
			continue
		}
		s.ops[i] = op{kind: opRenew, first: int32(next)}
		next = (next + w.batch) % len(s.order)
	}
	return s
}

// at returns op i, wrapping around the generated sequence.
func (s *schedule) at(i int) op { return s.ops[i%len(s.ops)] }

// mix reports the shares of renew batches and cycles in the schedule.
func (s *schedule) mix() (renews, cycles float64) {
	n := 0
	for _, o := range s.ops {
		if o.kind == opCycle {
			n++
		}
	}
	cycles = float64(n) / float64(len(s.ops))
	return 1 - cycles, cycles
}
