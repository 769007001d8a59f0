package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	renaming "repro"
	"repro/lease"
)

// runF8 measures the lease layer itself: full acquire→renew→release
// cycles through lease.Manager, sweeping the shard count of its lease
// table (Shards: 1 is the pre-sharding single-mutex manager) and the
// namer underneath. The quantity of interest is how much bookkeeping —
// lock striping, slot-table stores, atomic capacity reservation — costs
// on top of the namer's probes, and whether it scales instead of
// serializing every operation on one mutex.
func runF8(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "F8",
		Title:   "Sharded lease manager: acquire/renew/release throughput",
		Claim:   "lock-striped lease table scales bookkeeping with cores; shards=1 reproduces the old single-mutex manager",
		Columns: []string{"namer", "shards", "ns/cycle", "cycles/sec"},
	}
	capacity := 1 << 10
	cycles := 4000
	if cfg.Quick {
		capacity = 1 << 8
		cycles = 1000
	}
	const workers = 8

	// Namer selection goes through the driver registry (the renamed -namer
	// DSN surface) rather than hard-coded constructors.
	namers := []struct {
		name string
		dsn  string
	}{
		{"levelarray", "levelarray?n=%d&seed=%d"},
		{"uniform", "uniform?n=%d&seed=%d"},
	}
	shardCounts := []int{1, 2, 4, 8}

	cell := 0
	for _, spec := range namers {
		for _, shards := range shardCounts {
			nm, err := renaming.Open(fmt.Sprintf(spec.dsn, capacity, seedAt(cfg.Seed, cell)))
			cell++
			if err != nil {
				return nil, err
			}
			nsPerCycle, err := leaseCycleNs(nm, capacity, shards, workers, cycles)
			if err != nil {
				return nil, err
			}
			t.AddRow(spec.name, shards, nsPerCycle, 1e9/nsPerCycle)
		}
	}
	t.AddNote("GOMAXPROCS=%d, %d workers x %d acquire+renew+release cycles, MaxLive=capacity=%d",
		runtime.GOMAXPROCS(0), workers, cycles, capacity)
	t.AddNote("background sweeper off: the cycle cost isolates lock striping + slot-table bookkeeping")
	return t, nil
}

// leaseCycleNs runs workers through acquire→renew→release cycles against
// a manager with the given shard count and reports mean wall-clock
// nanoseconds per cycle.
func leaseCycleNs(nm renaming.Namer, capacity, shards, workers, cycles int) (float64, error) {
	mgr, err := lease.New(nm, lease.Config{
		TTL:           time.Minute,
		SweepInterval: -1,
		MaxLive:       capacity,
		Shards:        shards,
	})
	if err != nil {
		return 0, err
	}
	defer mgr.Close()

	run := func(perWorker int) error {
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c := 0; c < perWorker; c++ {
					l, err := mgr.Acquire("f8", 0, nil)
					if err != nil {
						errs <- fmt.Errorf("acquire: %w", err)
						return
					}
					if _, err := mgr.Renew(l.Name, l.Token, 0); err != nil {
						errs <- fmt.Errorf("renew: %w", err)
						return
					}
					if err := mgr.Release(l.Name, l.Token); err != nil {
						errs <- fmt.Errorf("release: %w", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		return <-errs
	}
	// Warm up scheduler and namer level occupancy before timing.
	if err := run(cycles / 4); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := run(cycles); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) / float64(workers*cycles), nil
}
