package main

import (
	"context"
	"fmt"
	"time"

	renaming "repro"
	"repro/lease"
)

// engineRenewsPerSec measures sustained renewal throughput against the
// lease engine directly: a standing population of `leases` renewed in
// RenewBatch chunks of `batch` for `dur`. This is the in-process
// counterpart of loadgen.Sessions — no HTTP, no JSON, just the
// table — so the number is comparable across machines and isolates
// engine regressions from transport ones.
func engineRenewsPerSec(leases, batch int, dur time.Duration) (float64, error) {
	nm, err := renaming.NewLevelArray(leases)
	if err != nil {
		return 0, err
	}
	mgr, err := lease.New(nm, lease.Config{TTL: time.Hour, SweepInterval: -1})
	if err != nil {
		return 0, err
	}
	defer mgr.Shutdown()
	ctx := context.Background()
	held, err := mgr.AcquireBatch(ctx, "benchreport", leases, 0, nil)
	if err != nil {
		return 0, err
	}
	items := make([]lease.RenewItem, len(held))
	for i, l := range held {
		items[i] = lease.RenewItem{Name: l.Name, Token: l.Token}
	}

	var renewed int64
	start := time.Now()
	deadline := start.Add(dur)
	for pos := 0; time.Now().Before(deadline); {
		end := pos + batch
		if end > len(items) {
			end = len(items)
		}
		chunk := items[pos:end]
		results, err := mgr.RenewBatch(ctx, chunk, 0)
		if err != nil {
			return 0, err
		}
		for i := range results {
			if results[i].Err != nil {
				return 0, fmt.Errorf("renew %d: %v", chunk[i].Name, results[i].Err)
			}
		}
		renewed += int64(len(chunk))
		if pos = end; pos >= len(items) {
			pos = 0
		}
	}
	return float64(renewed) / time.Since(start).Seconds(), nil
}
