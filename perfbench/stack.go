package main

import (
	"context"
	"errors"
	"fmt"
	"net"

	renaming "repro"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/lease"
	"repro/lease/persist"
	"repro/leaseclient"
)

// stack is the service assembled in this process from its public
// constructors, the way cmd/renamed assembles it:
// renaming.NewLevelArray → lease.New (with a persist.Store observer when
// the workload is durable) → service.New/Bind → service.NewBinServer on
// loopback → leaseclient.NewTransport. Given a tracer, the namer,
// observer and transport are wrapped in tracing decorators.
type stack struct {
	namer   *tracedNamer // nil when untraced
	obs     *timedObserver
	store   *persist.Store
	mgr     *lease.Manager
	core    *service.Core
	reg     *telemetry.Registry
	bin     *service.BinServer
	addr    string
	tr      leaseclient.Transport
	serving chan struct{}
}

// newStack builds the stack for w; dir holds the journal when w is
// durable. The binary wire serves every workload here: the HTTP adapter
// lives in cmd/renamed's main package and cannot be assembled in process.
func newStack(w workload, dir string, t *tracer) (*stack, error) {
	la, err := renaming.NewLevelArray(w.capacity)
	if err != nil {
		return nil, err
	}
	s := &stack{serving: make(chan struct{})}
	var nm renaming.Namer = la
	if t != nil {
		s.namer = &tracedNamer{Namer: la, t: t}
		nm = s.namer
	}
	cfg := lease.Config{TTL: serverTTL, MaxLive: w.capacity}
	if w.durable {
		s.store, err = persist.Open(dir, persist.Options{Fsync: persist.FsyncInterval})
		if err != nil {
			return nil, err
		}
		s.obs = &timedObserver{Observer: s.store, t: t}
		cfg.Observer = s.obs
	}
	s.mgr, err = lease.New(nm, cfg)
	if err != nil {
		if s.store != nil {
			s.store.Close()
		}
		return nil, err
	}
	s.reg = telemetry.NewRegistry()
	s.core = service.New(s.mgr, service.NewTelemetry(s.reg))
	s.bin = service.NewBinServer(s.core, service.BinConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeManager()
		return nil, err
	}
	s.addr = ln.Addr().String()
	go func() {
		defer close(s.serving)
		s.bin.Serve(ln)
	}()
	tr, err := leaseclient.NewTransport("bin://" + s.addr)
	if err != nil {
		s.close()
		return nil, err
	}
	s.tr = tr
	if t != nil {
		s.tr = &tracedTransport{Transport: tr, t: t, wire: "bin"}
	}
	return s, nil
}

func (s *stack) closeManager() error {
	if s.store == nil {
		return s.mgr.Close()
	}
	s.mgr.Shutdown()
	return s.store.Close()
}

// close stops the listener, waits for Serve to return and shuts the
// manager (and store) down.
func (s *stack) close() error {
	var errs []error
	if s.tr != nil {
		s.tr.Close()
	}
	s.bin.Close()
	<-s.serving
	if err := s.closeManager(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// fillStanding acquires w.standing leases on mgr directly, in batches.
func fillStanding(ctx context.Context, mgr *lease.Manager, w workload) ([]lease.RenewItem, error) {
	items := make([]lease.RenewItem, 0, w.standing)
	for len(items) < w.standing {
		ls, err := mgr.AcquireBatch(ctx, "standing", min(1024, w.standing-len(items)), leaseTTL, nil)
		if err != nil {
			return nil, fmt.Errorf("fill standing set: %w", err)
		}
		for _, l := range ls {
			items = append(items, lease.RenewItem{Name: l.Name, Token: l.Token})
		}
	}
	return items, nil
}
