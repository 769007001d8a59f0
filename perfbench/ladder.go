package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"time"

	renaming "repro"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/internal/wire/binproto"
	"repro/lease"
	"repro/lease/persist"
	"repro/leaseclient"
)

// The ladder replays a workload's requests against each layer of the
// stack in turn, from the namer up to a leaseclient round trip, one
// request at a time. A layer's self time is its rung minus the rung
// below. Each rung reports, per request kind, the median over many
// timed groups (in-process rungs) or requests (loopback rungs).

// kindNs is one rung's time per request kind, in nanoseconds: renew is
// one renew_batch of w.batch items; acq and rel one acquire and release.
type kindNs struct{ renew, acq, rel float64 }

// rungOps is one rung's way to serve each request kind.
type rungOps struct {
	renew   func(items []lease.RenewItem) error
	acquire func(owner string) (name int, token uint64, err error)
	release func(name int, token uint64) error
}

// cycleBlock is how many acquires one timed group holds before releasing
// them all: small against every workload's free capacity.
const cycleBlock = 16

// measureRung times r on the schedule's renew batches (half the budget)
// and acquire/release blocks (the other half). A rung without renew (the
// namer) spends its whole budget on acquire/release.
func measureRung(r rungOps, standing []lease.RenewItem, sched *schedule, budget time.Duration) (kindNs, error) {
	var out kindNs
	const renewGroup = 16
	items := make([]lease.RenewItem, sched.w.batch)
	var renewSamples []float64
	end := time.Now().Add(budget / 2)
	for i := 0; r.renew != nil && (len(renewSamples) < 5 || time.Now().Before(end)); {
		start := time.Now()
		for n := 0; n < renewGroup; i++ {
			o := sched.at(i)
			if o.kind != opRenew {
				continue
			}
			for k := range items {
				items[k] = standing[sched.order[(int(o.first)+k)%len(sched.order)]]
			}
			if err := r.renew(items); err != nil {
				return out, err
			}
			n++
		}
		renewSamples = append(renewSamples, float64(time.Since(start))/renewGroup)
	}
	var acqSamples, relSamples []float64
	names := make([]int, cycleBlock)
	tokens := make([]uint64, cycleBlock)
	end = time.Now().Add(budget / 2)
	for b := 0; len(acqSamples) < 5 || time.Now().Before(end); b++ {
		start := time.Now()
		for k := range names {
			var err error
			names[k], tokens[k], err = r.acquire(sched.owners[(b*cycleBlock+k)%len(sched.owners)])
			if err != nil {
				return out, err
			}
		}
		mid := time.Now()
		for k := range names {
			if err := r.release(names[k], tokens[k]); err != nil {
				return out, err
			}
		}
		acqSamples = append(acqSamples, float64(mid.Sub(start))/cycleBlock)
		relSamples = append(relSamples, float64(time.Since(mid))/cycleBlock)
	}
	out.renew, out.acq, out.rel = median(renewSamples), median(acqSamples), median(relSamples)
	return out, nil
}

func managerOps(ctx context.Context, mgr *lease.Manager) rungOps {
	return rungOps{
		renew: func(items []lease.RenewItem) error {
			res, err := mgr.RenewBatch(ctx, items, leaseTTL)
			if err != nil {
				return err
			}
			for _, r := range res {
				if r.Err != nil {
					return fmt.Errorf("renew: %w", r.Err)
				}
			}
			return nil
		},
		acquire: func(owner string) (int, uint64, error) {
			l, err := mgr.AcquireCtx(ctx, owner, leaseTTL, nil)
			return l.Name, l.Token, err
		},
		release: mgr.Release,
	}
}

func bindingOps(ctx context.Context, b *service.Binding) rungOps {
	var out []service.Verdict
	return rungOps{
		renew: func(items []lease.RenewItem) error {
			var err error
			out, err = b.RenewBatch(ctx, leaseTTL, items, out)
			if err != nil {
				return err
			}
			for _, v := range out {
				if v.Code != "" {
					return fmt.Errorf("renew: %s", v.Msg)
				}
			}
			return nil
		},
		acquire: func(owner string) (int, uint64, error) {
			l, err := b.Acquire(ctx, &wire.AcquireRequest{Owner: owner, TTLms: leaseTTL.Milliseconds()})
			return l.Name, l.Token, err
		},
		release: func(name int, token uint64) error {
			return b.Release(&wire.ReleaseRequest{Name: name, Token: token})
		},
	}
}

func transportOps(ctx context.Context, tr leaseclient.Transport) rungOps {
	var req wire.RenewBatchRequest
	return rungOps{
		renew: func(items []lease.RenewItem) error {
			req.TTLms, req.Items = leaseTTL.Milliseconds(), req.Items[:0]
			for _, it := range items {
				req.Items = append(req.Items, wire.Item{Name: it.Name, Token: it.Token})
			}
			res, err := tr.RenewBatch(ctx, &req)
			if err != nil {
				return err
			}
			for _, r := range res.Results {
				if r.Lease == nil {
					return fmt.Errorf("renew: %s", r.Error)
				}
			}
			return nil
		},
		acquire: func(owner string) (int, uint64, error) {
			l, err := tr.Acquire(ctx, &wire.AcquireRequest{Owner: owner, TTLms: leaseTTL.Milliseconds()})
			return l.Name, l.Token, err
		},
		release: func(name int, token uint64) error {
			return tr.Release(ctx, &wire.ReleaseRequest{Name: name, Token: token})
		},
	}
}

// rawClient speaks binproto frames directly over one connection: the
// BinServer rung, with no leaseclient code above the socket.
type rawClient struct {
	conn    net.Conn
	br      *bufio.Reader
	buf     []byte
	payload []byte
	results []binproto.RenewResult
	id      uint64
}

func (c *rawClient) roundTrip(typ binproto.Type, encode func([]byte) []byte) ([]byte, error) {
	c.id++
	var start int
	c.buf, start = binproto.BeginFrame(c.buf[:0], typ, c.id)
	c.buf = encode(c.buf)
	c.buf = binproto.EndFrame(c.buf, start)
	if _, err := c.conn.Write(c.buf); err != nil {
		return nil, err
	}
	var hdr [binproto.HeaderLen]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return nil, err
	}
	h, err := binproto.ParseHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	if cap(c.payload) < int(h.Len) {
		c.payload = make([]byte, h.Len)
	}
	c.payload = c.payload[:h.Len]
	if _, err := io.ReadFull(c.br, c.payload); err != nil {
		return nil, err
	}
	if err := binproto.VerifyPayload(h, c.payload); err != nil {
		return nil, err
	}
	if h.ID != c.id || h.Type != typ|binproto.RespBit {
		return nil, fmt.Errorf("raw %#02x: unexpected response type %#02x id %d", byte(typ), byte(h.Type), h.ID)
	}
	return c.payload, nil
}

func (c *rawClient) ops() rungOps {
	var witems []wire.Item
	return rungOps{
		renew: func(items []lease.RenewItem) error {
			witems = witems[:0]
			for _, it := range items {
				witems = append(witems, wire.Item{Name: it.Name, Token: it.Token})
			}
			p, err := c.roundTrip(binproto.TRenewBatch, func(b []byte) []byte {
				return binproto.AppendRenewBatchReq(b, leaseTTL.Milliseconds(), witems)
			})
			if err != nil {
				return err
			}
			c.results, err = binproto.DecodeRenewBatchResp(p, c.results)
			if err != nil {
				return err
			}
			for _, r := range c.results {
				if r.Code != binproto.CodeOK {
					return fmt.Errorf("raw renew: code %s", binproto.CodeString(r.Code))
				}
			}
			return nil
		},
		acquire: func(owner string) (int, uint64, error) {
			p, err := c.roundTrip(binproto.TAcquire, func(b []byte) []byte {
				return binproto.AppendAcquireReq(b, owner, leaseTTL.Milliseconds(), nil)
			})
			if err != nil {
				return 0, 0, err
			}
			l, err := binproto.DecodeLease(p)
			return int(l.Name), l.Token, err
		},
		release: func(name int, token uint64) error {
			_, err := c.roundTrip(binproto.TRelease, func(b []byte) []byte {
				return binproto.AppendReleaseReq(b, int64(name), token)
			})
			return err
		},
	}
}

// codecCost times binproto's work for one renew_batch round trip: encoding
// the request and response frames, and parsing, verifying and decoding
// both. It returns ns per round trip and wire bytes per renewed item.
func codecCost(batch int, budget time.Duration) (enc, dec, bytesPerItem float64, err error) {
	items := make([]wire.Item, batch)
	for i := range items {
		items[i] = wire.Item{Name: 1000 + 37*i, Token: uint64(1<<40 + i)}
	}
	var req, resp []byte
	var litems []lease.RenewItem
	var results []binproto.RenewResult
	encode := func() {
		var start int
		req, start = binproto.BeginFrame(req[:0], binproto.TRenewBatch, 7)
		req = binproto.AppendRenewBatchReq(req, leaseTTL.Milliseconds(), items)
		req = binproto.EndFrame(req, start)
		resp, start = binproto.BeginFrame(resp[:0], binproto.TRenewBatch|binproto.RespBit, 7)
		resp = binproto.AppendBatchRespHeader(resp, batch)
		for _, it := range items {
			resp = binproto.AppendRenewResult(resp, binproto.CodeOK, int64(it.Name), it.Token, 1<<41)
		}
		resp = binproto.EndFrame(resp, start)
	}
	decode := func() error {
		for _, frame := range [][]byte{req, resp} {
			h, err := binproto.ParseHeader(frame[:binproto.HeaderLen])
			if err != nil {
				return err
			}
			if err := binproto.VerifyPayload(h, frame[binproto.HeaderLen:]); err != nil {
				return err
			}
		}
		var err error
		if _, litems, err = binproto.DecodeRenewBatchReq(req[binproto.HeaderLen:], litems); err != nil {
			return err
		}
		results, err = binproto.DecodeRenewBatchResp(resp[binproto.HeaderLen:], results)
		return err
	}
	const group = 256
	var encS, decS []float64
	end := time.Now().Add(budget)
	for len(encS) < 5 || time.Now().Before(end) {
		start := time.Now()
		for i := 0; i < group; i++ {
			encode()
		}
		mid := time.Now()
		for i := 0; i < group; i++ {
			if err := decode(); err != nil {
				return 0, 0, 0, err
			}
		}
		encS = append(encS, float64(mid.Sub(start))/group)
		decS = append(decS, float64(time.Since(mid))/group)
	}
	return median(encS), median(decS), float64(len(req)+len(resp)) / float64(batch), nil
}

// ladderResult holds every rung's measurement.
type ladderResult struct {
	namer, lease, service, raw, client kindNs
	probesPerAcquire                   float64
	persistObserveNs                   float64
	codecEnc, codecDec, bytesPerRenew  float64
	heartbeatUs                        float64
	retries                            int64
}

// runLadder measures every in-process rung for w, giving each its share
// of budget. dir holds the persist rung's journal.
func runLadder(ctx context.Context, w workload, sched *schedule, dir string, budget time.Duration) (ladderResult, error) {
	var res ladderResult
	share := budget / 8

	// Namer rung: the LevelArray alone at the workload's occupancy.
	la, err := renaming.NewLevelArray(w.capacity, renaming.WithCounting())
	if err != nil {
		return res, err
	}
	for held := 0; held < w.standing; {
		names, err := la.AcquireN(ctx, min(1024, w.standing-held))
		if err != nil {
			return res, err
		}
		held += len(names)
	}
	probes0, _, _ := la.Probes()
	acquires := 0
	res.namer, err = measureRung(rungOps{
		acquire: func(string) (int, uint64, error) {
			acquires++
			name, err := la.Acquire(ctx)
			return name, 0, err
		},
		release: func(name int, _ uint64) error { return la.Release(name) },
	}, nil, sched, share)
	if err != nil {
		return res, fmt.Errorf("namer rung: %w", err)
	}
	probes1, _, _ := la.Probes()
	res.probesPerAcquire = float64(probes1-probes0) / float64(max(acquires, 1))

	// Lease rung, then the service rung (Binding) over the same manager,
	// then BinServer and leaseclient over that Binding's core.
	plain, err := renaming.NewLevelArray(w.capacity)
	if err != nil {
		return res, err
	}
	mgr, err := lease.New(plain, lease.Config{TTL: serverTTL, MaxLive: w.capacity, SweepInterval: -1})
	if err != nil {
		return res, err
	}
	defer mgr.Close()
	standing, err := fillStanding(ctx, mgr, w)
	if err != nil {
		return res, err
	}
	if res.lease, err = measureRung(managerOps(ctx, mgr), standing, sched, share); err != nil {
		return res, fmt.Errorf("lease rung: %w", err)
	}
	core := service.New(mgr, service.NewTelemetry(telemetry.NewRegistry()))
	if res.service, err = measureRung(bindingOps(ctx, core.Bind("bin")), standing, sched, share); err != nil {
		return res, fmt.Errorf("service rung: %w", err)
	}
	if res.codecEnc, res.codecDec, res.bytesPerRenew, err = codecCost(w.batch, share/2); err != nil {
		return res, fmt.Errorf("codec rung: %w", err)
	}
	bs := service.NewBinServer(core, service.BinConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	serving := make(chan struct{})
	go func() {
		defer close(serving)
		bs.Serve(ln)
	}()
	defer func() {
		bs.Close()
		<-serving
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return res, err
	}
	raw := &rawClient{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}
	res.raw, err = measureRung(raw.ops(), standing, sched, share)
	conn.Close()
	if err != nil {
		return res, fmt.Errorf("binserver rung: %w", err)
	}
	tr, err := leaseclient.NewTransport("bin://" + ln.Addr().String())
	if err != nil {
		return res, err
	}
	defer tr.Close()
	if res.client, err = measureRung(transportOps(ctx, tr), standing, sched, share); err != nil {
		return res, fmt.Errorf("leaseclient rung: %w", err)
	}
	if res.heartbeatUs, res.retries, err = sessionHeartbeats(ctx, tr, w.batch, share/2); err != nil {
		return res, fmt.Errorf("session rung: %w", err)
	}

	// Persist rung: the lease rung again with a journal observer.
	if res.persistObserveNs, err = persistRung(ctx, w, sched, filepath.Join(dir, "ladder-journal"), share); err != nil {
		return res, fmt.Errorf("persist rung: %w", err)
	}
	return res, nil
}

// persistRung replays the workload on a lease manager whose observer is a
// persist.Store journaling with -fsync interval, and returns the mean
// time per observer callback.
func persistRung(ctx context.Context, w workload, sched *schedule, dir string, budget time.Duration) (float64, error) {
	store, err := persist.Open(dir, persist.Options{Fsync: persist.FsyncInterval})
	if err != nil {
		return 0, err
	}
	obs := &timedObserver{Observer: store}
	la, err := renaming.NewLevelArray(w.capacity)
	if err != nil {
		store.Close()
		return 0, err
	}
	mgr, err := lease.New(la, lease.Config{TTL: serverTTL, MaxLive: w.capacity, SweepInterval: -1, Observer: obs})
	if err != nil {
		store.Close()
		return 0, err
	}
	defer func() {
		mgr.Shutdown()
		store.Close()
	}()
	standing, err := fillStanding(ctx, mgr, w)
	if err != nil {
		return 0, err
	}
	ns0, calls0 := obs.ns.Load(), obs.calls.Load()
	if _, err := measureRung(managerOps(ctx, mgr), standing, sched, budget); err != nil {
		return 0, err
	}
	return float64(obs.ns.Load()-ns0) / float64(max(obs.calls.Load()-calls0, 1)), nil
}

// sessionHeartbeats runs a leaseclient Session holding batch leases with
// a short TTL over tr for d, and returns the median heartbeat round trip
// and the session's retry count.
func sessionHeartbeats(ctx context.Context, tr leaseclient.Transport, batch int, d time.Duration) (float64, int64, error) {
	hb := make(chan time.Duration, 4096) // far above the heartbeats d allows at a 10ms cadence
	s, err := leaseclient.NewSession(leaseclient.Config{
		Transport: tr,
		Owner:     "ladder-session",
		TTL:       30 * time.Millisecond,
		OnHeartbeat: func(_ int, d time.Duration, err error) {
			if err == nil {
				select {
				case hb <- d:
				default:
				}
			}
		},
	})
	if err != nil {
		return 0, 0, err
	}
	if _, err := s.AcquireN(ctx, batch); err != nil {
		s.Close()
		return 0, 0, err
	}
	time.Sleep(max(d, 300*time.Millisecond))
	st := s.Stats()
	if err := s.Close(); err != nil {
		return 0, 0, err
	}
	close(hb)
	var samples []float64
	for d := range hb {
		samples = append(samples, us(d))
	}
	if len(samples) == 0 {
		return 0, 0, fmt.Errorf("session sent no heartbeat")
	}
	if st.Lost > 0 {
		return 0, 0, fmt.Errorf("session lost %d leases", st.Lost)
	}
	return median(samples), st.Retries, nil
}
