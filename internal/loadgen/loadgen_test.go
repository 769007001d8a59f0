package loadgen

import (
	"net"
	"testing"
	"time"

	renaming "repro"
	"repro/internal/service"
	"repro/lease"
)

// serveBin serves a fresh lease manager over the binary protocol on a
// loopback listener and returns its bin:// target.
func serveBin(t *testing.T, capacity int) (target string, mgr *lease.Manager, srv *service.BinServer) {
	t.Helper()
	nm, err := renaming.NewLevelArray(capacity)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err = lease.New(nm, lease.Config{TTL: time.Minute, SweepInterval: -1, MaxLive: capacity})
	if err != nil {
		t.Fatal(err)
	}
	srv = service.NewBinServer(service.New(mgr, nil), service.BinConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		<-done
		mgr.Close()
	})
	return "bin://" + ln.Addr().String(), mgr, srv
}

// checkRun asserts a renewal run moved leases, refused none, and handed
// its whole standing set back before returning.
func checkRun(t *testing.T, mgr *lease.Manager, rps float64, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if rps <= 0 {
		t.Fatalf("renews/s = %v, want > 0", rps)
	}
	m := mgr.Metrics()
	if m.Rejected != 0 {
		t.Fatalf("%d renewals refused", m.Rejected)
	}
	if m.Live != 0 {
		t.Fatalf("%d leases still live after the run; the standing set was not released", m.Live)
	}
}

func TestSaturateBin(t *testing.T) {
	target, mgr, _ := serveBin(t, 64)
	rps, err := Saturate(target, 32, 8, 2, 200*time.Millisecond)
	checkRun(t, mgr, rps, err)
}

func TestPipelined(t *testing.T) {
	target, mgr, _ := serveBin(t, 64)
	rps, err := Pipelined(target, 32, 8, 4, 200*time.Millisecond)
	checkRun(t, mgr, rps, err)
}

// TestPipelinedStopsMidRun breaks a run two ways — the server closes
// the connection, or the manager closes so every renewal is refused —
// and requires Pipelined to return an error promptly. It can only return
// after its writer goroutine has exited, so a writer stranded on a slot
// wait shows up here as a hang. Depth 1 keeps the writer on that wait
// while each frame is in flight.
func TestPipelinedStopsMidRun(t *testing.T) {
	for name, stop := range map[string]func(*lease.Manager, *service.BinServer){
		"server closed":  func(_ *lease.Manager, srv *service.BinServer) { srv.Close() },
		"manager closed": func(mgr *lease.Manager, _ *service.BinServer) { mgr.Close() },
	} {
		t.Run(name, func(t *testing.T) {
			target, mgr, srv := serveBin(t, 64)
			done := make(chan error, 1)
			go func() {
				_, err := Pipelined(target, 32, 8, 1, time.Minute)
				done <- err
			}()
			for mgr.Metrics().Renewed == 0 {
				select {
				case err := <-done:
					t.Fatalf("Pipelined returned before any renewal: %v", err)
				case <-time.After(time.Millisecond):
				}
			}
			stop(mgr, srv)
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("Pipelined = nil after its run was broken")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Pipelined did not return after its run was broken")
			}
		})
	}
}

func TestPipelinedRejectsHTTPTarget(t *testing.T) {
	if _, err := Pipelined("http://127.0.0.1:1", 8, 8, 1, time.Millisecond); err == nil {
		t.Fatal("Pipelined accepted an http:// target")
	}
}
