package service

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/wire/binproto"
)

// waitGoroutines polls until the goroutine count settles back to at
// most base, failing after the deadline. Counts are noisy (finalizers,
// test runner), so poll rather than compare once.
func waitGoroutines(t *testing.T, base int, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(end) {
			t.Fatalf("goroutines did not settle: %d, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestBinServerHalfHeaderStallIdlesOut: a client that sends half a
// header and stalls must be disconnected by IdleTimeout — the read
// deadline set at the top of the frame loop covers the whole frame, so
// a torn header cannot pin a serveConn goroutine forever.
func TestBinServerHalfHeaderStallIdlesOut(t *testing.T) {
	base := runtime.NumGoroutine()
	addr, _ := startBinServer(t, 16, BinConfig{IdleTimeout: 150 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.Write(make([]byte, binproto.HeaderLen/2)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == io.EOF {
		// server closed cleanly
	} else if err == nil {
		t.Fatal("server answered a half header instead of dropping the connection")
	} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Fatal("server kept a half-header connection past IdleTimeout")
	}
	// serveConn returned on its own (the listener and server are still
	// up), so the per-connection goroutines must be gone: base + the
	// acceptor + the Serve watchdog.
	waitGoroutines(t, base+2, 2*time.Second)

	// The server itself is unharmed: a healthy connection still works.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	buf, start := binproto.BeginFrame(nil, binproto.TStats, 1)
	buf = binproto.EndFrame(buf, start)
	if _, err := conn2.Write(buf); err != nil {
		t.Fatal(err)
	}
	h, _ := readFrame(t, bufio.NewReader(conn2))
	if h.Type != binproto.TStats|binproto.RespBit || h.ID != 1 {
		t.Fatalf("stats after stalled peer = %+v", h)
	}
}

// TestBinServerHalfPayloadStallIdlesOut: same guarantee one layer down
// — a complete header promising bytes that never arrive.
func TestBinServerHalfPayloadStallIdlesOut(t *testing.T) {
	addr, _ := startBinServer(t, 16, BinConfig{IdleTimeout: 150 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// A well-formed acquire frame, truncated halfway through its payload.
	buf, start := binproto.BeginFrame(nil, binproto.TAcquire, 7)
	buf = binproto.AppendAcquireReq(buf, "stall", 60_000, nil)
	buf = binproto.EndFrame(buf, start)
	if _, err := conn.Write(buf[:len(buf)-4]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	start2 := time.Now()
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after payload stall = %v, want EOF from idle disconnect", err)
	}
	if elapsed := time.Since(start2); elapsed > 2*time.Second {
		t.Fatalf("idle disconnect took %v, deadline is not covering the payload read", elapsed)
	}
}

// waitOpenConns waits, under a deadline, until srv has exactly n open
// connections.
func waitOpenConns(t *testing.T, srv *BinServer, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.OpenConns() != n {
		if time.Now().After(deadline) {
			t.Fatalf("open connections = %d, want %d", srv.OpenConns(), n)
		}
		runtime.Gosched()
	}
}

// TestBinServerMidPipelineReset: a client that pipelines a burst and
// resets the connection mid-write must not disturb anything outside its
// own connection — requests already dispatched still apply, and a later
// connection's responses stay frame-correct. Each reset connection is
// accepted before it is reset and fully drained before the next one, so
// the stats comparison at the end cannot race a straggling dispatch.
func TestBinServerMidPipelineReset(t *testing.T) {
	srv, addr, core := serveBin(t, 256, BinConfig{})

	for round := 0; round < 8; round++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		// A burst of pipelined acquires the server will answer into its
		// coalescing write buffer...
		var burst []byte
		for id := uint64(1); id <= 16; id++ {
			var start int
			burst, start = binproto.BeginFrame(burst, binproto.TAcquire, id)
			burst = binproto.AppendAcquireReq(burst, "resetter", 60_000, nil)
			burst = binproto.EndFrame(burst, start)
		}
		if _, err := conn.Write(burst); err != nil {
			t.Fatal(err)
		}
		waitOpenConns(t, srv, 1)
		// ...then an RST instead of reads: SO_LINGER 0 makes Close send a
		// reset, so the server hits a write error mid-flush.
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		conn.Close()
		waitOpenConns(t, srv, 0)
	}

	// The resets must not have corrupted shared state: a fresh connection
	// gets exact frames back and the stats reflect every acquire that was
	// dispatched before each reset landed.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	buf, start := binproto.BeginFrame(nil, binproto.TAcquire, 99)
	buf = binproto.AppendAcquireReq(buf, "survivor", 60_000, nil)
	buf = binproto.EndFrame(buf, start)
	buf, start = binproto.BeginFrame(buf, binproto.TStats, 100)
	buf = binproto.EndFrame(buf, start)
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	h, p := readFrame(t, br)
	if h.Type != binproto.TAcquire|binproto.RespBit || h.ID != 99 {
		t.Fatalf("acquire after resets = %+v", h)
	}
	if _, err := binproto.DecodeLease(p); err != nil {
		t.Fatalf("acquire payload corrupt after resets: %v", err)
	}
	h, p = readFrame(t, br)
	if h.Type != binproto.TStats|binproto.RespBit || h.ID != 100 {
		t.Fatalf("stats after resets = %+v", h)
	}
	st, err := binproto.DecodeStatsResp(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Acquired < 1 || st.Acquired > 16*8+1 {
		t.Fatalf("stats after resets = %+v, implausible acquire count", st)
	}
	if got := core.Stats().Live; int64(got) != st.Live {
		t.Fatalf("core live %d != stats frame live %d", got, st.Live)
	}
}

// TestBinServerOversizedFrameRejected: a header declaring a payload
// larger than the protocol cap must be refused before the server
// allocates or reads it.
func TestBinServerOversizedFrameRejected(t *testing.T) {
	addr, _ := startBinServer(t, 16, BinConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Hand-build a header claiming an absurd length: the length field is
	// header bytes 12..16, big-endian.
	buf, start := binproto.BeginFrame(nil, binproto.TAcquire, 1)
	buf = binproto.AppendAcquireReq(buf, "big", 60_000, nil)
	buf = binproto.EndFrame(buf, start)
	binary.BigEndian.PutUint32(buf[12:16], binproto.MaxPayload+1)
	if _, err := conn.Write(buf[:binproto.HeaderLen]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	br := bufio.NewReader(conn)
	var hdr [binproto.HeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		t.Fatalf("read error frame header: %v", err)
	}
	h, err := binproto.ParseHeader(hdr[:])
	if err != nil || h.Type != binproto.TError {
		t.Fatalf("oversized frame answer = %+v, %v; want TError", h, err)
	}
	// And the connection drops: boundaries are unrecoverable.
	p := make([]byte, h.Len)
	if _, err := io.ReadFull(br, p); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection survived a desynchronizing header: %v", err)
	}
}

// TestBinServerCorruptPayloadRejected: a frame whose payload fails the
// CRC gate is answered with one TError (bad_request) and the connection
// drops — damaged bytes mean the stream can no longer be trusted, so
// the client must redial onto a clean one.
func TestBinServerCorruptPayloadRejected(t *testing.T) {
	addr, _ := startBinServer(t, 16, BinConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	buf, start := binproto.BeginFrame(nil, binproto.TAcquire, 9)
	buf = binproto.AppendAcquireReq(buf, "corrupt", 60_000, nil)
	buf = binproto.EndFrame(buf, start)
	buf[len(buf)-1] ^= 0x01 // one flipped payload bit; header untouched
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	br := bufio.NewReader(conn)
	h, payload := readFrame(t, br)
	if h.Type != binproto.TError || h.ID != 9 {
		t.Fatalf("corrupt frame answer = %+v, want TError echoing id 9", h)
	}
	code, msg, derr := binproto.DecodeErrorResp(payload)
	if derr != nil || code != binproto.CodeBadRequest {
		t.Fatalf("error resp = (%d, %q, %v), want bad_request", code, msg, derr)
	}
	if !strings.Contains(msg, "checksum") {
		t.Fatalf("error message %q does not name the checksum", msg)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("read after corrupt frame = %v, want EOF (connection dropped)", err)
	}
}
