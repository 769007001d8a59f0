package loadgen

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/wire"
	"repro/internal/wire/binproto"
	"repro/leaseclient"
)

// standing acquires n leases with an hour's TTL through one AcquireBatch
// on its own transport, and returns them as renew items together with
// the function that hands them all back in one ReleaseBatch. Callers
// defer release, so a run leaves no lease behind on any return path.
func standing(target string, n int) (items []wire.Item, release func(), err error) {
	tr, err := leaseclient.NewTransport(target)
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	granted, err := tr.AcquireBatch(ctx, &wire.AcquireBatchRequest{
		Owner: "loadgen", Count: n, TTLms: time.Hour.Milliseconds(),
	})
	if err != nil {
		tr.Close()
		return nil, nil, fmt.Errorf("acquiring %d leases: %w", n, err)
	}
	items = make([]wire.Item, len(granted.Leases))
	for i, l := range granted.Leases {
		items[i] = wire.Item{Name: l.Name, Token: l.Token}
	}
	return items, func() {
		tr.ReleaseBatch(ctx, &wire.ReleaseBatchRequest{Items: items})
		tr.Close()
	}, nil
}

// Saturate measures SATURATED renewal throughput over one wire, in
// renewals per second: `workers` clients each own a transport and
// tight-loop renew_batch calls of `batch` leases from a standing set of
// `leases`, with no heartbeat schedule in between. Unlike Sessions this
// measures what the transport can move, not what a polite session
// chooses to send — it is the honest basis for comparing wires.
func Saturate(target string, leases, batch, workers int, dur time.Duration) (float64, error) {
	workers = max(workers, 1)
	batch = max(batch, 1)
	held, release, err := standing(target, max(leases, batch*workers))
	if err != nil {
		return 0, err
	}
	defer release()

	var renewed atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	per := len(held) / workers
	err = fanOut(target, workers, func(id int, tr leaseclient.Transport) error {
		share := held[id*per : (id+1)*per]
		var req wire.RenewBatchRequest
		for pos := 0; time.Now().Before(deadline); {
			end := min(pos+batch, len(share))
			req.Items = share[pos:end]
			res, err := tr.RenewBatch(context.Background(), &req)
			if err != nil {
				return err
			}
			for i := range res.Results {
				if res.Results[i].Code != "" {
					return fmt.Errorf("renew verdict %q", res.Results[i].Code)
				}
			}
			renewed.Add(int64(len(req.Items)))
			if pos = end; pos >= len(share) {
				pos = 0
			}
		}
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("loadgen against %s: %w", target, err)
	}
	return float64(renewed.Load()) / elapsed.Seconds(), nil
}

// Pipelined measures the binary protocol with its pipelining actually
// used, in renewals per second: one persistent connection to a bin://
// target, `depth` renew frames of `batch` items kept in flight (a writer
// goroutine streams requests while the reader drains responses), reused
// encode/decode buffers. This is the traffic shape the wire was designed
// for — request/response latency amortized away, throughput bounded by
// per-frame CPU.
func Pipelined(target string, leases, batch, depth int, dur time.Duration) (float64, error) {
	addr, ok := strings.CutPrefix(target, "bin://")
	if !ok {
		return 0, fmt.Errorf("loadgen: pipelined target %q is not bin://host:port", target)
	}
	batch = max(batch, 1)
	depth = max(depth, 1)
	held, release, err := standing(target, max(leases, batch))
	if err != nil {
		return 0, err
	}
	defer release()

	// Pre-encode one renew_batch frame per chunk of the standing set; the
	// writer recycles them (only the request id changes), so the client
	// side costs one header patch + one buffered write per frame and the
	// server sees back-to-back frames it can coalesce.
	var chunks [][]byte
	for pos := 0; pos < len(held); pos += batch {
		buf, start := binproto.BeginFrame(nil, binproto.TRenewBatch, 0)
		buf = binproto.AppendRenewBatchReq(buf, time.Hour.Milliseconds(), held[pos:min(pos+batch, len(held))])
		chunks = append(chunks, binproto.EndFrame(buf, start))
	}

	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return 0, err
	}
	conn.SetDeadline(time.Now().Add(dur + 30*time.Second))

	// slots is the flow-control semaphore: the writer takes one before
	// each renew frame, the reader returns it per response, so at most
	// `depth` frames are in flight and a slow server backpressures the
	// writer instead of growing an unbounded queue.
	slots := make(chan struct{}, depth)
	for range depth {
		slots <- struct{}{}
	}
	done := make(chan struct{})
	writeErr := make(chan error, 1)
	start := time.Now()
	deadline := start.Add(dur)
	go func() {
		err := writeFrames(bufio.NewWriterSize(conn, 256<<10), chunks, slots, done, deadline)
		if err != nil {
			conn.Close() // no more responses are coming: wake the reader
		}
		writeErr <- err
	}()
	renewed, rerr := readResponses(bufio.NewReaderSize(conn, 256<<10), slots)
	elapsed := time.Since(start)
	// Join the writer on every path: done wakes it from a slot wait,
	// closing the connection wakes it from a blocked write.
	close(done)
	conn.Close()
	werr := <-writeErr
	if rerr != nil && (werr == nil || errors.Is(werr, net.ErrClosed)) {
		return 0, fmt.Errorf("loadgen: pipelined read: %w", rerr)
	}
	if werr != nil {
		return 0, fmt.Errorf("loadgen: pipelined write: %w", werr)
	}
	return float64(renewed) / elapsed.Seconds(), nil
}

// writeFrames streams the renew frames round-robin until the deadline,
// one per slot, then one TStats frame as an end-of-stream sentinel: the
// server processes a connection's frames strictly in order, so the stats
// response arriving tells the reader every renew response before it has
// been consumed. It returns nil early once done is closed.
func writeFrames(bw *bufio.Writer, chunks [][]byte, slots <-chan struct{}, done <-chan struct{}, deadline time.Time) error {
	var id uint64
	for time.Now().Before(deadline) {
		select {
		case <-slots:
		case <-done:
			return nil
		}
		frame := chunks[id%uint64(len(chunks))]
		id++
		// Only the request ID changes between sends; the template's
		// length and payload CRC (stamped by EndFrame) stay valid.
		binary.BigEndian.PutUint64(frame[4:12], id)
		if _, err := bw.Write(frame); err != nil {
			return err
		}
		// Flush only when no slot is immediately available: back-to-
		// back frames coalesce into large writes, and the last frame
		// of a burst still goes out before the writer would block.
		if len(slots) == 0 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
	}
	sentinel, s := binproto.BeginFrame(nil, binproto.TStats, 0)
	if _, err := bw.Write(binproto.EndFrame(sentinel, s)); err != nil {
		return err
	}
	return bw.Flush()
}

// readResponses drains renew_batch responses until the TStats sentinel,
// returning a slot per response, and counts the renewals. Any failed
// verdict ends the run: the standing set's TTL outlives it, so a refusal
// means the server lost a lease.
func readResponses(br *bufio.Reader, slots chan<- struct{}) (int64, error) {
	var renewed int64
	var results []binproto.RenewResult
	hdr := make([]byte, binproto.HeaderLen)
	var payload []byte
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			return 0, err
		}
		h, err := binproto.ParseHeader(hdr)
		if err != nil {
			return 0, err
		}
		if cap(payload) < int(h.Len) {
			payload = make([]byte, h.Len)
		}
		payload = payload[:h.Len]
		if _, err := io.ReadFull(br, payload); err != nil {
			return 0, err
		}
		switch h.Type {
		case binproto.TStats | binproto.RespBit:
			return renewed, nil // sentinel: every renew response is in
		case binproto.TRenewBatch | binproto.RespBit:
		default:
			return 0, fmt.Errorf("response type %#02x", byte(h.Type))
		}
		if results, err = binproto.DecodeRenewBatchResp(payload, results); err != nil {
			return 0, err
		}
		for i := range results {
			if results[i].Code != binproto.CodeOK {
				return 0, fmt.Errorf("renew verdict %q", binproto.CodeString(results[i].Code))
			}
		}
		renewed += int64(len(results))
		// Return the slot AFTER counting: the writer may already be
		// waiting on it for the next frame.
		select {
		case slots <- struct{}{}:
		default:
		}
	}
}
