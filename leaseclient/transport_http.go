package leaseclient

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"

	renaming "repro"
	"repro/internal/wire"
	"repro/lease"
)

// httpTransport speaks the /v1 JSON surface. Every request carries a
// fresh wire.HeaderRequestID, and transport and server errors embed it
// so a failure in a client log joins against the server's record of the
// same request.
type httpTransport struct {
	base   string
	client *http.Client
}

func newHTTPTransport(base string, client *http.Client) *httpTransport {
	return &httpTransport{base: base, client: client}
}

func (t *httpTransport) Acquire(ctx context.Context, req *wire.AcquireRequest) (wire.Lease, error) {
	var l wire.Lease
	err := t.post(ctx, "/v1/acquire", wire.AppendAcquireRequest(newBody(), req),
		func(b []byte) error { return wire.DecodeLease(b, &l) })
	return l, err
}

func (t *httpTransport) AcquireBatch(ctx context.Context, req *wire.AcquireBatchRequest) (wire.Leases, error) {
	var ls wire.Leases
	err := t.post(ctx, "/v1/acquire_batch", wire.AppendAcquireBatchRequest(newBody(), req),
		func(b []byte) error { return wire.DecodeLeases(b, &ls) })
	return ls, err
}

func (t *httpTransport) Renew(ctx context.Context, req *wire.RenewRequest) (wire.Lease, error) {
	var l wire.Lease
	err := t.post(ctx, "/v1/renew", wire.AppendRenewRequest(newBody(), req),
		func(b []byte) error { return wire.DecodeLease(b, &l) })
	return l, err
}

func (t *httpTransport) RenewBatch(ctx context.Context, req *wire.RenewBatchRequest) (wire.BatchResults, error) {
	var rs wire.BatchResults
	err := t.post(ctx, "/v1/renew_batch", wire.AppendRenewBatchRequest(newBody(), req),
		func(b []byte) error { return wire.DecodeBatchResults(b, &rs) })
	return rs, err
}

func (t *httpTransport) Release(ctx context.Context, req *wire.ReleaseRequest) error {
	return t.post(ctx, "/v1/release", wire.AppendReleaseRequest(newBody(), req), nil)
}

func (t *httpTransport) ReleaseBatch(ctx context.Context, req *wire.ReleaseBatchRequest) (wire.BatchResults, error) {
	var rs wire.BatchResults
	err := t.post(ctx, "/v1/release_batch", wire.AppendReleaseBatchRequest(newBody(), req),
		func(b []byte) error { return wire.DecodeBatchResults(b, &rs) })
	return rs, err
}

func (t *httpTransport) Ping(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+"/healthz", nil)
	if err != nil {
		return fmt.Errorf("leaseclient: healthz: %w", err)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return fmt.Errorf("leaseclient: healthz: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("leaseclient: healthz: HTTP %d", resp.StatusCode)
	}
	return nil
}

// newBody returns the buffer one request body is encoded into. Request
// bodies are not pooled: the transport may still be reading one after
// Do returns.
func newBody() []byte { return make([]byte, 0, 1024) }

// Close is a no-op: the http.Client's pooled connections outlive any
// one transport by design.
func (t *httpTransport) Close() error { return nil }

// sentinelForStatus inverts the server's writeError status mapping so a
// ServerError over HTTP Unwraps to the same typed sentinels the binary
// transport recovers from its code byte. Ambiguous statuses (503 covers
// both exhaustion and a closing server) pick the retryable reading.
func sentinelForStatus(status int) error {
	switch status {
	case http.StatusServiceUnavailable:
		return lease.ErrCapacity
	case http.StatusConflict:
		return lease.ErrWrongToken
	case http.StatusGone:
		return lease.ErrExpired
	case http.StatusNotFound:
		return lease.ErrUnknownName
	case http.StatusRequestTimeout:
		return renaming.ErrCancelled
	case http.StatusBadRequest:
		return renaming.ErrBadConfig
	default:
		return nil
	}
}

// post sends one JSON request body and hands a 2xx response's body to
// decode (when non-nil). Non-2xx responses come back as *ServerError
// with the wire error body's message; the typed per-item errors inside
// batch results flow through wire.ErrFor instead. Response bodies are
// read into a pooled buffer, which decode must not retain (the codec's
// decoded values never refer to it).
func (t *httpTransport) post(ctx context.Context, path string, body []byte, decode func([]byte) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("leaseclient: %s: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	reqID := wire.NewRequestID()
	req.Header.Set(wire.HeaderRequestID, reqID)
	resp, err := t.client.Do(req)
	if err != nil {
		return fmt.Errorf("leaseclient: %s [rid=%s]: %w", path, reqID, err)
	}
	defer resp.Body.Close()
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	if resp.StatusCode >= 300 {
		var we wire.Error
		msg := ""
		*buf, _ = wire.ReadBody(resp.Body, *buf, 1<<16)
		if wire.DecodeError(*buf, &we) == nil {
			msg = we.Error
		}
		io.Copy(io.Discard, resp.Body)
		return &ServerError{
			Op:        strings.TrimPrefix(path, "/v1/"),
			Status:    resp.StatusCode,
			Msg:       msg,
			RequestID: reqID,
			Err:       sentinelForStatus(resp.StatusCode),
		}
	}
	if decode != nil {
		var rerr error
		*buf, rerr = wire.ReadBody(resp.Body, *buf, math.MaxInt)
		if err := decode(*buf); err != nil {
			if rerr != nil {
				err = rerr
			}
			return fmt.Errorf("leaseclient: decode %s: %w", path, err)
		}
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}
