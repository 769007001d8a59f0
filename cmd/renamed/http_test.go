package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/lease"
)

// TestBodyLimitStatuses pins the /v1 statuses the body codec must keep:
// 400 for a malformed body on every endpoint and for a value that runs
// past wire.MaxBody, while bytes past the end of a complete value are
// never read, however many there are.
func TestBodyLimitStatuses(t *testing.T) {
	srv := newTestServer(t, 64, lease.Config{TTL: time.Minute, SweepInterval: -1})
	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	for _, op := range []string{"acquire", "acquire_batch", "renew", "renew_batch", "release", "release_batch", "resize"} {
		for _, body := range []string{"", "{nope", `[]`, `{"owner":"x"`, `{"name":1.5,"owner":1,"items":{},"capacity":"x"}`} {
			status, out := post("/v1/"+op, body)
			if status != http.StatusBadRequest {
				t.Fatalf("%s with %q = %d, want 400", op, body, status)
			}
			var e wire.Error
			if err := json.Unmarshal(out, &e); err != nil || !strings.HasPrefix(e.Error, "bad request body: ") {
				t.Fatalf("%s with %q: error body %q (%v)", op, body, out, err)
			}
		}
	}

	long := strings.Repeat("x", wire.MaxBody)
	if status, _ := post("/v1/acquire", `{"owner":"`+long+`"}`); status != http.StatusBadRequest {
		t.Fatalf("acquire whose value runs past the limit = %d, want 400", status)
	}
	status, out := post("/v1/acquire", `{"owner":"w"}`+long)
	if status != http.StatusOK {
		t.Fatalf("acquire followed by %d trailing bytes = %d (%s), want 200", len(long), status, out)
	}
	// The response is json.Encoder's framing: the value, then a newline.
	var l wire.Lease
	if err := json.Unmarshal(out, &l); err != nil || l.Owner != "w" {
		t.Fatalf("acquire response %q: %+v, %v", out, l, err)
	}
	var want bytes.Buffer
	json.NewEncoder(&want).Encode(l)
	if !bytes.Equal(out, want.Bytes()) {
		t.Fatalf("acquire response %q, json.Encoder writes %q", out, want.Bytes())
	}
}
