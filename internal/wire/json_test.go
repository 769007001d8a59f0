package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// The codec's contract is parity with encoding/json, which these tests
// use as the reference: Append output byte-equal to json.Marshal, and
// Decode accepting exactly what json.Decoder.Decode accepts, with equal
// values.

var weirdText = "quote\" back\\ <tag> & amp, tab\t nl\n cr\r bs\b ff\f nul\x00 del\x7f é ü 名前 \U0001F600 \u2028\u2029 bad\xff\xc3 end"

// TestJSONAppendMatchesMarshal: every encoder writes json.Marshal's
// bytes; the server's newline-terminated response framing equals
// json.Encoder's.
func TestJSONAppendMatchesMarshal(t *testing.T) {
	meta := map[string]string{"zone": "eu-1", "a<b": "x&y", "": "empty key", "é": "non-ascii key", "Z": weirdText, "k\"q": "v"}
	lease := Lease{Name: 7, Token: math.MaxUint64, Owner: "wörker-名前", ExpiresAtMs: -1, Meta: meta}
	type encCase struct {
		name string
		v    any
		enc  func([]byte) []byte
	}
	var cases []encCase
	add := func(name string, v any, enc func([]byte) []byte) {
		cases = append(cases, encCase{name, v, enc})
	}
	for i, v := range []AcquireRequest{
		{},
		{Owner: "w", TTLms: 500, Meta: map[string]string{"k": "v"}},
		{Owner: weirdText, TTLms: -3, Meta: meta},
		{Owner: "empty-meta", Meta: map[string]string{}},
	} {
		add("AcquireRequest/"+string(rune('a'+i)), v, func(b []byte) []byte { return AppendAcquireRequest(b, &v) })
	}
	for i, v := range []AcquireBatchRequest{
		{},
		{Owner: "w", Count: 16, TTLms: 30000, Meta: meta},
		{Owner: "<script>", Count: -1},
	} {
		add("AcquireBatchRequest/"+string(rune('a'+i)), v, func(b []byte) []byte { return AppendAcquireBatchRequest(b, &v) })
	}
	for i, v := range []RenewRequest{{}, {Name: math.MinInt64, Token: math.MaxUint64, TTLms: math.MaxInt64}, {Name: 3, Token: 9}} {
		add("RenewRequest/"+string(rune('a'+i)), v, func(b []byte) []byte { return AppendRenewRequest(b, &v) })
	}
	for i, v := range []ReleaseRequest{{}, {Name: 12, Token: 1 << 40}} {
		add("ReleaseRequest/"+string(rune('a'+i)), v, func(b []byte) []byte { return AppendReleaseRequest(b, &v) })
	}
	for i, v := range []RenewBatchRequest{
		{},
		{Items: []Item{}},
		{TTLms: 2000, Items: []Item{{Name: 1, Token: 2}, {Name: -1, Token: 0}}},
		{TTLms: -5, Items: []Item{{}}},
	} {
		add("RenewBatchRequest/"+string(rune('a'+i)), v, func(b []byte) []byte { return AppendRenewBatchRequest(b, &v) })
	}
	for i, v := range []ReleaseBatchRequest{{}, {Items: []Item{}}, {Items: []Item{{Name: 4, Token: 5}, {}}}} {
		add("ReleaseBatchRequest/"+string(rune('a'+i)), v, func(b []byte) []byte { return AppendReleaseBatchRequest(b, &v) })
	}
	for i, v := range []ResizeRequest{{}, {Capacity: 8192}, {Capacity: -1}} {
		add("ResizeRequest/"+string(rune('a'+i)), v, func(b []byte) []byte { return AppendResizeRequest(b, &v) })
	}
	for i, v := range []Lease{{}, lease, {Name: 1, ExpiresAtMs: 1700000000000}, {Owner: "only-owner", Meta: map[string]string{}}} {
		add("Lease/"+string(rune('a'+i)), v, func(b []byte) []byte { return AppendLease(b, &v) })
	}
	for i, v := range []Leases{{}, {Leases: []Lease{}}, {Leases: []Lease{lease, {Name: 2, Token: 3, ExpiresAtMs: 4}}}} {
		add("Leases/"+string(rune('a'+i)), v, func(b []byte) []byte { return AppendLeases(b, &v) })
	}
	for i, v := range []BatchResults{
		{},
		{Results: []BatchResult{}},
		{Results: []BatchResult{
			{Lease: &Lease{Name: 1, Token: 2, Owner: "w", ExpiresAtMs: 3}},
			{Error: `lease: renew "7": token mismatch`, Code: CodeWrongToken},
			{},
			{Code: CodeInternal},
			{Error: "only error"},
			{Lease: &lease, Error: "both", Code: "x"},
		}},
	} {
		add("BatchResults/"+string(rune('a'+i)), v, func(b []byte) []byte { return AppendBatchResults(b, &v) })
	}
	for i, v := range []ResizeResponse{
		{},
		{Capacity: 4096, MaxLive: 4096, Epoch: 2, Draining: true, Results: []ResizeResult{
			{Component: "namer"},
			{Component: "lease", Error: `refused: "not elastic"`, Code: CodeInternal},
			{Code: "c"},
		}},
		{Results: []ResizeResult{}},
	} {
		add("ResizeResponse/"+string(rune('a'+i)), v, func(b []byte) []byte { return AppendResizeResponse(b, &v) })
	}
	for i, v := range []Error{{}, {Error: `bad request body: "x" <unexpected> & more`}, {Error: weirdText}} {
		add("Error/"+string(rune('a'+i)), v, func(b []byte) []byte { return AppendError(b, &v) })
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := json.Marshal(c.v)
			if err != nil {
				t.Fatal(err)
			}
			prefix := []byte("prefix")
			got := c.enc(prefix)
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("Append wrote\n%s\njson.Marshal wrote\n%s", got, want)
			}
			var enc bytes.Buffer
			if err := json.NewEncoder(&enc).Encode(c.v); err != nil {
				t.Fatal(err)
			}
			if framed := append(c.enc(nil), '\n'); !bytes.Equal(framed, enc.Bytes()) {
				t.Fatalf("Append plus newline wrote %q, json.Encoder wrote %q", framed, enc.Bytes())
			}
		})
	}
}

// TestJSONAppendEveryByte: single-byte and short strings over the whole
// byte range (controls, HTML, DEL, lone UTF-8 lead and continuation
// bytes) escape as json.Marshal escapes them.
func TestJSONAppendEveryByte(t *testing.T) {
	for c := 0; c < 256; c++ {
		for _, s := range []string{string([]byte{byte(c)}), "a" + string([]byte{byte(c)}) + "b", string([]byte{0xe2, 0x80, byte(c)})} {
			e := Error{Error: s}
			want, _ := json.Marshal(e)
			if got := AppendError(nil, &e); !bytes.Equal(got, want) {
				t.Fatalf("%q: Append wrote %s, json.Marshal wrote %s", s, got, want)
			}
		}
	}
}

// checkDecode decodes b with the codec and with json.Decoder into fresh
// values and fails unless both accept or both reject, with equal values
// on acceptance. On acceptance it also checks the codec re-encodes the
// value as json.Marshal does.
func checkDecode[T any](t *testing.T, b []byte, decode func([]byte, *T) error, enc func([]byte, *T) []byte) {
	t.Helper()
	var got, want T
	gotErr := decode(b, &got)
	wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%T from %q: codec error %v, encoding/json error %v", got, b, gotErr, wantErr)
	}
	if gotErr != nil {
		if !errors.Is(gotErr, ErrJSON) {
			t.Fatalf("%T from %q: error %v does not match ErrJSON", got, b, gotErr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T from %q:\ncodec         %#v\nencoding/json %#v", got, b, got, want)
	}
	marshaled, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	if appended := enc(nil, &got); !bytes.Equal(appended, marshaled) {
		t.Fatalf("%T from %q: Append wrote %s, json.Marshal wrote %s", got, b, appended, marshaled)
	}
}

// FuzzDecodeJSON throws arbitrary bytes at every body decoder and holds
// each to encoding/json: same accept/reject verdict, equal values.
func FuzzDecodeJSON(f *testing.F) {
	for _, seed := range []string{
		``,
		`   `,
		`null`,
		`null x`,
		`nullx`,
		` {}`,
		`[]`,
		`"str"`,
		`{"items":null}`,
		`{"items":[]}`,
		`{"items":[{"name":1,"token":2},null,{"Name":3,"TOKEN":4}]}`,
		`{"items":[{"name":1,"token":2},{"name":3,"token":4}],"items":[{"name":5}]}`,
		`{"items":[{"name":1,"token":2},{"name":3,"token":4}],"items":[{"name":5}],"items":[{},{}]}`,
		`{"Name":3,"TTL_MS":10,"Token":1,"tOkEn":2}`,
		`{"name":1,"unknown":{"deep":[1,2,{"x":null}],"s":"\u00e9"},"token":7}`,
		`{"owner":"a","owner":"b","meta":{"k":"1"},"meta":{"j":"2"},"meta":{"k":null}}`,
		`{"owner":"caf\u00e9 \ud83d\ude00 \ud800 \udc00x \ud800\u0041","ttl_ms":5}`,
		"{\"owner\":\"bad\xff\xfeutf8\",\"meta\":{\"k\xc3\":\"v\xed\xa0\x80\"}}",
		`{"ttl_ms":1.0}`,
		`{"ttl_ms":1e3}`,
		`{"ttl_ms":-0,"name":-0}`,
		`{"token":-0}`,
		`{"token":18446744073709551615}`,
		`{"token":18446744073709551616}`,
		`{"name":-9223372036854775808,"ttl_ms":9223372036854775807}`,
		`{"name":9223372036854775808}`,
		`{"count":16,"owner":"w"} trailing garbage {`,
		`{"count":16}}`,
		`{"name":1,}`,
		`{"name":01}`,
		`{"name":"1"}`,
		`{"name":true}`,
		`{"owner":null,"ttl_ms":null,"meta":null,"items":null}`,
		`{"leases":[{"name":1,"token":2,"owner":"w","expires_at_ms":3,"meta":{"a":"b"}}]}`,
		`{"results":[{"lease":{"name":1,"expires_at_ms":2}},{"error":"x","code":"wrong_token"},{},{"lease":null}]}`,
		`{"results":[{"lease":{"name":1,"token":9}}],"results":[{"lease":{"owner":"merged"}}]}`,
		`{"capacity":8192,"max_live":8192,"epoch":3,"draining":true,"results":[{"component":"namer"}]}`,
		`{"draining":null,"draining":1}`,
		`{"error":"bad request body: \"quoted\" \u003c\u003e\u0026"}`,
		"{\"\\u006fwner\":\"escaped key\",\"item\u017f\":[],\"to\\u212aen\":5,\"\u212aey\":1,\"tokeN\":6}",
		`{"items":[` + strings.Repeat(`{"name":1,"token":2},`, 20) + `{"name":1,"token":2}]}`,
		`{"x":` + strings.Repeat(`[`, 10001) + strings.Repeat(`]`, 10001) + `}`,
		`{"x":` + strings.Repeat(`[`, 9999) + strings.Repeat(`]`, 9999) + `}`,
		"{\"owner\":\"tab\there\"}",
		`{"owner":"\x"}`,
		`{"a":tru}`,
		`{"a":-}`,
		`{"a":1.}`,
		`{"a":1e}`,
		`{"a" 1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecode(t, b, DecodeAcquireRequest, AppendAcquireRequest)
		checkDecode(t, b, DecodeAcquireBatchRequest, AppendAcquireBatchRequest)
		checkDecode(t, b, DecodeRenewRequest, AppendRenewRequest)
		checkDecode(t, b, DecodeReleaseRequest, AppendReleaseRequest)
		checkDecode(t, b, DecodeRenewBatchRequest, AppendRenewBatchRequest)
		checkDecode(t, b, DecodeReleaseBatchRequest, AppendReleaseBatchRequest)
		checkDecode(t, b, DecodeResizeRequest, AppendResizeRequest)
		checkDecode(t, b, DecodeLease, AppendLease)
		checkDecode(t, b, DecodeLeases, AppendLeases)
		checkDecode(t, b, DecodeBatchResults, AppendBatchResults)
		checkDecode(t, b, DecodeResizeResponse, AppendResizeResponse)
		checkDecode(t, b, DecodeError, AppendError)
	})
}

// TestReadBodyLimit: ReadBody stops at the limit, so a value that runs
// past it is cut off and fails to decode.
func TestReadBodyLimit(t *testing.T) {
	body := `{"owner":"` + strings.Repeat("x", 100) + `"}`
	b, err := ReadBody(strings.NewReader(body), nil, len(body))
	if err != nil || string(b) != body {
		t.Fatalf("ReadBody at the body's length = %q, %v", b, err)
	}
	b, err = ReadBody(strings.NewReader(body), make([]byte, 0, 4), len(body)-1)
	if err != nil || len(b) != len(body)-1 {
		t.Fatalf("ReadBody one byte short read %d bytes, %v", len(b), err)
	}
	var req AcquireRequest
	if err := DecodeAcquireRequest(b, &req); !errors.Is(err, ErrJSON) {
		t.Fatalf("decoding a cut-off body: %v, want ErrJSON", err)
	}
}

// renewBatchShapes returns the heartbeat bodies of a 16-item
// renew_batch: the request and its all-success response.
func renewBatchShapes() (RenewBatchRequest, BatchResults) {
	req := RenewBatchRequest{TTLms: 30000}
	res := BatchResults{}
	for i := 0; i < 16; i++ {
		req.Items = append(req.Items, Item{Name: 1000 + 37*i, Token: uint64(1<<40 + i)})
		res.Results = append(res.Results, BatchResult{Lease: &Lease{
			Name: 1000 + 37*i, Token: uint64(1<<40 + i), Owner: "perfbench-worker-3", ExpiresAtMs: 1760000000000 + int64(i),
		}})
	}
	return req, res
}

// BenchmarkJSONRenewBatch costs the four codec steps of one 16-item
// renew_batch round trip, each next to its encoding/json reference:
// the client encodes the request, the server decodes it, the server
// encodes the response and the client decodes it.
func BenchmarkJSONRenewBatch(b *testing.B) {
	req, res := renewBatchShapes()
	reqBody, resBody := AppendRenewBatchRequest(nil, &req), AppendBatchResults(nil, &res)
	var buf []byte
	b.Run("encode_request", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendRenewBatchRequest(buf[:0], &req)
		}
	})
	b.Run("encode_request/encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			json.Marshal(&req)
		}
	})
	b.Run("decode_request", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var v RenewBatchRequest
			if err := DecodeRenewBatchRequest(reqBody, &v); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode_request/encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var v RenewBatchRequest
			if err := json.NewDecoder(bytes.NewReader(reqBody)).Decode(&v); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode_response", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = append(AppendBatchResults(buf[:0], &res), '\n')
		}
	})
	b.Run("encode_response/encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		var w bytes.Buffer
		for i := 0; i < b.N; i++ {
			w.Reset()
			json.NewEncoder(&w).Encode(&res)
		}
	})
	b.Run("decode_response", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var v BatchResults
			if err := DecodeBatchResults(resBody, &v); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode_response/encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var v BatchResults
			if err := json.NewDecoder(bytes.NewReader(resBody)).Decode(&v); err != nil {
				b.Fatal(err)
			}
		}
	})
}
