package wire

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The JSON codec of the /v1 bodies. Every body type has an Append
// encoder, which appends to the caller's buffer, and a Decode parser
// over a byte slice. Both are written by hand — no reflection, no token
// stream — and both are held to encoding/json, which stays the
// reference in the tests:
//
//   - AppendX(b, v) appends exactly the bytes of json.Marshal(v): HTML
//     characters, U+2028/U+2029 and control bytes escaped as Marshal
//     escapes them, invalid UTF-8 as \ufffd, map keys sorted, omitempty
//     fields left out.
//   - DecodeX(b, v) fails exactly when
//     json.NewDecoder(bytes.NewReader(b)).Decode(v) fails and otherwise
//     leaves v as that call would: keys match field names ignoring case
//     (with encoding/json's folding), unknown keys are skipped, a
//     repeated key decodes again into the same field (maps and the lease
//     behind a pointer merge, slices reuse their elements), null leaves
//     strings and numbers alone and nils maps, slices and pointers,
//     escapes and invalid UTF-8 become what encoding/json makes of them,
//     integer fields take only integer literals in range, and the bytes
//     after the first value are never looked at.

// ErrJSON is the sentinel behind every Decode error: the body is not
// one JSON value, or a value does not fit the field it lands in.
var ErrJSON = errors.New("wire: bad JSON body")

// MaxBody bounds the bytes of one request body the server reads; a
// value that runs past it is cut off and so fails to decode.
const MaxBody = 1 << 20

// buffers recycles the byte slices bodies are read and encoded into.
var buffers = sync.Pool{New: func() any { return new([]byte) }}

// maxPooled is the largest buffer PutBuffer keeps: one outsized body
// should not pin its memory in the pool.
const maxPooled = 64 << 10

// GetBuffer returns an empty pooled buffer; hand it back with PutBuffer
// once nothing refers to its bytes (decoded values never do).
func GetBuffer() *[]byte {
	p := buffers.Get().(*[]byte)
	*p = (*p)[:0]
	return p
}

// PutBuffer returns a buffer from GetBuffer to the pool.
func PutBuffer(p *[]byte) {
	if cap(*p) <= maxPooled {
		buffers.Put(p)
	}
}

// ReadBody appends what r yields to b until EOF or until b holds limit
// bytes, and returns the grown slice. The error is r's, with io.EOF
// reported as nil; the bytes read before it are kept either way.
func ReadBody(r io.Reader, b []byte, limit int) ([]byte, error) {
	for len(b) < limit {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(limit-len(b), max(512, cap(b))))
		}
		n, err := r.Read(b[len(b):min(cap(b), limit)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
	return b, nil
}

// ---- encoders --------------------------------------------------------

// AppendAcquireRequest appends the JSON of an acquire request.
func AppendAcquireRequest(b []byte, v *AcquireRequest) []byte {
	b = appendString(append(b, `{"owner":`...), v.Owner)
	b = appendTTL(b, v.TTLms)
	return append(appendMetaField(b, v.Meta), '}')
}

// AppendAcquireBatchRequest appends the JSON of an acquire_batch request.
func AppendAcquireBatchRequest(b []byte, v *AcquireBatchRequest) []byte {
	b = appendString(append(b, `{"owner":`...), v.Owner)
	b = strconv.AppendInt(append(b, `,"count":`...), int64(v.Count), 10)
	b = appendTTL(b, v.TTLms)
	return append(appendMetaField(b, v.Meta), '}')
}

// AppendRenewRequest appends the JSON of a renew request.
func AppendRenewRequest(b []byte, v *RenewRequest) []byte {
	b = appendNameToken(b, v.Name, v.Token)
	return append(appendTTL(b, v.TTLms), '}')
}

// AppendReleaseRequest appends the JSON of a release request.
func AppendReleaseRequest(b []byte, v *ReleaseRequest) []byte {
	return append(appendNameToken(b, v.Name, v.Token), '}')
}

// AppendRenewBatchRequest appends the JSON of a renew_batch request.
func AppendRenewBatchRequest(b []byte, v *RenewBatchRequest) []byte {
	b = appendTTL(append(b, '{'), v.TTLms)
	b = appendArray(append(comma(b), `"items":`...), v.Items, appendItem)
	return append(b, '}')
}

// AppendReleaseBatchRequest appends the JSON of a release_batch request.
func AppendReleaseBatchRequest(b []byte, v *ReleaseBatchRequest) []byte {
	b = appendArray(append(b, `{"items":`...), v.Items, appendItem)
	return append(b, '}')
}

// AppendResizeRequest appends the JSON of a resize request.
func AppendResizeRequest(b []byte, v *ResizeRequest) []byte {
	b = strconv.AppendInt(append(b, `{"capacity":`...), int64(v.Capacity), 10)
	return append(b, '}')
}

// AppendLease appends the JSON of one lease.
func AppendLease(b []byte, v *Lease) []byte {
	b = strconv.AppendInt(append(b, `{"name":`...), int64(v.Name), 10)
	if v.Token != 0 {
		b = strconv.AppendUint(append(b, `,"token":`...), v.Token, 10)
	}
	if v.Owner != "" {
		b = appendString(append(b, `,"owner":`...), v.Owner)
	}
	b = strconv.AppendInt(append(b, `,"expires_at_ms":`...), v.ExpiresAtMs, 10)
	return append(appendMetaField(b, v.Meta), '}')
}

// AppendLeases appends the JSON of an acquire_batch or /v1/leases
// response.
func AppendLeases(b []byte, v *Leases) []byte {
	b = appendArray(append(b, `{"leases":`...), v.Leases, AppendLease)
	return append(b, '}')
}

// AppendBatchResults appends the JSON of a renew_batch or release_batch
// response.
func AppendBatchResults(b []byte, v *BatchResults) []byte {
	b = appendArray(append(b, `{"results":`...), v.Results, appendBatchResult)
	return append(b, '}')
}

// AppendResizeResponse appends the JSON of a resize response.
func AppendResizeResponse(b []byte, v *ResizeResponse) []byte {
	b = strconv.AppendInt(append(b, `{"capacity":`...), int64(v.Capacity), 10)
	b = strconv.AppendInt(append(b, `,"max_live":`...), v.MaxLive, 10)
	b = strconv.AppendUint(append(b, `,"epoch":`...), v.Epoch, 10)
	b = strconv.AppendBool(append(b, `,"draining":`...), v.Draining)
	b = appendArray(append(b, `,"results":`...), v.Results, appendResizeResult)
	return append(b, '}')
}

// AppendError appends the JSON of an error response.
func AppendError(b []byte, v *Error) []byte {
	return append(appendString(append(b, `{"error":`...), v.Error), '}')
}

func appendItem(b []byte, v *Item) []byte {
	return append(appendNameToken(b, v.Name, v.Token), '}')
}

// appendNameToken opens an object with its name and token members.
func appendNameToken(b []byte, name int, token uint64) []byte {
	b = strconv.AppendInt(append(b, `{"name":`...), int64(name), 10)
	return strconv.AppendUint(append(b, `,"token":`...), token, 10)
}

// comma separates the next member from an earlier one: it appends a
// comma unless b ends with the '{' that opened the object (no value
// ends with '{').
func comma(b []byte) []byte {
	if b[len(b)-1] == '{' {
		return b
	}
	return append(b, ',')
}

// appendTTL appends the omitempty ttl_ms member.
func appendTTL(b []byte, ms int64) []byte {
	if ms == 0 {
		return b
	}
	return strconv.AppendInt(append(comma(b), `"ttl_ms":`...), ms, 10)
}

func appendBatchResult(b []byte, v *BatchResult) []byte {
	b = append(b, '{')
	if v.Lease != nil {
		b = AppendLease(append(b, `"lease":`...), v.Lease)
	}
	b = appendOptString(b, `"error":`, v.Error)
	b = appendOptString(b, `"code":`, v.Code)
	return append(b, '}')
}

func appendResizeResult(b []byte, v *ResizeResult) []byte {
	b = appendString(append(b, `{"component":`...), v.Component)
	b = appendOptString(b, `"error":`, v.Error)
	b = appendOptString(b, `"code":`, v.Code)
	return append(b, '}')
}

// appendOptString appends an omitempty string member; key is the quoted
// name and its colon.
func appendOptString(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(comma(b), key...), s)
}

// appendArray appends s as a JSON array, or null when s is nil.
func appendArray[T any](b []byte, s []T, elem func([]byte, *T) []byte) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, &s[i])
	}
	return append(b, ']')
}

// appendMetaField appends the omitempty meta member: keys in sorted
// order, as encoding/json writes maps.
func appendMetaField(b []byte, m map[string]string) []byte {
	if len(m) == 0 {
		return b
	}
	var arr [8]string
	keys := arr[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(comma(b), `"meta":{`...)
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(append(appendString(b, k), ':'), m[k])
	}
	return append(b, '}')
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way json.Marshal writes
// it: HTML-significant bytes, control bytes and U+2028/U+2029 escaped,
// each invalid UTF-8 byte replaced by \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// ---- decoders --------------------------------------------------------

// DecodeAcquireRequest decodes an acquire request body into v.
func DecodeAcquireRequest(b []byte, v *AcquireRequest) error {
	r := &reader{b: b}
	if r.top() {
		r.object(func(f []byte) bool {
			switch string(f) {
			case "OWNER":
				return r.stringField(&v.Owner)
			case "TTL_MS":
				return intField(r, &v.TTLms)
			case "META":
				return r.meta(&v.Meta)
			}
			return r.skip()
		})
	}
	return r.err
}

// DecodeAcquireBatchRequest decodes an acquire_batch request body into v.
func DecodeAcquireBatchRequest(b []byte, v *AcquireBatchRequest) error {
	r := &reader{b: b}
	if r.top() {
		r.object(func(f []byte) bool {
			switch string(f) {
			case "OWNER":
				return r.stringField(&v.Owner)
			case "COUNT":
				return intField(r, &v.Count)
			case "TTL_MS":
				return intField(r, &v.TTLms)
			case "META":
				return r.meta(&v.Meta)
			}
			return r.skip()
		})
	}
	return r.err
}

// DecodeRenewRequest decodes a renew request body into v.
func DecodeRenewRequest(b []byte, v *RenewRequest) error {
	r := &reader{b: b}
	if r.top() {
		r.object(func(f []byte) bool {
			switch string(f) {
			case "NAME":
				return intField(r, &v.Name)
			case "TOKEN":
				return r.uintField(&v.Token)
			case "TTL_MS":
				return intField(r, &v.TTLms)
			}
			return r.skip()
		})
	}
	return r.err
}

// DecodeReleaseRequest decodes a release request body into v.
func DecodeReleaseRequest(b []byte, v *ReleaseRequest) error {
	r := &reader{b: b}
	if r.top() {
		r.object(func(f []byte) bool {
			switch string(f) {
			case "NAME":
				return intField(r, &v.Name)
			case "TOKEN":
				return r.uintField(&v.Token)
			}
			return r.skip()
		})
	}
	return r.err
}

// DecodeRenewBatchRequest decodes a renew_batch request body into v.
func DecodeRenewBatchRequest(b []byte, v *RenewBatchRequest) error {
	r := &reader{b: b}
	if r.top() {
		r.object(func(f []byte) bool {
			switch string(f) {
			case "TTL_MS":
				return intField(r, &v.TTLms)
			case "ITEMS":
				return decodeSlice(r, &v.Items, (*reader).item)
			}
			return r.skip()
		})
	}
	return r.err
}

// DecodeReleaseBatchRequest decodes a release_batch request body into v.
func DecodeReleaseBatchRequest(b []byte, v *ReleaseBatchRequest) error {
	r := &reader{b: b}
	if r.top() {
		r.object(func(f []byte) bool {
			if string(f) == "ITEMS" {
				return decodeSlice(r, &v.Items, (*reader).item)
			}
			return r.skip()
		})
	}
	return r.err
}

// DecodeResizeRequest decodes a resize request body into v.
func DecodeResizeRequest(b []byte, v *ResizeRequest) error {
	r := &reader{b: b}
	if r.top() {
		r.object(func(f []byte) bool {
			if string(f) == "CAPACITY" {
				return intField(r, &v.Capacity)
			}
			return r.skip()
		})
	}
	return r.err
}

// DecodeLease decodes an acquire or renew response body into v.
func DecodeLease(b []byte, v *Lease) error {
	r := &reader{b: b}
	if r.top() {
		r.lease(v)
	}
	return r.err
}

// DecodeLeases decodes an acquire_batch or /v1/leases response body
// into v.
func DecodeLeases(b []byte, v *Leases) error {
	r := &reader{b: b}
	if r.top() {
		r.object(func(f []byte) bool {
			if string(f) == "LEASES" {
				return decodeSlice(r, &v.Leases, (*reader).lease)
			}
			return r.skip()
		})
	}
	return r.err
}

// DecodeBatchResults decodes a renew_batch or release_batch response
// body into v.
func DecodeBatchResults(b []byte, v *BatchResults) error {
	r := &reader{b: b}
	if r.top() {
		r.object(func(f []byte) bool {
			if string(f) == "RESULTS" {
				return decodeSlice(r, &v.Results, (*reader).batchResult)
			}
			return r.skip()
		})
	}
	return r.err
}

// DecodeResizeResponse decodes a resize response body into v.
func DecodeResizeResponse(b []byte, v *ResizeResponse) error {
	r := &reader{b: b}
	if r.top() {
		r.object(func(f []byte) bool {
			switch string(f) {
			case "CAPACITY":
				return intField(r, &v.Capacity)
			case "MAX_LIVE":
				return intField(r, &v.MaxLive)
			case "EPOCH":
				return r.uintField(&v.Epoch)
			case "DRAINING":
				return r.boolField(&v.Draining)
			case "RESULTS":
				return decodeSlice(r, &v.Results, (*reader).resizeResult)
			}
			return r.skip()
		})
	}
	return r.err
}

// DecodeError decodes an error response body into v.
func DecodeError(b []byte, v *Error) error {
	r := &reader{b: b}
	if r.top() {
		r.object(func(f []byte) bool {
			if string(f) == "ERROR" {
				return r.stringField(&v.Error)
			}
			return r.skip()
		})
	}
	return r.err
}

func (r *reader) item(v *Item) bool {
	return r.object(func(f []byte) bool {
		switch string(f) {
		case "NAME":
			return intField(r, &v.Name)
		case "TOKEN":
			return r.uintField(&v.Token)
		}
		return r.skip()
	})
}

func (r *reader) lease(v *Lease) bool {
	return r.object(func(f []byte) bool {
		switch string(f) {
		case "NAME":
			return intField(r, &v.Name)
		case "TOKEN":
			return r.uintField(&v.Token)
		case "OWNER":
			return r.stringField(&v.Owner)
		case "EXPIRES_AT_MS":
			return intField(r, &v.ExpiresAtMs)
		case "META":
			return r.meta(&v.Meta)
		}
		return r.skip()
	})
}

func (r *reader) batchResult(v *BatchResult) bool {
	return r.object(func(f []byte) bool {
		switch string(f) {
		case "LEASE":
			return r.leasePtr(&v.Lease)
		case "ERROR":
			return r.stringField(&v.Error)
		case "CODE":
			return r.stringField(&v.Code)
		}
		return r.skip()
	})
}

func (r *reader) resizeResult(v *ResizeResult) bool {
	return r.object(func(f []byte) bool {
		switch string(f) {
		case "COMPONENT":
			return r.stringField(&v.Component)
		case "ERROR":
			return r.stringField(&v.Error)
		case "CODE":
			return r.stringField(&v.Code)
		}
		return r.skip()
	})
}

// maxDepth is encoding/json's nesting limit: the 10001st open bracket
// is a syntax error.
const maxDepth = 10000

// reader is a cursor over one body. Its methods report success as a
// bool and leave the first failure in err.
type reader struct {
	b     []byte
	off   int
	depth int
	err   error
	// tmp holds a string's unquoted bytes when they differ from the
	// literal's; last is the latest decoded string, handed out again
	// when the next one is equal (batch results repeat owners and
	// codes).
	tmp  []byte
	last string
	fold [16]byte
	slab []Lease
}

// top starts decoding a body, whose first JSON value must be an object
// or null (every other value is a type error): it reports whether an
// object follows. Otherwise the body is settled — a null is accepted, a
// failure left in r.err. As with encoding/json, nothing after the value
// is read.
func (r *reader) top() bool {
	switch r.peek() {
	case '{':
		return true
	case 'n':
		r.literal("null")
	default:
		r.expectValue()
	}
	return false
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// peek skips white space and returns the next byte, or 0 at the end of
// the body (a NUL byte is no valid JSON either).
func (r *reader) peek() byte {
	for r.off < len(r.b) {
		if c := r.b[r.off]; !isSpace(c) {
			return c
		}
		r.off++
	}
	return 0
}

func (r *reader) fail(format string, args ...any) bool {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrJSON, fmt.Sprintf(format, args...), r.off)
	}
	return false
}

// unexpected fails on the byte at the cursor, or on the end of the body.
func (r *reader) unexpected(context string) bool {
	if r.off >= len(r.b) {
		return r.fail("unexpected end of body")
	}
	return r.fail("invalid character %q %s", r.b[r.off], context)
}

// expectValue fails on a byte that cannot start a value, and otherwise
// on a value of the wrong type for its field.
func (r *reader) expectValue() bool {
	switch c := r.peek(); {
	case c == '{' || c == '[' || c == '"' || c == '-' || c == 't' || c == 'f' || c == 'n' || ('0' <= c && c <= '9'):
		return r.fail("value of the wrong type")
	}
	return r.unexpected("looking for beginning of value")
}

// literal consumes word (true, false or null) at the cursor.
func (r *reader) literal(word string) bool {
	for i := 0; i < len(word); i++ {
		if r.off >= len(r.b) || r.b[r.off] != word[i] {
			return r.unexpected("in literal " + word)
		}
		r.off++
	}
	return true
}

// open consumes the '{' or '[' at the cursor, counting nesting depth.
func (r *reader) open() bool {
	r.off++
	if r.depth++; r.depth > maxDepth {
		return r.fail("exceeded max depth")
	}
	return true
}

// members parses the object at the cursor, passing each member's
// unquoted key to member, which must consume the value. The key is
// only valid until the next string is parsed.
func (r *reader) members(member func(key []byte) bool) bool {
	if !r.open() {
		return false
	}
	if r.peek() == '}' {
		r.off++
		r.depth--
		return true
	}
	for {
		if r.peek() != '"' {
			return r.unexpected("looking for beginning of object key string")
		}
		key, ok := r.quoted()
		if !ok {
			return false
		}
		if r.peek() != ':' {
			return r.unexpected("after object key")
		}
		r.off++
		if !member(key) {
			return false
		}
		switch r.peek() {
		case ',':
			r.off++
		case '}':
			r.off++
			r.depth--
			return true
		default:
			return r.unexpected("after object key:value pair")
		}
	}
}

// object decodes a struct: null leaves it as it is, an object hands
// each member's folded key to field.
func (r *reader) object(field func(folded []byte) bool) bool {
	switch r.peek() {
	case 'n':
		return r.literal("null")
	case '{':
		return r.members(func(key []byte) bool { return field(r.foldKey(key)) })
	}
	return r.expectValue()
}

// foldKey maps a key to the form encoding/json matches field names in:
// ASCII letters upper-cased, and the two non-ASCII runes that fold to
// ASCII letters (U+017F to S, U+212A to K) replaced. A key with any
// other non-ASCII rune, or longer than the buffer, comes back unchanged:
// no field name (all short and ASCII) can match it.
func (r *reader) foldKey(key []byte) []byte {
	n := 0
	for i := 0; i < len(key); n++ {
		if n == len(r.fold) {
			return key
		}
		c := key[i]
		switch {
		case c < utf8.RuneSelf:
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			i++
		case string(key[i:min(i+2, len(key))]) == "\u017f":
			c = 'S'
			i += 2
		case string(key[i:min(i+3, len(key))]) == "\u212a":
			c = 'K'
			i += 3
		default:
			return key
		}
		r.fold[n] = c
	}
	return r.fold[:n]
}

// array parses the array at the cursor, calling elem for each element;
// elem must consume it.
func (r *reader) array(elem func() bool) bool {
	if !r.open() {
		return false
	}
	if r.peek() == ']' {
		r.off++
		r.depth--
		return true
	}
	for {
		if !elem() {
			return false
		}
		switch r.peek() {
		case ',':
			r.off++
		case ']':
			r.off++
			r.depth--
			return true
		default:
			return r.unexpected("after array element")
		}
	}
}

// decodeSlice decodes an array into *s as encoding/json does: element i
// decodes into the existing s[i] (stale elements past len are reused
// up to cap, fresh capacity is zero), the slice ends at the array's
// length, [] gives an empty non-nil slice and null a nil one.
func decodeSlice[T any](r *reader, s *[]T, elem func(*reader, *T) bool) bool {
	switch r.peek() {
	case 'n':
		if !r.literal("null") {
			return false
		}
		*s = nil
		return true
	case '[':
	default:
		return r.expectValue()
	}
	v, i := *s, 0
	ok := r.array(func() bool {
		if i == len(v) {
			if i == cap(v) {
				v = slices.Grow(v, max(i, 16))
			}
			v = v[:i+1]
		}
		i++
		return elem(r, &v[i-1])
	})
	if !ok {
		return false
	}
	if i == 0 {
		v = []T{}
	}
	*s = v[:i]
	return true
}

// leasePtr decodes into *p: null nils it, an object decodes into the
// lease it points to, allocated first when *p is nil.
func (r *reader) leasePtr(p **Lease) bool {
	switch r.peek() {
	case 'n':
		if !r.literal("null") {
			return false
		}
		*p = nil
		return true
	case '{':
		if *p == nil {
			*p = r.newLease()
		}
		return r.lease(*p)
	}
	return r.expectValue()
}

// newLease returns a zero lease cut from a slab, so the leases of a
// batch response cost one allocation rather than one each.
func (r *reader) newLease() *Lease {
	if len(r.slab) == 0 {
		r.slab = make([]Lease, 16)
	}
	p := &r.slab[0]
	r.slab = r.slab[1:]
	return p
}

// meta decodes a string map: null nils it, an object adds its members
// (a null member value reads as "") to the map, made first when nil.
func (r *reader) meta(m *map[string]string) bool {
	switch r.peek() {
	case 'n':
		if !r.literal("null") {
			return false
		}
		*m = nil
		return true
	case '{':
	default:
		return r.expectValue()
	}
	if *m == nil {
		*m = map[string]string{}
	}
	mm := *m
	return r.members(func(key []byte) bool {
		k := string(key)
		var s string
		if !r.stringField(&s) {
			return false
		}
		mm[k] = s
		return true
	})
}

// stringField decodes a string field; null leaves it as it is.
func (r *reader) stringField(v *string) bool {
	switch r.peek() {
	case 'n':
		return r.literal("null")
	case '"':
		s, ok := r.quoted()
		if !ok {
			return false
		}
		if string(s) != r.last {
			r.last = string(s)
		}
		*v = r.last
		return true
	}
	return r.expectValue()
}

// boolField decodes a boolean field; null leaves it as it is.
func (r *reader) boolField(v *bool) bool {
	switch r.peek() {
	case 'n':
		return r.literal("null")
	case 't':
		*v = true
		return r.literal("true")
	case 'f':
		*v = false
		return r.literal("false")
	}
	return r.expectValue()
}

// intField decodes a signed integer field; null leaves it as it is. As
// encoding/json, only an integer literal in the field's range fits:
// 1.0, 1e3 and out-of-range values fail, -0 reads as 0.
func intField[T int | int64](r *reader, v *T) bool {
	lit, ok := r.numberField()
	if !ok || lit == nil {
		return ok
	}
	neg, digits := lit[0] == '-', lit
	if neg {
		digits = lit[1:]
	}
	u, ok := parseDigits(digits)
	var n int64
	switch {
	case !ok || (neg && u > 1<<63) || (!neg && u > math.MaxInt64):
		ok = false
	case neg:
		n = -int64(u)
	default:
		n = int64(u)
	}
	if !ok || int64(T(n)) != n {
		return r.fail("number %s does not fit a %T field", lit, *v)
	}
	*v = T(n)
	return true
}

// uintField decodes an unsigned integer field; null leaves it as it is. A
// minus sign fails, -0 included, as strconv.ParseUint rejects it.
func (r *reader) uintField(v *uint64) bool {
	lit, ok := r.numberField()
	if !ok || lit == nil {
		return ok
	}
	u, ok := parseDigits(lit)
	if !ok {
		return r.fail("number %s does not fit a uint64 field", lit)
	}
	*v = u
	return true
}

// numberField reads a number field's literal: nil for null, a failure
// for any other non-number.
func (r *reader) numberField() ([]byte, bool) {
	switch c := r.peek(); {
	case c == 'n':
		return nil, r.literal("null")
	case c == '-' || ('0' <= c && c <= '9'):
		return r.number()
	}
	return nil, r.expectValue()
}

// parseDigits parses a run of decimal digits that fits a uint64.
func parseDigits(s []byte) (uint64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range s {
		if c < '0' || c > '9' || n > math.MaxUint64/10 {
			return 0, false
		}
		d := uint64(c - '0')
		if n*10 > math.MaxUint64-d {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// number consumes a number literal per RFC 8259 and returns its bytes.
func (r *reader) number() ([]byte, bool) {
	b, start := r.b, r.off
	if b[r.off] == '-' {
		r.off++
	}
	switch {
	case r.off < len(b) && b[r.off] == '0':
		r.off++
	case r.off < len(b) && '1' <= b[r.off] && b[r.off] <= '9':
		r.skipDigits()
	default:
		return nil, r.unexpected("in numeric literal")
	}
	if r.off < len(b) && b[r.off] == '.' {
		r.off++
		if !r.digit() {
			return nil, r.unexpected("after decimal point in numeric literal")
		}
		r.skipDigits()
	}
	if r.off < len(b) && (b[r.off] == 'e' || b[r.off] == 'E') {
		r.off++
		if r.off < len(b) && (b[r.off] == '+' || b[r.off] == '-') {
			r.off++
		}
		if !r.digit() {
			return nil, r.unexpected("in exponent of numeric literal")
		}
		r.skipDigits()
	}
	return b[start:r.off], true
}

func (r *reader) digit() bool {
	return r.off < len(r.b) && '0' <= r.b[r.off] && r.b[r.off] <= '9'
}

func (r *reader) skipDigits() {
	for r.digit() {
		r.off++
	}
}

// quoted consumes the string literal at the cursor and returns its
// unquoted bytes: a slice of the body when the literal has no escapes
// and is valid UTF-8, else r.tmp. Valid until the next call.
func (r *reader) quoted() ([]byte, bool) {
	r.off++
	start := r.off
	for r.off < len(r.b) {
		c := r.b[r.off]
		if c == '"' {
			r.off++
			return r.b[start : r.off-1], true
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
		r.off++
	}
	t, ok := r.unquote(append(r.tmp[:0], r.b[start:r.off]...))
	r.tmp = t
	return t, ok
}

// unquote continues quoted's scan past the first byte that needs
// decoding, appending the string's bytes to t.
func (r *reader) unquote(t []byte) ([]byte, bool) {
	for r.off < len(r.b) {
		switch c := r.b[r.off]; {
		case c == '"':
			r.off++
			return t, true
		case c < 0x20:
			return t, r.unexpected("in string literal")
		case c == '\\':
			var ok bool
			if t, ok = r.escape(t); !ok {
				return t, false
			}
		case c < utf8.RuneSelf:
			t = append(t, c)
			r.off++
		default:
			rr, size := utf8.DecodeRune(r.b[r.off:])
			t = utf8.AppendRune(t, rr)
			r.off += size
		}
	}
	return t, r.unexpected("")
}

// escape decodes the backslash escape at the cursor onto t. A \u
// surrogate pair becomes one rune; any other surrogate becomes U+FFFD.
func (r *reader) escape(t []byte) ([]byte, bool) {
	r.off++
	if r.off >= len(r.b) {
		return t, r.unexpected("")
	}
	c := r.b[r.off]
	switch c {
	case '"', '\\', '/':
	case 'b':
		c = '\b'
	case 'f':
		c = '\f'
	case 'n':
		c = '\n'
	case 'r':
		c = '\r'
	case 't':
		c = '\t'
	case 'u':
		r.off--
		rr := hex4(r.b[r.off:])
		if rr < 0 {
			return t, r.fail("bad \\u escape")
		}
		r.off += 6
		if utf16.IsSurrogate(rr) {
			if dec := utf16.DecodeRune(rr, hex4(r.b[r.off:])); dec != unicode.ReplacementChar {
				r.off += 6
				return utf8.AppendRune(t, dec), true
			}
			rr = unicode.ReplacementChar
		}
		return utf8.AppendRune(t, rr), true
	default:
		return t, r.unexpected("in string escape code")
	}
	r.off++
	return append(t, c), true
}

// hex4 reads a \uXXXX escape at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var rr rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		rr = rr<<4 | rune(c)
	}
	return rr
}

// skip consumes one value of any type, checking its syntax.
func (r *reader) skip() bool {
	switch c := r.peek(); {
	case c == '{':
		return r.members(func([]byte) bool { return r.skip() })
	case c == '[':
		return r.array(r.skip)
	case c == '"':
		_, ok := r.quoted()
		return ok
	case c == '-' || ('0' <= c && c <= '9'):
		_, ok := r.number()
		return ok
	case c == 't':
		return r.literal("true")
	case c == 'f':
		return r.literal("false")
	case c == 'n':
		return r.literal("null")
	}
	return r.unexpected("looking for beginning of value")
}
