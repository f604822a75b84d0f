package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	sqe "repro"
)

// The reply path writes every JSON reply with a hand-written append
// encoder: its bytes are what json.Encoder with SetEscapeHTML(false)
// writes for the same value, trailing newline included
// (TestEncodersMatchEncodingJSON), without reflection. The common
// request body has a hand-written parser too; anything else goes to
// encoding/json as before (parseRequest).

// jsonReply is a reply value with its own encoder.
type jsonReply interface {
	appendJSON(e *encoder)
}

// encoder appends JSON to b. The first unencodable value (a non-finite
// float) sets err and stops nothing: the caller discards b then.
type encoder struct {
	b   []byte
	err error
}

// maxPooledBuf caps the buffers bufPool keeps: a k = 1000 reply is
// ~60 KB, and one such reply should not pin that much per pooled entry.
const maxPooledBuf = 64 << 10

// bufPool holds the byte buffers the reply writer and the body reader
// use.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(p *[]byte, b []byte) {
	if cap(b) <= maxPooledBuf {
		*p = b[:0]
		bufPool.Put(p)
	}
}

// jsonContentType is shared by every reply's header map; nothing
// writes through it.
var jsonContentType = []string{"application/json"}

// writeJSON encodes v and sends it with status in one Write. A value
// that does not encode becomes the typed 503 backend_unavailable
// envelope instead of a half-written reply; writeJSON reports whether v
// was sent.
func writeJSON(w http.ResponseWriter, status int, v jsonReply) bool {
	p := getBuf()
	e := encoder{b: *p}
	v.appendJSON(&e)
	ok := e.err == nil
	if !ok {
		msg := "encode reply: " + e.err.Error()
		e = encoder{b: e.b[:0]}
		apiError{Err: errorBody{Code: CodeBackendUnavailable, Message: msg}}.appendJSON(&e)
		status = http.StatusServiceUnavailable
		w.Header().Del(DegradedHeader)
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(e.b)
	putBuf(p, e.b)
	return ok
}

func (e *encoder) raw(s string) { e.b = append(e.b, s...) }

func (e *encoder) int(n int) { e.b = strconv.AppendInt(e.b, int64(n), 10) }

// float is encoding/json's float64 encoder: ES6 number formatting, 'e'
// below 1e-6 and from 1e21 on, with the exponent's leading zero cut.
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	e.b = b
}

const hexDigits = "0123456789abcdef"

// str is encoding/json's string encoder without HTML escaping: quote,
// backslash and control bytes escaped, invalid UTF-8 replaced by
// U+FFFD, U+2028 and U+2029 escaped.
func (e *encoder) str(s string) {
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
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
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}

// strs encodes a string slice; nil is null, as encoding/json has it.
func (e *encoder) strs(ss []string) {
	if ss == nil {
		e.raw("null")
		return
	}
	e.raw("[")
	for i, s := range ss {
		if i > 0 {
			e.raw(",")
		}
		e.str(s)
	}
	e.raw("]")
}

func (a apiError) appendJSON(e *encoder) {
	e.raw(`{"error":{"code":`)
	e.str(a.Err.Code)
	e.raw(`,"message":`)
	e.str(a.Err.Message)
	e.raw("}}\n")
}

func (r *searchResponse) appendJSON(e *encoder) {
	e.raw(`{"query":`)
	e.str(r.Query)
	if len(r.Entities) > 0 {
		e.raw(`,"entities":`)
		e.strs(r.Entities)
	}
	if r.Set != "" {
		e.raw(`,"set":`)
		e.str(r.Set)
	}
	e.raw(`,"k":`)
	e.int(r.K)
	e.raw(`,"results":`)
	if r.Results == nil {
		e.raw("null")
	} else {
		e.raw("[")
		for i, res := range r.Results {
			if i > 0 {
				e.raw(",")
			}
			e.raw(`{"rank":`)
			e.int(res.Rank)
			e.raw(`,"name":`)
			e.str(res.Name)
			e.raw(`,"score":`)
			e.float(res.Score)
			e.raw("}")
		}
		e.raw("]")
	}
	if d := r.Degraded; d != nil {
		e.raw(`,"degraded":`)
		appendDegradation(e, d)
	}
	e.raw(`,"took_ms":`)
	e.float(r.TookMs)
	e.raw("}\n")
}

// appendDegradation encodes sqe.Degradation by its JSON tags, every
// field omitempty.
func appendDegradation(e *encoder, d *sqe.Degradation) {
	sep := ""
	key := func(k string) {
		e.raw(sep)
		e.raw(k)
		sep = ","
	}
	e.raw("{")
	if len(d.DroppedShards) > 0 {
		key(`"dropped_shards":[`)
		for i, s := range d.DroppedShards {
			if i > 0 {
				e.raw(",")
			}
			e.int(s)
		}
		e.raw("]")
	}
	if len(d.ShardErrors) > 0 {
		key(`"shard_errors":`)
		e.strs(d.ShardErrors)
	}
	if d.ExpansionFallbacks != 0 {
		key(`"expansion_fallbacks":`)
		e.int(d.ExpansionFallbacks)
	}
	if d.Retries != 0 {
		key(`"retries":`)
		e.int(d.Retries)
	}
	e.raw("}")
}

func (r *expandResponse) appendJSON(e *encoder) {
	e.raw(`{"query":`)
	e.str(r.Query)
	e.raw(`,"set":`)
	e.str(r.Set)
	e.raw(`,"query_node_titles":`)
	e.strs(r.QueryNodeTitles)
	e.raw(`,"features":`)
	if r.Features == nil {
		e.raw("null")
	} else {
		e.raw("[")
		for i, f := range r.Features {
			if i > 0 {
				e.raw(",")
			}
			e.raw(`{"title":`)
			e.str(f.Title)
			e.raw(`,"weight":`)
			e.float(f.Weight)
			e.raw("}")
		}
		e.raw("]")
	}
	e.raw(`,"took_ms":`)
	e.float(r.TookMs)
	e.raw("}\n")
}

func (r *ingestResponse) appendJSON(e *encoder) {
	e.raw(`{"added":`)
	e.int(r.Added)
	e.raw(`,"deleted":`)
	e.int(r.Deleted)
	if r.Flushed {
		e.raw(`,"flushed":true`)
	}
	if r.Compacted {
		e.raw(`,"compacted":true`)
	}
	e.raw(`,"segments":`)
	e.int(r.Segments)
	e.raw(`,"buffer_docs":`)
	e.int(r.BufferDocs)
	e.raw(`,"live_docs":`)
	e.int(r.LiveDocs)
	e.raw(`,"tombstones":`)
	e.int(r.Tombstones)
	e.raw(`,"took_ms":`)
	e.float(r.TookMs)
	e.raw("}\n")
}

func (r *healthzResponse) appendJSON(e *encoder) {
	e.raw(`{"in_flight":`)
	e.int(int(r.InFlight))
	e.raw(`,"status":`)
	e.str(r.Status)
	e.raw(`,"uptime_s":`)
	e.float(r.UptimeS)
	e.raw("}\n")
}

// readBody reads a request body into a pooled buffer. The caller puts
// the buffer back once the body is decoded (nothing decoded aliases
// it).
func readBody(r io.Reader) (p *[]byte, body []byte, err error) {
	p = getBuf()
	b := *p
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, rerr := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if rerr != nil {
			if rerr != io.EOF {
				err = rerr
			}
			return p, b, err
		}
	}
}

// decodeJSON is the decoder request bodies have always gone through,
// unknown fields rejected, fed body and then, if reading the body
// failed, the read error: it sees what a decoder reading the body
// itself would have seen, so it accepts, rejects and reports exactly as
// that decoder did.
func decodeJSON(body []byte, readErr error, v any) error {
	var rd io.Reader = bytes.NewReader(body)
	if readErr != nil {
		rd = io.MultiReader(rd, errReader{readErr})
	}
	dec := json.NewDecoder(rd)
	// Reject unknown fields: a typo like "entites" would otherwise
	// silently run a different query than the client intended.
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// parseRequest decodes body over req when body is one JSON object whose
// members are "query" and "set" (strings), "entities" (an array of
// strings) and "k" (an integer), with strings free of escapes and
// control bytes and in valid UTF-8, and nothing after the object but
// white space — the shape every client sends. It reports false, with
// req untouched, for anything else; the caller then runs decodeJSON,
// which accepts, rejects and reports as it always has
// (FuzzDecodeRequest holds the two equal where both decide).
func parseRequest(body []byte, req *request) bool {
	p := reqParser{b: body}
	r := *req
	p.space()
	if !p.next('{') {
		return false
	}
	p.space()
	if !p.next('}') {
		for {
			key, ok := p.rawString()
			if !ok {
				return false
			}
			p.space()
			if !p.next(':') {
				return false
			}
			p.space()
			switch string(key) {
			case "query":
				r.Query, ok = p.str()
			case "set":
				r.Set, ok = p.str()
			case "k":
				r.K, ok = p.int()
			case "entities":
				r.Entities, ok = p.strs()
			default:
				ok = false
			}
			if !ok {
				return false
			}
			p.space()
			if p.next('}') {
				break
			}
			if !p.next(',') {
				return false
			}
			p.space()
		}
	}
	p.space()
	if p.i != len(p.b) {
		return false
	}
	*req = r
	return true
}

type reqParser struct {
	b []byte
	i int
}

func (p *reqParser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *reqParser) next(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// rawString returns a string's bytes, which alias the body.
func (p *reqParser) rawString() ([]byte, bool) {
	if !p.next('"') {
		return nil, false
	}
	start, ascii := p.i, true
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			s := p.b[start:p.i]
			p.i++
			return s, ascii || utf8.Valid(s)
		case c < 0x20 || c == '\\':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

func (p *reqParser) str() (string, bool) {
	s, ok := p.rawString()
	return string(s), ok
}

// strs parses an array of strings; [] is a non-nil empty slice, as
// encoding/json decodes it.
func (p *reqParser) strs() ([]string, bool) {
	if !p.next('[') {
		return nil, false
	}
	out := []string{}
	p.space()
	if p.next(']') {
		return out, true
	}
	for {
		s, ok := p.str()
		if !ok {
			return nil, false
		}
		out = append(out, s)
		p.space()
		if p.next(']') {
			return out, true
		}
		if !p.next(',') {
			return nil, false
		}
		p.space()
	}
}

// int parses a JSON integer (no fraction or exponent) that fits an int.
func (p *reqParser) int() (int, bool) {
	start := p.i
	p.next('-')
	digits := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
	}
	n := p.i - digits
	if n == 0 || (n > 1 && p.b[digits] == '0') {
		return 0, false
	}
	if p.i < len(p.b) {
		if c := p.b[p.i]; c == '.' || c == 'e' || c == 'E' {
			return 0, false
		}
	}
	k, err := strconv.Atoi(string(p.b[start:p.i]))
	return k, err == nil
}
