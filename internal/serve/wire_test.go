package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"

	sqe "repro"
)

// stdJSON is what the reply path wrote before the encoders:
// json.Encoder without HTML escaping.
func stdJSON(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func encoded(v jsonReply) (string, error) {
	var e encoder
	v.appendJSON(&e)
	return string(e.b), e.err
}

func checkEncoder(t *testing.T, v jsonReply) {
	t.Helper()
	got, err := encoded(v)
	if err != nil {
		t.Fatalf("%#v: %v", v, err)
	}
	if want := stdJSON(t, v); got != want {
		t.Fatalf("encoder differs from encoding/json:\n got %q\nwant %q", got, want)
	}
}

var awkwardStrings = []string{
	"", "plain", `quote " and \ backslash`, "tab\tnewline\nreturn\rback\bfeed\f",
	"\x00\x01\x1f\x7f", "<script>&amp;</script>", "\xff\xfe bad utf-8 \xc3",
	"trunc\xe2\x80", "line\u2028para\u2029sep", "naïve Zürich 東京 🎉", "e\u0301",
}

var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 42, 1e-6, 9.99999e-7, -1e-6, 1e-7, 1e20, 1e21,
	-1e21, 123456789e13, 0.1, 1.0 / 3, 2.5e-10, 1e-300, 5e-324, math.MaxFloat64,
	12.345, 1e6, 100, float64(1 << 53),
}

// TestEncodersMatchEncodingJSON: every reply type's encoder writes the
// bytes encoding/json writes, over awkward strings, floats at the
// format switches, nil and empty slices and a non-nil empty
// Degradation.
func TestEncodersMatchEncodingJSON(t *testing.T) {
	for _, s := range awkwardStrings {
		checkEncoder(t, apiError{Err: errorBody{Code: s, Message: s}})
		checkEncoder(t, &expandResponse{Query: s, Set: s, QueryNodeTitles: []string{s, s}, Features: []featureJSON{{Title: s, Weight: 1}}})
		checkEncoder(t, &searchResponse{Query: s, Entities: []string{s}, Set: s, Results: []resultJSON{{Name: s}}})
		checkEncoder(t, &healthzResponse{Status: s})
	}
	for _, f := range awkwardFloats {
		checkEncoder(t, &searchResponse{Results: []resultJSON{{Rank: 1, Score: f}}, TookMs: f})
		checkEncoder(t, &expandResponse{Features: []featureJSON{{Weight: f}}, TookMs: f})
		checkEncoder(t, &ingestResponse{TookMs: f})
		checkEncoder(t, &healthzResponse{UptimeS: f})
	}
	for _, n := range []int{0, 1, -1, 1000, math.MaxInt64, math.MinInt64} {
		checkEncoder(t, &searchResponse{K: n, Results: []resultJSON{{Rank: n}}})
		checkEncoder(t, &ingestResponse{Added: n, Deleted: n, Segments: n, BufferDocs: n, LiveDocs: n, Tombstones: n})
		checkEncoder(t, &healthzResponse{InFlight: int64(n)})
	}
	for _, v := range []jsonReply{
		&searchResponse{},
		&searchResponse{Entities: []string{}, Results: []resultJSON{}},
		&searchResponse{Degraded: &sqe.Degradation{}},
		&searchResponse{Degraded: &sqe.Degradation{DroppedShards: []int{}, ShardErrors: []string{}}},
		&searchResponse{Degraded: &sqe.Degradation{DroppedShards: []int{0, 3}, ShardErrors: []string{"a", "b\n"}, ExpansionFallbacks: 2, Retries: 1}},
		&searchResponse{Degraded: &sqe.Degradation{Retries: 3}},
		&searchResponse{Degraded: &sqe.Degradation{ExpansionFallbacks: 1}},
		&expandResponse{},
		&expandResponse{QueryNodeTitles: []string{}, Features: []featureJSON{}},
		&ingestResponse{Flushed: true},
		&ingestResponse{Compacted: true},
		&ingestResponse{Flushed: true, Compacted: true},
	} {
		checkEncoder(t, v)
	}
}

// TestEncodersMatchEncodingJSONRandom: random replies built from random
// bytes, runes and float bit patterns.
func TestEncodersMatchEncodingJSONRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	str := func() string {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			switch rng.Intn(3) {
			case 0:
				b[i] = byte(rng.Intn(256))
			default:
				b[i] = byte(0x20 + rng.Intn(0x5f))
			}
		}
		if rng.Intn(4) == 0 {
			return string(b) + string(rune(rng.Intn(0x30000)))
		}
		return string(b)
	}
	num := func() float64 {
		for {
			var f float64
			switch rng.Intn(3) {
			case 0:
				f = math.Float64frombits(rng.Uint64())
			case 1:
				f = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
			default:
				f = float64(rng.Intn(2000)) / 1000
			}
			if !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	strs := func() []string {
		if rng.Intn(4) == 0 {
			return nil
		}
		out := make([]string, rng.Intn(3))
		for i := range out {
			out[i] = str()
		}
		return out
	}
	for i := 0; i < 2000; i++ {
		sr := &searchResponse{Query: str(), Entities: strs(), Set: str(), K: rng.Intn(2000) - 10, TookMs: num()}
		if rng.Intn(4) > 0 {
			sr.Results = make([]resultJSON, rng.Intn(4))
			for j := range sr.Results {
				sr.Results[j] = resultJSON{Rank: j + 1, Name: str(), Score: num()}
			}
		}
		if rng.Intn(3) == 0 {
			sr.Degraded = &sqe.Degradation{ShardErrors: strs(), ExpansionFallbacks: rng.Intn(2), Retries: rng.Intn(2)}
			for j := rng.Intn(3); j > 0; j-- {
				sr.Degraded.DroppedShards = append(sr.Degraded.DroppedShards, rng.Intn(8))
			}
		}
		checkEncoder(t, sr)
		er := &expandResponse{Query: str(), Set: str(), QueryNodeTitles: strs(), TookMs: num()}
		if rng.Intn(4) > 0 {
			er.Features = make([]featureJSON, rng.Intn(4))
			for j := range er.Features {
				er.Features[j] = featureJSON{Title: str(), Weight: num()}
			}
		}
		checkEncoder(t, er)
		checkEncoder(t, &ingestResponse{Added: rng.Int(), Deleted: -rng.Int(), Flushed: rng.Intn(2) == 0,
			Compacted: rng.Intn(2) == 0, Segments: rng.Intn(9), TookMs: num()})
		checkEncoder(t, apiError{Err: errorBody{Code: str(), Message: str()}})
		checkEncoder(t, &healthzResponse{InFlight: rng.Int63(), Status: str(), UptimeS: num()})
	}
}

// decodeBoth decodes body over a request pre-filled as query parameters
// would fill it, once as the server does (parseRequest, else
// decodeJSON) and once with the decoder every body went through before
// the parser. It reports whether the parser took the body.
func decodeBoth(body []byte) (got, want request, gotErr, wantErr error, parsed bool) {
	prefill := func() request {
		return request{Query: "from-url", Entities: []string{"u1", "u2", "u3"}, K: 7, Set: "T"}
	}
	want = prefill()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	wantErr = dec.Decode(&want)
	got = prefill()
	if parsed = parseRequest(body, &got); !parsed {
		gotErr = decodeJSON(body, nil, &got)
	}
	return got, want, gotErr, wantErr, parsed
}

var requestSeeds = []string{
	`{"query":"cable cars","entities":["Cable car","San Francisco"],"set":"TS"}`,
	`{"query": "x", "k": 10}`,
	` { "k" : -3 , "query" : "" } `,
	`{}`, `{"entities":[]}`, `{"entities":null}`, `{"entities":["a",null]}`, `{"query":null}`,
	`{"query":"a","query":"b","entities":["x"],"entities":["y","z"]}`,
	`{"k":1.5}`, `{"k":1e2}`, `{"k":"ten"}`, `{"k":01}`, `{"k":-0}`, `{"k":99999999999999999999}`,
	`{"k":9223372036854775807}`, `{"k":-}`, `{"k":10,}`, `{,}`, `{"query":"x"}garbage`,
	`{"query":"x"} {"query":"y"}`, `{"QUERY":"x"}`, `{"entites":["x"]}`, `{"query":"a\"b\\cé"}`,
	`{"query":"` + "\x01" + `"}`, `{"query":"` + "\xff" + `"}`, `{"query":"naïve 東京"}`,
	`null`, `[]`, `"query"`, ``, `   `, `{"query":"x"`, `{"query":["x"]}`, `{"entities":"x"}`,
	`{"entities":["a" "b"]}`, `{"query":"x",}`, "{\"query\":\"x\"}\n", `{"set":"T&S"}`,
}

// TestParseRequestAgreesWithDecoder runs decodeBoth over the seed
// bodies.
func TestParseRequestAgreesWithDecoder(t *testing.T) {
	parsedAny := false
	for _, body := range requestSeeds {
		got, want, gotErr, wantErr, parsed := decodeBoth([]byte(body))
		parsedAny = parsedAny || parsed
		if err := agree(got, want, gotErr, wantErr, parsed); err != nil {
			t.Errorf("%q: %v", body, err)
		}
	}
	if !parsedAny {
		t.Fatal("the parser took none of the seeds")
	}
}

func agree(got, want request, gotErr, wantErr error, parsed bool) error {
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return fmt.Errorf("error %v, decoder's %v (parser took it: %v)", gotErr, wantErr, parsed)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		return fmt.Errorf("decoded %+v, decoder's %+v (parser took it: %v)", got, want, parsed)
	}
	return nil
}

// FuzzDecodeRequest: the server's body decoding and the decoder it
// replaced accept and reject the same bodies and decode the same
// request from those they accept.
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, want, gotErr, wantErr, parsed := decodeBoth(body)
		if err := agree(got, want, gotErr, wantErr, parsed); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDecodeRequestReadErrorAsBefore: when reading the body fails part
// way (the body cap), the decoder still sees the bytes read and then the
// failure, so a value complete before the cap decodes and one cut by it
// reports the cap.
func TestDecodeRequestReadErrorAsBefore(t *testing.T) {
	s, _ := testServer(t, Config{MaxBodyBytes: 32})
	for body, wantCode := range map[string]int{
		`{"query":"x"}` + strings.Repeat(" ", 64):     http.StatusOK,
		`{"query":"` + strings.Repeat("x", 64) + `"}`: http.StatusRequestEntityTooLarge,
	} {
		w := do(t, s, http.MethodPost, "/v1/baseline", body)
		if w.Code != wantCode {
			t.Errorf("%d-byte body: status %d, want %d: %s", len(body), w.Code, wantCode, w.Body.String())
		}
	}
}
