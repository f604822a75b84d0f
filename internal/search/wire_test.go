package search

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// shardFrame is what every shard message's pointer implements.
type shardFrame interface {
	AppendBinary(b []byte) ([]byte, error)
	UnmarshalBinary(data []byte) error
}

// frameKinds are the shard messages, indexed by FuzzShardFrame's first
// input byte.
var frameKinds = []func() shardFrame{
	func() shardFrame { return new(StatsRequest) },
	func() shardFrame { return new(StatsResponse) },
	func() shardFrame { return new(InfoResponse) },
	func() shardFrame { return new(EvalRequest) },
	func() shardFrame { return new(EvalResponse) },
}

// edgeFloats are values a decimal codec could get wrong.
var edgeFloats = []float64{
	math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, // subnormal
	math.MaxFloat64,
	math.Nextafter(DefaultMu, math.Inf(-1)),
	math.Nextafter(DefaultMu, math.Inf(1)),
	0.1 + 0.2,
	math.Inf(-1),
	math.NaN(),
}

// sameBits reports whether a and b are deeply equal, comparing every
// float64 by its bits (-0 is not 0; NaN equals a NaN with its payload).
// A nil slice equals an empty one: the wire encodes both as count 0.
func sameBits(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Interface, reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		if a.Type() != b.Type() {
			return false
		}
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		panic("sameBits: unhandled kind " + a.Kind().String())
	}
}

// wireMessages is one value of every shard message, edge floats in
// every float field, plus a stats request per runTrees tree.
func wireMessages() []shardFrame {
	weights := make([]Node, len(edgeFloats))
	for i := range weights {
		weights[i] = Phrase{Terms: []string{"cable", "car"}}
	}
	edgeTree := Weighted{Children: []Child{
		{Weight: 1, Node: Weight(edgeFloats, weights)},
		{Weight: 0.5, Node: Unordered{Terms: []string{"tram", "", "bridge"}, Width: -3}},
		{Weight: 0.25, Node: Term{Text: "\x00\xff"}},
		{Weight: 0, Node: Phrase{}},
		{Weight: 2, Node: Weighted{}},
	}}
	var msgs []shardFrame
	for _, q := range append(runTrees(runWeights, -1), edgeTree) {
		msgs = append(msgs, &StatsRequest{Query: q})
	}
	var leaves []LeafStats
	var overrides []LeafOverride
	var results []WireResult
	for i, f := range edgeFloats {
		leaves = append(leaves, LeafStats{CF: int64(i) - 1, DF: f})
		overrides = append(overrides, LeafOverride{CF: math.MaxInt64 - int64(i), DF: f, CollProb: -f})
		results = append(results, WireResult{Doc: math.MinInt64 + int64(i), Name: "doc", Score: f})
	}
	eval := func(mu float64) *EvalRequest {
		return &EvalRequest{
			Query: edgeTree, K: 10, Model: int(ModelJelinekMercer),
			Mu: mu, Lambda: math.Copysign(0, -1), K1: math.SmallestNonzeroFloat64, B: math.MaxFloat64,
			DisablePruning: true, NumDocs: math.MaxInt32, TotalToks: math.MaxInt64, Overrides: overrides,
		}
	}
	wantStats := eval(math.Nextafter(DefaultMu, 0))
	wantStats.DisablePruning, wantStats.WantStats = false, true
	return append(msgs,
		&StatsResponse{Leaves: leaves},
		&StatsResponse{},
		&InfoResponse{Shard: 1, NumShards: 2, NumDocs: math.MaxInt32, TotalToks: math.MaxInt64},
		eval(math.Nextafter(DefaultMu, math.Inf(1))),
		wantStats,
		&EvalRequest{Query: Term{Text: "cable"}},
		&EvalResponse{Results: results, Stats: &WireEvalStats{
			CandidatesExamined: 1, PostingsAdvanced: -2, DocsSkipped: math.MaxInt64, BoundEvaluations: math.MinInt64,
			BlocksDecoded: 5, BlocksTotal: 6, HeapPushes: 7, HeapEvictions: 8,
		}},
		&EvalResponse{},
	)
}

// TestShardFrameRoundTrip: every shard message decodes to a value equal
// to the encoded one bit for bit, floats included, and re-encodes to the
// same bytes.
func TestShardFrameRoundTrip(t *testing.T) {
	for i, m := range wireMessages() {
		data, err := m.AppendBinary(nil)
		if err != nil {
			t.Fatalf("message %d (%T): %v", i, m, err)
		}
		back := reflect.New(reflect.TypeOf(m).Elem()).Interface().(shardFrame)
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatalf("message %d (%T): decode: %v", i, m, err)
		}
		if !sameBits(reflect.ValueOf(m), reflect.ValueOf(back)) {
			t.Fatalf("message %d (%T): round trip changed it:\n got %+v\nwant %+v", i, m, back, m)
		}
		again, err := back.AppendBinary(nil)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("message %d (%T): re-encoding differs (%v)", i, m, err)
		}
	}
}

// TestEvalBodyIsEvalRequest: the coordinator's eval body — phase A's
// encoded tree plus the parameters — is byte for byte the encoding of
// the same EvalRequest carrying the tree.
func TestEvalBodyIsEvalRequest(t *testing.T) {
	for _, m := range wireMessages() {
		req, ok := m.(*EvalRequest)
		if !ok {
			continue
		}
		want, err := req.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := StatsRequest{Query: req.Query}.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := evalBody{tree: tree, req: req}.AppendBinary(nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("eval body over the encoded tree differs from the request's encoding (%v)", err)
		}
	}
}

// FuzzShardFrame: the first byte picks a shard message, the rest is its
// body. Whatever a decoder accepts must re-encode to exactly the input —
// one encoding per value, so nothing a shard accepts can mean two things.
func FuzzShardFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := frameKinds[int(data[0])%len(frameKinds)]()
		if m.UnmarshalBinary(data[1:]) != nil {
			return
		}
		got, err := m.AppendBinary(nil)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", m, err)
		}
		if !bytes.Equal(got, data[1:]) {
			t.Fatalf("%T re-encodes differently:\n got %x\nwant %x", m, got, data[1:])
		}
	})
}
