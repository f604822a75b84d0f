package search

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The shard methods' bodies (DESIGN.md §10) are hand-encoded: every
// message implements AppendBinary (the shape of encoding.BinaryAppender)
// and encoding.BinaryUnmarshaler, which internal/rpc prefers to JSON.
// Counts and lengths are uvarints, other integers zigzag varints, floats
// their 8 raw IEEE-754 bits little-endian — so every float, -0 and NaN
// included, crosses bit-exactly — and strings are uvarint-length-
// prefixed bytes.
//
// A query tree is encoded pre-order, one kind byte per node:
//
//	Term       kindTerm       text
//	Phrase     kindPhrase     uvarint(n) n×term
//	Unordered  kindUnordered  uvarint(n) n×term  varint(width)
//	Weighted   kindWeighted   uvarint(n) n×(float(weight) node)
//
// Terms are ALREADY analyzed when the tree is built and cross verbatim:
// the shard must not re-analyze them (stemming is not idempotent), so
// the tree it flattens is the tree the coordinator encoded.
//
// Every value has one encoding, so a frame that decodes re-encodes to
// the same bytes (FuzzShardFrame). The decoder refuses non-minimal
// varints, unknown node kinds and flags, truncated fields, trailing
// bytes, counts larger than the bytes left could hold, and trees nested
// deeper than maxWireDepth.

// Query node kinds.
const (
	kindTerm byte = 1 + iota
	kindPhrase
	kindUnordered
	kindWeighted
)

// EvalRequest flag bits.
const (
	evalDisablePruning byte = 1 << iota
	evalWantStats
)

// maxWireDepth bounds a query tree's nesting on the wire, so a hostile
// frame cannot recurse the decoder off its stack. The trees the engine
// builds are a few levels deep.
const maxWireDepth = 1000

// maxPrealloc caps any allocation sized by a count read off the wire;
// longer slices grow by append as their elements actually decode.
const maxPrealloc = 1 << 12

// The fewest bytes one element of each repeated field encodes to. A
// count whose elements could not fit in the bytes left is refused before
// anything is allocated.
const (
	minChildBytes    = 9  // weight, kind
	minLeafBytes     = 1  // cf
	minOverrideBytes = 9  // cf, collProb
	minResultBytes   = 10 // doc, name length, score
)

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

// appendNode appends n's pre-order encoding; depth is n's nesting level,
// 1 at the root.
func appendNode(b []byte, n Node, depth int) ([]byte, error) {
	if depth > maxWireDepth {
		return nil, fmt.Errorf("search: query tree nested deeper than %d", maxWireDepth)
	}
	switch x := n.(type) {
	case Term:
		return appendString(append(b, kindTerm), x.Text), nil
	case Phrase:
		return appendStrings(append(b, kindPhrase), x.Terms), nil
	case Unordered:
		return binary.AppendVarint(appendStrings(append(b, kindUnordered), x.Terms), int64(x.Width)), nil
	case Weighted:
		b = binary.AppendUvarint(append(b, kindWeighted), uint64(len(x.Children)))
		for _, c := range x.Children {
			var err error
			if b, err = appendNode(appendFloat(b, c.Weight), c.Node, depth+1); err != nil {
				return nil, err
			}
		}
		return b, nil
	default:
		return nil, fmt.Errorf("search: cannot encode %T for the wire", n)
	}
}

// wireReader decodes one body. Its error is sticky: after the first
// failure every read returns a zero value, so a decoder checks once, at
// done.
type wireReader struct {
	buf []byte
	off int
	err error
	// str is buf as one string, made at the first non-empty string read:
	// decoded strings are substrings of it, one copy per body.
	str string
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("search: shard frame: "+format, args...)
	}
}

func (r *wireReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n == 0:
		r.fail("truncated at byte %d", r.off)
		return 0
	case n < 0:
		r.fail("varint overflows at byte %d", r.off)
		return 0
	case n > 1 && r.buf[r.off+n-1] == 0:
		r.fail("non-minimal varint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// int reads a varint that must fit an int.
func (r *wireReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail("%d overflows int", v)
		return 0
	}
	return int(v)
}

func (r *wireReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.off < 8 {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

// count reads an element count, refusing one whose elements, at
// minBytes each, could not fit in the bytes left.
func (r *wireReader) count(minBytes int) int {
	n := r.uvarint()
	if left := uint64(len(r.buf) - r.off); n > left/uint64(minBytes) {
		r.fail("count %d exceeds the %d bytes left", n, left)
		return 0
	}
	return int(n)
}

func (r *wireReader) string() string {
	n := r.count(1)
	if n == 0 {
		return ""
	}
	if r.str == "" {
		r.str = string(r.buf)
	}
	s := r.str[r.off : r.off+n]
	r.off += n
	return s
}

func (r *wireReader) strings() []string {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, 0, min(n, maxPrealloc))
	for i := 0; i < n && r.err == nil; i++ {
		ss = append(ss, r.string())
	}
	return ss
}

// node decodes one query tree, depth being its nesting level.
func (r *wireReader) node(depth int) Node {
	if depth > maxWireDepth {
		r.fail("query tree nested deeper than %d", maxWireDepth)
		return nil
	}
	switch kind := r.byte(); kind {
	case kindTerm:
		return Term{Text: r.string()}
	case kindPhrase:
		return Phrase{Terms: r.strings()}
	case kindUnordered:
		return Unordered{Terms: r.strings(), Width: r.int()}
	case kindWeighted:
		n := r.count(minChildBytes)
		w := Weighted{Children: make([]Child, 0, min(n, maxPrealloc))}
		for i := 0; i < n && r.err == nil; i++ {
			w.Children = append(w.Children, Child{Weight: r.float(), Node: r.node(depth + 1)})
		}
		return w
	default:
		r.fail("unknown query node kind %d", kind)
		return nil
	}
}

// done reports the first decoding error, or trailing bytes.
func (r *wireReader) done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.fail("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

// AppendBinary implements encoding.BinaryAppender: the body is the
// query tree alone.
func (req StatsRequest) AppendBinary(b []byte) ([]byte, error) {
	return appendNode(b, req.Query, 1)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (req *StatsRequest) UnmarshalBinary(data []byte) error {
	r := wireReader{buf: data}
	req.Query = r.node(1)
	return r.done()
}

// AppendBinary implements encoding.BinaryAppender.
func (resp StatsResponse) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(resp.Leaves)))
	for _, l := range resp.Leaves {
		b = binary.AppendVarint(b, l.CF)
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (resp *StatsResponse) UnmarshalBinary(data []byte) error {
	r := wireReader{buf: data}
	n := r.count(minLeafBytes)
	resp.Leaves = make([]LeafStats, 0, min(n, maxPrealloc))
	for i := 0; i < n && r.err == nil; i++ {
		resp.Leaves = append(resp.Leaves, LeafStats{CF: r.varint()})
	}
	return r.done()
}

// AppendBinary implements encoding.BinaryAppender.
func (info InfoResponse) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendVarint(b, int64(info.Shard))
	b = binary.AppendVarint(b, int64(info.NumShards))
	return binary.AppendVarint(b, info.TotalToks), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (info *InfoResponse) UnmarshalBinary(data []byte) error {
	r := wireReader{buf: data}
	*info = InfoResponse{Shard: r.int(), NumShards: r.int(), TotalToks: r.varint()}
	return r.done()
}

// AppendBinary implements encoding.BinaryAppender: the query tree, then
// the fields appendParams writes.
func (req EvalRequest) AppendBinary(b []byte) ([]byte, error) {
	b, err := appendNode(b, req.Query, 1)
	if err != nil {
		return nil, err
	}
	return req.appendParams(b), nil
}

// appendParams appends everything of an eval body after the tree.
func (req *EvalRequest) appendParams(b []byte) []byte {
	b = appendFloat(binary.AppendVarint(b, int64(req.K)), req.Mu)
	var flags byte
	if req.DisablePruning {
		flags |= evalDisablePruning
	}
	if req.WantStats {
		flags |= evalWantStats
	}
	b = binary.AppendUvarint(append(b, flags), uint64(len(req.Overrides)))
	for _, o := range req.Overrides {
		b = appendFloat(binary.AppendVarint(b, o.CF), o.CollProb)
	}
	return b
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (req *EvalRequest) UnmarshalBinary(data []byte) error {
	r := wireReader{buf: data}
	*req = EvalRequest{Query: r.node(1), K: r.int(), Mu: r.float()}
	flags := r.byte()
	if flags&^(evalDisablePruning|evalWantStats) != 0 {
		r.fail("unknown eval flags %#x", flags)
	}
	req.DisablePruning = flags&evalDisablePruning != 0
	req.WantStats = flags&evalWantStats != 0
	n := r.count(minOverrideBytes)
	req.Overrides = make([]LeafOverride, 0, min(n, maxPrealloc))
	for i := 0; i < n && r.err == nil; i++ {
		req.Overrides = append(req.Overrides, LeafOverride{CF: r.varint(), CollProb: r.float()})
	}
	return r.done()
}

// AppendBinary implements encoding.BinaryAppender: the results, then a
// 0/1 marker and, after a 1, the eight counters.
func (resp EvalResponse) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(resp.Results)))
	for _, res := range resp.Results {
		b = appendFloat(appendString(binary.AppendVarint(b, res.Doc), res.Name), res.Score)
	}
	s := resp.Stats
	if s == nil {
		return append(b, 0), nil
	}
	b = append(b, 1)
	for _, v := range [...]int64{s.CandidatesExamined, s.PostingsAdvanced, s.DocsSkipped, s.BoundEvaluations,
		s.BlocksDecoded, s.BlocksTotal, s.HeapPushes, s.HeapEvictions} {
		b = binary.AppendVarint(b, v)
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (resp *EvalResponse) UnmarshalBinary(data []byte) error {
	r := wireReader{buf: data}
	n := r.count(minResultBytes)
	resp.Results = make([]WireResult, 0, min(n, maxPrealloc))
	for i := 0; i < n && r.err == nil; i++ {
		resp.Results = append(resp.Results, WireResult{Doc: r.varint(), Name: r.string(), Score: r.float()})
	}
	resp.Stats = nil
	switch marker := r.byte(); marker {
	case 0:
	case 1:
		resp.Stats = &WireEvalStats{
			CandidatesExamined: r.varint(),
			PostingsAdvanced:   r.varint(),
			DocsSkipped:        r.varint(),
			BoundEvaluations:   r.varint(),
			BlocksDecoded:      r.varint(),
			BlocksTotal:        r.varint(),
			HeapPushes:         r.varint(),
			HeapEvictions:      r.varint(),
		}
	default:
		r.fail("stats marker %d", marker)
	}
	return r.done()
}

// encodedTree is a query tree in its wire encoding, which is also a
// complete shard.stats body. remotePartition.stats encodes the tree
// once and keeps the bytes as its prepared handle.
type encodedTree []byte

// AppendBinary implements encoding.BinaryAppender.
func (t encodedTree) AppendBinary(b []byte) ([]byte, error) { return append(b, t...), nil }

// evalBody is a shard.eval body over an already encoded tree: the same
// bytes as req.AppendBinary with req.Query set to the tree.
type evalBody struct {
	tree encodedTree
	req  *EvalRequest
}

// AppendBinary implements encoding.BinaryAppender.
func (e evalBody) AppendBinary(b []byte) ([]byte, error) {
	return e.req.appendParams(append(b, e.tree...)), nil
}
