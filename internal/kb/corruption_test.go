package kb

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// corruptions derives n damaged copies of a valid encoding: each one a
// flipped byte, a truncation, or four flipped bytes, in turn.
func corruptions(valid []byte, n int) [][]byte {
	rng := rand.New(rand.NewSource(42))
	out := make([][]byte, n)
	for trial := range out {
		data := append([]byte(nil), valid...)
		switch trial % 3 {
		case 0: // flip a byte
			data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
		case 1: // truncate
			data = data[:rng.Intn(len(data))]
		case 2: // flip several bytes
			for i := 0; i < 4; i++ {
				data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
			}
		}
		out[trial] = data
	}
	return out
}

// TestDecodeCorruptionRobust flips bytes of a valid encoding at random
// offsets and asserts the decoder fails cleanly (error, not panic) or
// decodes to *some* valid graph — truncations and corruptions never
// crash the process. This is the failure-injection counterpart to the
// round-trip tests.
func TestDecodeCorruptionRobust(t *testing.T) {
	g, _ := buildTestGraph(t)
	var buf bytes.Buffer
	if err := Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	for trial, data := range corruptions(buf.Bytes(), 500) {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: decoder panicked: %v", trial, r)
				}
			}()
			_, _ = Decode(bytes.NewReader(data))
		}()
	}
}

// FuzzKBDecode feeds arbitrary bytes to Decode. The contract under
// hostile input: an error or a graph — never a panic, never an
// allocation the input's own bytes do not back — and a graph Decode
// accepts re-encodes to bytes that decode to an equal graph. Seeds are
// valid encodings, their truncations, and the corruption suite's damage.
func FuzzKBDecode(f *testing.F) {
	g, _ := buildTestGraph(f)
	var buf bytes.Buffer
	if err := Encode(&buf, g); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	for _, n := range []int{0, len(magic), len(magic) + 1, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	for _, data := range corruptions(valid, 30) {
		f.Add(data)
	}
	for seed := range int64(3) {
		var rb bytes.Buffer
		if err := Encode(&rb, randomGraph(rand.New(rand.NewSource(seed)))); err != nil {
			f.Fatal(err)
		}
		f.Add(rb.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := Encode(&re, g); err != nil {
			t.Fatal(err)
		}
		g2, err := Decode(&re)
		if err != nil {
			t.Fatalf("re-encoded graph does not decode: %v", err)
		}
		if !reflect.DeepEqual(g, g2) {
			t.Fatal("re-encoded graph decodes to a different graph")
		}
	})
}
