package kb_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/kb"
	"repro/internal/wikigen"
)

// TestDecodeEncodeIdentityDefaultWorld: decoding the default world's
// encoding rebuilds the graph the generator built, field for field —
// titles, the title index, and all six relations, the reverse ones that
// Decode derives by transposition included.
func TestDecodeEncodeIdentityDefaultWorld(t *testing.T) {
	w, err := wikigen.Generate(wikigen.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := kb.Encode(&buf, w.Graph); err != nil {
		t.Fatal(err)
	}
	g, err := kb.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, w.Graph) {
		t.Fatal("Decode(Encode(g)) differs from g")
	}
}
