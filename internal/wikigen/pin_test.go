package wikigen

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/kb"
)

// TestGeneratedWorldsPinned pins the encoded graph of every named
// world. The experiments' golden files (testdata/golden/) are ranked
// over these worlds, so a generator change that moves one byte of them
// must fail here first, not surface as a golden diff.
func TestGeneratedWorldsPinned(t *testing.T) {
	for _, w := range []struct {
		name string
		cfg  Config
		sha  string
	}{
		{"default", DefaultConfig(), "c0ccec3ca21abf43cceecf95fdd4230254f5fdd995d13e3705432293ca583096"},
		{"small", SmallConfig(), "3e29bbe0be94bc9dc921913f754578ec20d90d9e570c161b71b60d86c3ab0c69"},
		{"ontology", OntologyConfig(), "6f464acf428ba00c2a673c620a82d536a38fc5c4c5d99712b7e60bf3646027cd"},
	} {
		h := sha256.New()
		if err := kb.Encode(h, MustGenerate(w.cfg).Graph); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != w.sha {
			t.Errorf("%s world: kb.Encode SHA-256 %s, pinned %s", w.name, got, w.sha)
		}
	}
}
