// Package wikigen generates a synthetic Wikipedia-like knowledge base.
//
// The paper runs SQE against the English Wikipedia dump of 2012-07-02.
// That asset (9.5M articles, ~145M links) is not available here, so we
// substitute a deterministic generative model that reproduces the
// structural regularities SQE exploits (see DESIGN.md §2):
//
//   - articles cluster into topics; topics cluster into domains;
//   - semantically related (same-topic) articles are densely and often
//     reciprocally hyperlinked, unrelated articles rarely are;
//   - every article belongs to a topic category plus a few facet
//     categories; categories form a containment DAG
//     (facet/topic → domain → root);
//   - article titles are short n-grams over the topic's core vocabulary,
//     which is exactly why titles of structurally related articles make
//     good expansion features.
//
// Everything is driven by a seeded PRNG, so a given Config always yields
// the identical world — tests and benchmarks are reproducible.
package wikigen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Vocab deterministically manufactures unique pronounceable pseudo-words.
// Using an invented vocabulary (rather than English) keeps term-topic
// assignment exact: a term belongs to precisely the topics we give it to,
// so vocabulary mismatch between queries and documents is controlled, not
// accidental.
type Vocab struct {
	rng  *rand.Rand
	seen map[string]struct{}
}

// NewVocab returns a vocabulary generator seeded with rng.
func NewVocab(rng *rand.Rand) *Vocab {
	return &Vocab{rng: rng, seen: make(map[string]struct{})}
}

var (
	onsets  = []string{"b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "br", "cr", "dr", "gr", "pr", "tr", "st", "sl", "pl", "fl", "gl"}
	nuclei  = []string{"a", "e", "i", "o", "u", "ai", "ea", "io", "ou", "ia"}
	codas   = []string{"", "", "", "n", "r", "s", "l", "t", "m", "nd", "rk", "st"}
	maxTrys = 10000
)

// Word returns a fresh unique word of 2–4 syllables.
func (v *Vocab) Word() string {
	for try := 0; try < maxTrys; try++ {
		sylls := 2 + v.rng.Intn(3)
		var sb strings.Builder
		for s := 0; s < sylls; s++ {
			sb.WriteString(onsets[v.rng.Intn(len(onsets))])
			sb.WriteString(nuclei[v.rng.Intn(len(nuclei))])
			if s == sylls-1 {
				sb.WriteString(codas[v.rng.Intn(len(codas))])
			}
		}
		w := sb.String()
		if _, dup := v.seen[w]; !dup {
			v.seen[w] = struct{}{}
			return w
		}
	}
	// The syllable space is ~10^5 per word length; exhausting it would
	// require a far larger world than any Config we build.
	panic(fmt.Sprintf("wikigen: vocabulary exhausted after %d words", len(v.seen)))
}

// Words returns n fresh unique words.
func (v *Vocab) Words(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = v.Word()
	}
	return out
}
