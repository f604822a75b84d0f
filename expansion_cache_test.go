package sqe

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// ablation names one expander/matcher configuration under test.
type ablation struct {
	name  string
	apply func(e *core.Expander)
}

var parityAblations = []ablation{
	{"paper-defaults", func(e *core.Expander) {}},
	{"single-link", func(e *core.Expander) { e.Matcher().RequireReciprocal = false }},
	{"no-categories", func(e *core.Expander) { e.Matcher().UseCategories = false }},
	{"uniform-capped", func(e *core.Expander) {
		e.UniformFeatureWeights = true
		e.MaxFeatures = 4
	}},
}

// TestExpansionCacheParity: under every matcher/expander ablation an
// engine with an expansion cache serves, for every query and motif set,
// the expansion a cache-less engine's live motif search returns — on the
// pass that fills the cache and on the pass the cache answers alone.
// (That a ranking built on a cached expansion is the oracle's is
// TestDifferential's lru rows.)
func TestExpansionCacheParity(t *testing.T) {
	base := theWorld(t).env
	sets := []MotifSet{MotifT, MotifTS, MotifS}
	for _, ab := range parityAblations {
		t.Run(ab.name, func(t *testing.T) {
			live := NewEngine(base.Engine.Graph(), base.Engine.Index())
			ab.apply(live.Expander())
			cached := NewEngine(base.Engine.Graph(), base.Engine.Index(), WithExpansionCache(4096))
			ab.apply(cached.Expander())
			for pass := 1; pass <= 2; pass++ {
				before, _ := cached.ExpansionCacheStats()
				for _, set := range sets {
					for _, q := range base.Queries {
						want, err := live.Expand(q.Text, q.EntityTitles, set)
						if err != nil {
							t.Fatalf("live %s set %v: %v", q.ID, set, err)
						}
						got, err := cached.Expand(q.Text, q.EntityTitles, set)
						if err != nil {
							t.Fatalf("cached %s set %v: %v", q.ID, set, err)
						}
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("pass %d query %s set %v: cached expansion differs", pass, q.ID, set)
						}
					}
				}
				after, _ := cached.ExpansionCacheStats()
				asks := int64(len(sets) * len(base.Queries))
				if pass == 2 && (after.Hits-before.Hits != asks || after.Misses != before.Misses) {
					t.Fatalf("second pass was not all hits: %+v before, %+v after %d asks", before, after, asks)
				}
			}
		})
	}
}
