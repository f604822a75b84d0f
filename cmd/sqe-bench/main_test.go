package main

import (
	"strings"
	"testing"
)

func TestParseExperiments(t *testing.T) {
	for _, c := range []struct {
		spec string
		want []string // nil: the spec must be rejected
	}{
		{"all", []string{"all"}},
		{"tab1", []string{"tab1"}},
		{"tab1,tab2,fig2", []string{"tab1", "tab2", "fig2"}},
		{"ablation mining", []string{"ablation", "mining"}},
		{"tab1, all", []string{"tab1", "all"}},
		{"bogus", nil},
		{"tab1,bogus", nil},
		{"tab", nil},     // the old substring filter matched nothing and exited 0
		{"pruning", nil}, // retired with the second benchmark system
	} {
		got, err := parseExperiments(c.spec)
		if c.want == nil {
			if err == nil {
				t.Errorf("%q: accepted as %v, want an error", c.spec, got)
			} else if !strings.Contains(err.Error(), "valid: all, fig2, ") {
				t.Errorf("%q: error %q does not list the valid names", c.spec, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.spec, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("%q: parsed %v, want %v", c.spec, got, c.want)
		}
		for _, name := range c.want {
			if !got[name] {
				t.Errorf("%q: %s not selected in %v", c.spec, name, got)
			}
		}
	}
}
