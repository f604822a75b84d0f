package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "qps", Better: "higher", Bound: 0.10}
	steady := func(x float64) []float64 { return []float64{x, x * 1.01, x * 0.99, x, x * 1.005} }
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady(2), steady(2), verdictOK},
		{"slower within the bound", lower, steady(2), steady(2.15), verdictOK},
		{"slower beyond the bound", lower, steady(2), steady(2.3), verdictWorse},
		{"faster", lower, steady(2), steady(1), verdictOK},
		{"throughput down beyond the bound", higher, steady(1000), steady(850), verdictWorse},
		{"throughput up", higher, steady(1000), steady(1500), verdictOK},
		{"a side that disagrees with itself", lower, []float64{1, 2, 3, 4, 5}, steady(9), verdictUnresolved},
		{"single runs", lower, []float64{2}, []float64{2.5}, verdictWorse},
	}
	for _, c := range cases {
		if _, _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if ratio, _, _ := verdict(lower, steady(2), steady(3)); ratio != 1.5 {
		t.Errorf("ratio = %v, want 1.5 (B over A)", ratio)
	}
}

func TestCompareSets(t *testing.T) {
	write := func(dir string, seed int64, qps float64, valid bool) {
		t.Helper()
		r := &result{Workload: wlSearchHot, Correct: true, Valid: valid, Env: env{Seed: seed},
			EndToEnd: map[string]float64{"qps": qps, "p50_ms": 1, "setup_s": 0.1, "cpu_ms_per_req": 1, "rss_peak_mb": 70, "disk_bytes_per_doc": 62}}
		if err := writeResult(dir, r); err != nil {
			t.Fatal(err)
		}
	}
	root := t.TempDir()
	a, b, c := filepath.Join(root, "a"), filepath.Join(root, "b"), filepath.Join(root, "c")
	for seed := int64(1); seed <= 3; seed++ {
		write(a, seed, 1000+float64(seed), true)
		write(b, seed, 1010+float64(seed), true)
		write(c, seed, 700+float64(seed), seed != 2)
	}
	var out bytes.Buffer
	worse, err := compareSets(&out, a, b)
	if err != nil || worse {
		t.Fatalf("a against b: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "search-hot") || strings.Contains(out.String(), verdictWorse) {
		t.Errorf("unexpected table:\n%s", out.String())
	}
	out.Reset()
	worse, err = compareSets(&out, a, c)
	if err != nil || !worse {
		t.Fatalf("a against c: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "0 run(s) of A and 1 of B are marked invalid") {
		t.Errorf("an invalid run went unmentioned:\n%s", out.String())
	}
	if _, err := compareSets(&out, a, filepath.Join(root, "none")); err == nil {
		t.Error("an empty directory compared without error")
	}
}
