package main

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
)

// Verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"      // B's median is worse than A's by more than the bound
	verdictUnresolved = "unresolved" // the runs of one side disagree by more than the bound
)

// resultSet is the end-to-end values of one directory of results:
// workload → metric → one value per valid run.
type resultSet struct {
	values  map[string]map[string][]float64
	invalid map[string]int  // per workload, runs marked valid:false and left out
	wrong   map[string]bool // workloads with a run that failed its oracle
}

func loadResultSet(dir string) (*resultSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "result-*-e2e-seed*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end result files", dir)
	}
	sort.Strings(paths)
	set := &resultSet{values: map[string]map[string][]float64{}, invalid: map[string]int{}, wrong: map[string]bool{}}
	for _, p := range paths {
		var r result
		if err := readJSON(p, &r); err != nil {
			return nil, err
		}
		if set.values[r.Workload] == nil {
			set.values[r.Workload] = map[string][]float64{}
		}
		set.wrong[r.Workload] = set.wrong[r.Workload] || !r.Correct
		if !r.Valid {
			// A run that broke a precondition (a host slow phase mid-run,
			// say) measured something else; its numbers stay out.
			set.invalid[r.Workload]++
			continue
		}
		for name, v := range r.EndToEnd {
			set.values[r.Workload][name] = append(set.values[r.Workload][name], v)
		}
	}
	return set, nil
}

// verdict judges B against A on one metric: a and b are each side's
// values, one per run.
func verdict(d metricDef, a, b []float64) (ratio, spreadMax float64, v string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		ratio = mb / ma
	}
	spreadMax = max(spread(a), spread(b))
	worseBy := ratio - 1
	if d.Better == "higher" {
		worseBy = 1 - ratio
	}
	switch {
	case spreadMax > d.Bound:
		v = verdictUnresolved
	case worseBy > d.Bound:
		v = verdictWorse
	default:
		v = verdictOK
	}
	return ratio, spreadMax, v
}

// compareSets prints one row per (workload, end-to-end metric) with both
// medians, the ratio B/A and its verdict against the metric's bound, and
// reports whether any row is worse.
func compareSets(w io.Writer, dirA, dirB string) (worse bool, err error) {
	a, err := loadResultSet(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadResultSet(dirB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s, B = %s; ratio is B/A (base A), spread is the wider interquartile range over median of the two sides\n", dirA, dirB)
	fmt.Fprintf(w, "%-16s %-20s %4s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "runs", "median A", "median B", "B/A", "spread", "bound", "verdict")
	for _, wl := range workloadNames {
		if a.values[wl] == nil || b.values[wl] == nil {
			continue
		}
		if n, m := a.invalid[wl], b.invalid[wl]; n+m > 0 {
			fmt.Fprintf(w, "%-16s %d run(s) of A and %d of B are marked invalid and left out\n", wl, n, m)
		}
		for _, d := range endToEnd {
			va, vb := a.values[wl][d.Name], b.values[wl][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-20s %2d/%-2d %s (a side has no valid run)\n", wl, d.Name, len(va), len(vb), verdictUnresolved)
				continue
			}
			ratio, sp, v := verdict(d, va, vb)
			switch {
			case a.wrong[wl] || b.wrong[wl]:
				v = verdictWorse + " (a run failed its oracle)"
				worse = true
			case v == verdictWorse:
				worse = true
			}
			fmt.Fprintf(w, "%-16s %-20s %2d/%-2d %14.4f %14.4f %8.4f %8.4f %7.2f  %s\n",
				wl, d.Name, len(va), len(vb), median(va), median(vb), ratio, sp, d.Bound, v)
		}
	}
	return worse, nil
}
