// Command sqe-e2e is the end-to-end benchmark of the SQE serving stack:
// a closed-loop HTTP load over four serving shapes, each checked reply by
// reply against an oracle, plus a traced in-process replay that splits a
// request's time by layer. See README.md.
//
//	bash bench/run.sh --workload search-hot --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --all                 # every workload, both modes
//	bash bench/run.sh --all --trace 1       # traced runs only
//	bash bench/run.sh --compare dirA dirB   # two result sets against the bounds
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sqe-e2e: "+format+"\n", args...)
}

func main() {
	workload := flag.String("workload", "", "workload to run: search-hot | expand-wide | live-mixed | coordinator-s2")
	seed := flag.Int64("seed", 1, "seed of the request streams")
	seconds := flag.Int("seconds", 20, "length of the measured phase, seconds")
	trace := flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: the traced run's per-layer metrics (default with -all: both)")
	all := flag.Bool("all", false, "run every workload and print every metric")
	compare := flag.Bool("compare", false, "compare two result directories (arguments: dirA dirB) against the bounds")
	out := flag.String("out", filepath.Join("bench", "out"), "directory the result files go to")
	serveChildFlag := flag.String("serve-child", "", "internal: serve this workload's shape until stdin closes")
	data := flag.String("data", "", "internal: prepared data directory of -serve-child")
	segs := flag.String("segments", "", "internal: segment directory of -serve-child")
	flag.Parse()

	switch {
	case *serveChildFlag != "":
		if err := serveChild(*serveChildFlag, *data, *segs); err != nil {
			logf("server: %v", err)
			os.Exit(1)
		}
	case *compare:
		if flag.NArg() != 2 {
			logf("-compare wants two result directories")
			os.Exit(2)
		}
		worse, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			logf("%v", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
	case *all:
		correct, valid := true, true
		for _, wl := range workloadNames {
			for _, traced := range []bool{false, true} {
				if *trace >= 0 && traced != (*trace == 1) {
					continue
				}
				r, err := runAndStore(wl, *seed, *seconds, traced, *out)
				if err != nil {
					logf("%s: %v", wl, err)
					os.Exit(1)
				}
				printResult(os.Stdout, r)
				correct, valid = correct && r.Correct, valid && r.Valid
			}
		}
		if !valid {
			logf("a run broke a workload precondition (see its notes): its numbers are not to be used")
		}
		if !correct {
			logf("an oracle check failed")
			os.Exit(1)
		}
	default:
		known := false
		for _, wl := range workloadNames {
			known = known || wl == *workload
		}
		if !known || *seconds < 1 || *trace > 1 {
			flag.Usage()
			os.Exit(2)
		}
		r, err := runAndStore(*workload, *seed, *seconds, *trace == 1, *out)
		if err != nil {
			logf("%s: %v", *workload, err)
			os.Exit(1)
		}
		printResult(os.Stderr, r)
		fmt.Println(contractLine(r))
	}
}

func runAndStore(wl string, seed int64, seconds int, traced bool, out string) (*result, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	r, err := runWorkload(wl, seed, seconds, traced)
	if err != nil {
		return nil, err
	}
	return r, writeResult(out, r)
}

// commitID is the VCS revision the binary was built from, when the build
// saw one (a driver's checkout is not a repository).
func commitID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 7 {
				return s.Value[:7]
			}
		}
	}
	return "unknown"
}
