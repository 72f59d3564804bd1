// Command perfbench is the repository's benchmark: it drives one
// workload through the public APIs of the admission service (resd,
// reswire, wal, tenant, obs) or the paper's simulator (sim), checks the
// outputs, and prints its metrics as one JSON line.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload wire-churn --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate
// traced run and prints the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome: operations attempted, hard failures and
// the metrics.
type report struct {
	attempted, failed uint64
	metrics           map[string]metric
}

var workloadNames = []string{"wire-churn", "deep-deadline", "durable-mixed", "paper-sim"}

func run(workload string, seed uint64, d time.Duration, trace bool) (*report, error) {
	var sp *svcSpec
	switch workload {
	case "wire-churn":
		sp = wireChurn
	case "deep-deadline":
		sp = deepDeadline
	case "durable-mixed":
		sp = durableMixed
	case "paper-sim":
		if trace {
			return layersSim(seed, d)
		}
		return e2eSim(seed, d)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	dir, err := workDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if trace {
		return layersService(sp, seed, d, dir)
	}
	return e2eService(sp, seed, d, dir)
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	// One process of load on at most two OS threads running Go code.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	rep, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, k := range slices.Sorted(maps.Keys(rep.metrics)) {
		fmt.Printf("%-34s %14.4f %s\n", k, rep.metrics[k].Value, rep.metrics[k].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, max(rep.attempted, 1), rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
