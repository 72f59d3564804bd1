// Command benchgate is the CI bench-regression gate: it parses `go test
// -bench` output and holds it to the rows recorded in BENCH.json,
// failing (exit 1) when any row is missing or over its limit.
//
// Usage:
//
//	go test -run '^$' -bench 'CapacityIndex|ResdThroughput|WireThroughput|TenantThroughput|Rebalance|ObsOverhead|WALOverhead' \
//	    -benchtime=0.2s . | tee bench.out
//	benchgate -bench bench.out -threshold 2
//
// BENCH.json holds {"rows": [...]}. Each row names one sub-benchmark as
// the bench output prints it (without the -GOMAXPROCS suffix) and
// records its ns_per_op; the optional fields shape its gate:
//
//	allocs_per_op  recorded allocations, gated when positive
//	record_only    measured but never gated on its figures
//	ratio_to       another row this one is divided by, in the same run
//	max_ratio      the budget for that ratio (> 1)
//
// One rule set applies to every row:
//
//   - the row must appear in the bench output, so the gate cannot pass
//     vacuously when a rename silently empties the -bench filter;
//   - unless record_only, ns/op may exceed ns_per_op by at most the
//     -threshold factor;
//   - unless record_only, a row that records allocs_per_op holds the
//     measured allocations to max(threshold×, +2) and requires the
//     allocs column: allocation regressions are machine-independent
//     and often invisible to the ns gate on a fast runner;
//   - a ratio_to row's measured ns/op divided by its named row's may
//     not exceed max_ratio. Both figures come from the same run, so the
//     ratio is immune to machine speed and carries a much tighter
//     budget than the absolute threshold: the obs on/watch/flight/slo
//     rows against obs=off (instrumentation costs < 5%), wal=buffered
//     against wal=off (group commit, not one syscall per admission).
//
// record_only marks the capacity-index and admission-service
// array-backend rows, which exist to show the tree's win, and wal=fsync,
// whose figure tracks the machine's storage rather than this code.
//
// The threshold is deliberately generous (default 2×): the gate exists to
// catch algorithmic regressions — an accidental O(n) scan reintroduced on
// the tree path shows up as 10×+ — not to police machine-to-machine
// noise.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// benchLine matches one benchmark result line, e.g.
//
//	BenchmarkCapacityIndex/backend=tree/n=10000-8   175087   6587 ns/op
//	BenchmarkWireThroughput/clients=1/pipeline=off  45872   26884 ns/op   512 B/op   12 allocs/op
//
// The trailing -N (GOMAXPROCS) is optional: Go omits it when procs is 1.
// A #NN tag before it is the suffix Go appends when a benchmark runs the
// same sub-benchmark name several times (BenchmarkObsOverhead's
// interleaved rounds do); it is stripped, so the rounds average under
// the base name. The B/op + allocs/op tail appears when the benchmark
// calls b.ReportAllocs (or the run passes -benchmem).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:#\d+)?(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

// measurement is one parsed benchmark result. allocs is only meaningful
// when hasAllocs is set — a benchmark without ReportAllocs prints no
// allocs/op column at all, which is different from measuring zero.
type measurement struct {
	ns        float64
	allocs    float64
	hasAllocs bool
}

// parseBench extracts name → measurement from `go test -bench` output.
// Names keep their sub-benchmark path but drop the -GOMAXPROCS and #NN
// repeat suffixes. Repeated lines for the same name (-count N, in-bench
// interleaved rounds, or the same filter run several times) are averaged:
// the ratio gates divide figures measured minutes apart, and averaging
// over repeated interleaved runs is what keeps a drifting CI machine from
// minting fake overhead on whichever sub-benchmark ran last. hasAllocs
// holds only if every repeat reported the allocs column.
func parseBench(r io.Reader) (map[string]measurement, error) {
	type acc struct {
		ns, allocs float64
		n, nAllocs int
	}
	sums := map[string]*acc{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchgate: bad ns/op in %q: %w", sc.Text(), err)
		}
		a := sums[m[1]]
		if a == nil {
			a = &acc{}
			sums[m[1]] = a
		}
		a.ns += ns
		a.n++
		if m[4] != "" {
			allocs, err := strconv.ParseFloat(m[4], 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: bad allocs/op in %q: %w", sc.Text(), err)
			}
			a.allocs += allocs
			a.nAllocs++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]measurement, len(sums))
	for name, a := range sums {
		meas := measurement{ns: a.ns / float64(a.n)}
		if a.nAllocs == a.n {
			meas.allocs, meas.hasAllocs = a.allocs/float64(a.nAllocs), true
		}
		out[name] = meas
	}
	return out, nil
}

// row is one BENCH.json row; see the package comment for its fields.
type row struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	RecordOnly  bool    `json:"record_only"`
	RatioTo     string  `json:"ratio_to"`
	MaxRatio    float64 `json:"max_ratio"`
}

// loadRows reads and validates a baseline file: unknown fields, unnamed,
// duplicate or non-positive rows, a ratio_to naming no row and a
// max_ratio that is not a budget (≤ 1, or set without ratio_to) are
// errors, so a hand edit cannot quietly retire a gate.
func loadRows(path string) ([]row, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Rows []row `json:"rows"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("benchgate: %s: %w", path, err)
	}
	if len(doc.Rows) == 0 {
		return nil, fmt.Errorf("benchgate: %s: no rows", path)
	}
	names := make(map[string]bool, len(doc.Rows))
	for _, r := range doc.Rows {
		switch {
		case r.Name == "":
			return nil, fmt.Errorf("benchgate: %s: row without a name", path)
		case names[r.Name]:
			return nil, fmt.Errorf("benchgate: %s: duplicate row %s", path, r.Name)
		case r.NsPerOp <= 0:
			return nil, fmt.Errorf("benchgate: %s: %s: ns_per_op must be positive, got %v", path, r.Name, r.NsPerOp)
		}
		names[r.Name] = true
	}
	for _, r := range doc.Rows {
		switch {
		case r.RatioTo == "" && r.MaxRatio != 0:
			return nil, fmt.Errorf("benchgate: %s: %s: max_ratio without ratio_to", path, r.Name)
		case r.RatioTo == "":
		case !names[r.RatioTo] || r.RatioTo == r.Name:
			return nil, fmt.Errorf("benchgate: %s: %s: ratio_to %q names no other row", path, r.Name, r.RatioTo)
		case r.MaxRatio <= 1:
			return nil, fmt.Errorf("benchgate: %s: %s: max_ratio must be > 1, got %v", path, r.Name, r.MaxRatio)
		}
	}
	return doc.Rows, nil
}

// gate applies the rule set to every row and returns one report line per
// check plus the verdict. A ratio whose named row is missing adds no line:
// that row's own MISSING line already fails the gate.
func gate(measured map[string]measurement, rows []row, threshold float64) (report []string, ok bool) {
	ok = true
	line := func(pass bool, format string, args ...any) {
		mark := "ok      "
		if !pass {
			mark, ok = "FAIL    ", false
		}
		report = append(report, mark+fmt.Sprintf(format, args...))
	}
	for _, r := range rows {
		got, found := measured[r.Name]
		if !found {
			report = append(report, fmt.Sprintf("MISSING %s (baseline %.0f ns/op, not in bench output)", r.Name, r.NsPerOp))
			ok = false
			continue
		}
		if r.RecordOnly {
			line(true, "%s: %.0f ns/op (recorded, not gated)", r.Name, got.ns)
		} else {
			pass := got.ns <= r.NsPerOp*threshold
			line(pass, "%s: %.0f ns/op vs baseline %.0f (%.2f×, limit %.2f×)",
				r.Name, got.ns, r.NsPerOp, got.ns/r.NsPerOp, threshold)
		}
		if !r.RecordOnly && r.AllocsPerOp > 0 {
			limit := max(r.AllocsPerOp*threshold, r.AllocsPerOp+2)
			if !got.hasAllocs {
				report = append(report, fmt.Sprintf("MISSING %s allocs/op (baseline %.1f, bench output has no allocs column)",
					r.Name, r.AllocsPerOp))
				ok = false
			} else {
				line(got.allocs <= limit, "%s: %.1f allocs/op vs baseline %.1f (limit %.1f)",
					r.Name, got.allocs, r.AllocsPerOp, limit)
			}
		}
		if base, found := measured[r.RatioTo]; r.RatioTo != "" && found {
			ratio := got.ns / base.ns
			line(ratio <= r.MaxRatio, "%s / %s = %.0f/%.0f ns/op = %.3f× (max_ratio %.2f×)",
				r.Name, r.RatioTo, got.ns, base.ns, ratio, r.MaxRatio)
		}
	}
	return report, ok
}

func run() error {
	benchPath := flag.String("bench", "", "go test -bench output file (required; - for stdin)")
	baselinePath := flag.String("baseline", "BENCH.json", "recorded bench rows")
	threshold := flag.Float64("threshold", 2.0, "allowed slowdown factor vs baseline")
	flag.Parse()

	if *benchPath == "" {
		return fmt.Errorf("benchgate: -bench is required")
	}
	if *threshold <= 0 {
		return fmt.Errorf("benchgate: -threshold must be positive, got %v", *threshold)
	}
	var in io.Reader = os.Stdin
	if *benchPath != "-" {
		f, err := os.Open(*benchPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	measured, err := parseBench(in)
	if err != nil {
		return err
	}
	rows, err := loadRows(*baselinePath)
	if err != nil {
		return err
	}
	report, ok := gate(measured, rows, *threshold)
	fmt.Println(strings.Join(report, "\n"))
	if !ok {
		return fmt.Errorf("benchgate: bench regression gate failed (threshold %.2f×)", *threshold)
	}
	fmt.Printf("benchgate: %d rows within their limits (threshold %.2f×)\n", len(rows), *threshold)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
