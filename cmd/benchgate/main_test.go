package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkCapacityIndex/backend=array/n=1000-8         	  265486	      4508 ns/op
BenchmarkCapacityIndex/backend=tree/n=1000            	  388441	      3080 ns/op
BenchmarkCapacityIndex/backend=tree/n=10000-8         	  175087	      6587 ns/op
BenchmarkResdThroughput/backend=tree/shards=8-4       	   39044	      6569 ns/op	     320 B/op	       9 allocs/op
BenchmarkResdThroughput/backend=tree/shards=1         	   10000	     24906.5 ns/op	     512 B/op	      12.5 allocs/op
PASS
ok  	repro	5.701s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		want measurement
	}{
		// -GOMAXPROCS suffix stripped, no allocs column:
		{"BenchmarkCapacityIndex/backend=array/n=1000", measurement{ns: 4508}},
		// no suffix (GOMAXPROCS=1):
		{"BenchmarkCapacityIndex/backend=tree/n=1000", measurement{ns: 3080}},
		{"BenchmarkCapacityIndex/backend=tree/n=10000", measurement{ns: 6587}},
		// B/op + allocs/op tail parsed:
		{"BenchmarkResdThroughput/backend=tree/shards=8", measurement{ns: 6569, allocs: 9, hasAllocs: true}},
		// fractional ns/op and allocs/op:
		{"BenchmarkResdThroughput/backend=tree/shards=1", measurement{ns: 24906.5, allocs: 12.5, hasAllocs: true}},
	}
	if len(got) != len(cases) {
		t.Fatalf("parsed %d entries, want %d: %v", len(got), len(cases), got)
	}
	for _, c := range cases {
		if got[c.name] != c.want {
			t.Errorf("%s = %+v, want %+v", c.name, got[c.name], c.want)
		}
	}
}

func TestParseBenchAverages(t *testing.T) {
	// -count N, in-bench interleaved rounds (Go tags the repeats #01,
	// #02, ...), or the same filter run several times repeat lines; the
	// gates want the mean under the base name, not whichever run came
	// last.
	const repeated = `
BenchmarkObsOverhead/obs=off 	  100	 7000 ns/op
BenchmarkObsOverhead/obs=off#01-4 	  100	 9000 ns/op
BenchmarkWireThroughput/clients=1/pipeline=on 	 100	 26000 ns/op	 512 B/op	 30 allocs/op
BenchmarkWireThroughput/clients=1/pipeline=on 	 100	 28000 ns/op	 512 B/op	 34 allocs/op
BenchmarkResdThroughput/backend=tree/shards=8 	 100	 6000 ns/op	 320 B/op	 9 allocs/op
BenchmarkResdThroughput/backend=tree/shards=8 	 100	 6200 ns/op
`
	got, err := parseBench(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	if m := got["BenchmarkObsOverhead/obs=off"]; m.ns != 8000 || m.hasAllocs {
		t.Errorf("obs=off = %+v, want mean 8000 ns/op without allocs", m)
	}
	if m := got["BenchmarkWireThroughput/clients=1/pipeline=on"]; m.ns != 27000 || !m.hasAllocs || m.allocs != 32 {
		t.Errorf("wire = %+v, want mean 27000 ns/op and 32 allocs/op", m)
	}
	// One repeat missing the allocs column poisons the alloc average: the
	// name keeps its ns mean but loses hasAllocs, and the alloc gate
	// reports it as missing rather than averaging apples with oranges.
	if m := got["BenchmarkResdThroughput/backend=tree/shards=8"]; m.ns != 6100 || m.hasAllocs {
		t.Errorf("resd = %+v, want mean 6100 ns/op without allocs", m)
	}
}

func TestGate(t *testing.T) {
	rows := []row{
		{Name: "BenchmarkCapacityIndex/backend=tree/n=1000", NsPerOp: 3000},
		{Name: "BenchmarkCapacityIndex/backend=tree/n=10000", NsPerOp: 6500},
	}
	cases := []struct {
		name      string
		measured  map[string]measurement
		threshold float64
		wantOK    bool
		wantMark  string
	}{
		{
			name: "within threshold",
			measured: map[string]measurement{
				"BenchmarkCapacityIndex/backend=tree/n=1000":  {ns: 5900},
				"BenchmarkCapacityIndex/backend=tree/n=10000": {ns: 6400},
			},
			threshold: 2, wantOK: true, wantMark: "ok",
		},
		{
			name: "regression fails",
			measured: map[string]measurement{
				"BenchmarkCapacityIndex/backend=tree/n=1000":  {ns: 6100},
				"BenchmarkCapacityIndex/backend=tree/n=10000": {ns: 6400},
			},
			threshold: 2, wantOK: false, wantMark: "FAIL",
		},
		{
			name: "missing benchmark fails",
			measured: map[string]measurement{
				"BenchmarkCapacityIndex/backend=tree/n=1000": {ns: 3000},
			},
			threshold: 2, wantOK: false, wantMark: "MISSING",
		},
		{
			name: "tight threshold",
			measured: map[string]measurement{
				"BenchmarkCapacityIndex/backend=tree/n=1000":  {ns: 3200},
				"BenchmarkCapacityIndex/backend=tree/n=10000": {ns: 6500},
			},
			threshold: 1.05, wantOK: false, wantMark: "FAIL",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			report, ok := gate(c.measured, rows, c.threshold)
			if ok != c.wantOK {
				t.Fatalf("ok = %v, want %v\n%s", ok, c.wantOK, strings.Join(report, "\n"))
			}
			if len(report) != len(rows) {
				t.Fatalf("report has %d lines, want %d", len(report), len(rows))
			}
			joined := strings.Join(report, "\n")
			if !strings.Contains(joined, c.wantMark) {
				t.Fatalf("report lacks %q:\n%s", c.wantMark, joined)
			}
		})
	}
}

func TestGateAllocs(t *testing.T) {
	const name = "BenchmarkWireThroughput/clients=1/pipeline=on"
	rows := []row{{Name: name, NsPerOp: 26000, AllocsPerOp: 20}}
	run := func(m measurement) ([]string, bool) {
		return gate(map[string]measurement{name: m}, rows, 2)
	}
	if report, ok := run(measurement{ns: 26000, allocs: 21, hasAllocs: true}); !ok {
		t.Fatalf("within alloc threshold must pass:\n%s", strings.Join(report, "\n"))
	}
	if report, ok := run(measurement{ns: 26000, allocs: 41, hasAllocs: true}); ok || !strings.Contains(strings.Join(report, "\n"), "FAIL") {
		t.Fatalf("alloc regression past threshold must fail:\n%s", strings.Join(report, "\n"))
	}
	// A benchmark that stopped reporting allocations cannot pass the gate
	// vacuously.
	if report, ok := run(measurement{ns: 26000}); ok || !strings.Contains(strings.Join(report, "\n"), "MISSING") {
		t.Fatalf("missing allocs column must fail:\n%s", strings.Join(report, "\n"))
	}
	// Near-zero baselines get a +2 absolute floor so one stray allocation
	// cannot flap the gate.
	tiny := []row{{Name: name, NsPerOp: 26000, AllocsPerOp: 1}}
	report, ok := gate(map[string]measurement{name: {ns: 26000, allocs: 3, hasAllocs: true}}, tiny, 2)
	if !ok {
		t.Fatalf("tiny baseline within the +2 floor must pass:\n%s", strings.Join(report, "\n"))
	}
	report, ok = gate(map[string]measurement{name: {ns: 26000, allocs: 3.5, hasAllocs: true}}, tiny, 2)
	if ok {
		t.Fatalf("tiny baseline past the +2 floor must fail:\n%s", strings.Join(report, "\n"))
	}
	// record_only rows are never held to their figures, allocations
	// included.
	rows[0].RecordOnly = true
	if report, ok := run(measurement{ns: 9e9, allocs: 400, hasAllocs: true}); !ok {
		t.Fatalf("record_only row must not be gated:\n%s", strings.Join(report, "\n"))
	}
}

// ratioRows is a ratio family: base plus one row per variant, each held
// to maxRatio of base. Absolute baselines are generous so only the ratio
// rule can fire.
func ratioRows(base string, variants []string, maxRatio float64) []row {
	rows := []row{{Name: base, NsPerOp: 1e6}}
	for _, v := range variants {
		rows = append(rows, row{Name: v, NsPerOp: 1e6, RatioTo: base, MaxRatio: maxRatio})
	}
	return rows
}

func TestGateObsRatio(t *testing.T) {
	const off = "BenchmarkObsOverhead/obs=off"
	variants := []string{"BenchmarkObsOverhead/obs=on", "BenchmarkObsOverhead/obs=watch",
		"BenchmarkObsOverhead/obs=flight", "BenchmarkObsOverhead/obs=slo"}
	rows := ratioRows(off, variants, 1.05)
	within := map[string]measurement{
		off:         {ns: 7000},
		variants[0]: {ns: 7200},
		variants[1]: {ns: 7300},
		variants[2]: {ns: 7250},
		variants[3]: {ns: 7280},
	}
	report, ok := gate(within, rows, 2)
	if !ok || len(report) != 1+2*len(variants) {
		t.Fatalf("within budget: ok=%v report=%v", ok, report)
	}
	// Each variant past the budget fails on its own: a watcher, the armed
	// flight recorder or a live SLO engine taxing the admission path fails
	// even when the plain instrumented run is fine.
	for _, v := range variants {
		over := map[string]measurement{}
		for k, m := range within {
			over[k] = m
		}
		over[v] = measurement{ns: 8000}
		report, ok := gate(over, rows, 2)
		if ok || len(failures(report)) != 1 || !strings.Contains(failures(report)[0], v+" / "+off) {
			t.Fatalf("%s over budget: ok=%v report=%v", v, ok, report)
		}
	}
	// Missing rows are reported once, as MISSING, with no ratio line.
	report, ok = gate(map[string]measurement{}, rows, 2)
	if ok || len(report) != len(rows) {
		t.Fatalf("missing family: ok=%v report=%v", ok, report)
	}
	for _, line := range report {
		if !strings.HasPrefix(line, "MISSING") {
			t.Fatalf("missing family: unexpected line %q", line)
		}
	}
}

func TestGateWalRatio(t *testing.T) {
	const off, buffered, fsync = "BenchmarkWALOverhead/wal=off", "BenchmarkWALOverhead/wal=buffered", "BenchmarkWALOverhead/wal=fsync"
	rows := append(ratioRows(off, []string{buffered}, 1.5), row{Name: fsync, NsPerOp: 30000, RecordOnly: true})
	within := map[string]measurement{off: {ns: 7000}, buffered: {ns: 8000}, fsync: {ns: 30000}}
	if report, ok := gate(within, rows, 2); !ok || len(report) != 4 {
		t.Fatalf("within budget: ok=%v report=%v", ok, report)
	}
	// The fsync figure is reported but never gated, no matter how slow.
	within[fsync] = measurement{ns: 9e9}
	if report, ok := gate(within, rows, 2); !ok {
		t.Fatalf("a slow fsync row must not fail the gate: %v", report)
	}
	over := map[string]measurement{off: {ns: 7000}, buffered: {ns: 12000}, fsync: {ns: 30000}}
	if report, ok := gate(over, rows, 2); ok || !strings.Contains(strings.Join(failures(report), "\n"), buffered+" / "+off) {
		t.Fatalf("over budget: ok=%v report=%v", ok, report)
	}
	// A missing fsync row fails: presence is the only check it gets.
	delete(within, fsync)
	if report, ok := gate(within, rows, 2); ok || !strings.HasPrefix(strings.Join(failures(report), "\n"), "MISSING "+fsync) {
		t.Fatalf("missing fsync row: ok=%v report=%v", ok, report)
	}
}

// failures keeps the report lines that are not ok.
func failures(report []string) []string {
	var out []string
	for _, line := range report {
		if !strings.HasPrefix(line, "ok") {
			out = append(out, line)
		}
	}
	return out
}

// plant renders rows as `go test -bench` output at their recorded
// figures after edit has adjusted them (deleting a name drops its line).
func plant(rows []row, edit func(m map[string]measurement)) string {
	m := map[string]measurement{}
	for _, r := range rows {
		m[r.Name] = measurement{ns: r.NsPerOp, allocs: r.AllocsPerOp, hasAllocs: r.AllocsPerOp > 0}
	}
	edit(m)
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	var b strings.Builder
	for name, x := range m {
		fmt.Fprintf(&b, "%s-4 \t     100\t %s ns/op", name, f(x.ns))
		if x.hasAllocs {
			fmt.Fprintf(&b, "\t     512 B/op\t %s allocs/op", f(x.allocs))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestCommittedBaseline(t *testing.T) {
	// Loaded from the recorded file at the repository root, so a schema
	// drift or a retired gate breaks this test before it breaks CI.
	rows, err := loadRows("../../BENCH.json")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]row{}
	var nsGates, allocGates int
	ratios := map[string]string{}
	var recordOnly []string
	for _, r := range rows {
		byName[r.Name] = r
		if r.RecordOnly {
			recordOnly = append(recordOnly, r.Name)
		} else {
			nsGates++
			if r.AllocsPerOp > 0 {
				allocGates++
			}
		}
		if r.RatioTo != "" {
			ratios[r.Name] = fmt.Sprintf("%s ≤ %v×", r.RatioTo, r.MaxRatio)
		}
	}
	if nsGates != 30 || allocGates != 10 {
		t.Errorf("gated set: %d ns rows and %d allocs rows, want 30 and 10", nsGates, allocGates)
	}
	wantRatios := map[string]string{
		"BenchmarkObsOverhead/obs=on":       "BenchmarkObsOverhead/obs=off ≤ 1.05×",
		"BenchmarkObsOverhead/obs=watch":    "BenchmarkObsOverhead/obs=off ≤ 1.05×",
		"BenchmarkObsOverhead/obs=flight":   "BenchmarkObsOverhead/obs=off ≤ 1.05×",
		"BenchmarkObsOverhead/obs=slo":      "BenchmarkObsOverhead/obs=off ≤ 1.05×",
		"BenchmarkWALOverhead/wal=buffered": "BenchmarkWALOverhead/wal=off ≤ 1.5×",
	}
	if fmt.Sprint(ratios) != fmt.Sprint(wantRatios) {
		t.Errorf("ratio gates = %v, want %v", ratios, wantRatios)
	}
	for _, name := range recordOnly {
		if name != "BenchmarkWALOverhead/wal=fsync" && !strings.HasPrefix(name, "BenchmarkCapacityIndex/backend=array/") &&
			!strings.HasPrefix(name, "BenchmarkResdThroughput/backend=array/") {
			t.Errorf("record_only row %s: only the capacity-index and resd array rows and wal=fsync go ungated", name)
		}
	}
	if !byName["BenchmarkWALOverhead/wal=fsync"].RecordOnly {
		t.Error("wal=fsync must be a present-only row")
	}

	check := func(t *testing.T, out string, wantOK bool, wantBad string) {
		t.Helper()
		measured, err := parseBench(strings.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		report, ok := gate(measured, rows, 2)
		bad := strings.Join(failures(report), "\n")
		if ok != wantOK || (wantBad != "" && !strings.Contains(bad, wantBad)) {
			t.Fatalf("ok = %v, want %v (failure naming %q):\n%s", ok, wantOK, wantBad, strings.Join(report, "\n"))
		}
	}
	t.Run("recorded figures pass", func(t *testing.T) {
		check(t, plant(rows, func(map[string]measurement) {}), true, "")
	})
	t.Run("record_only rows are not gated on speed", func(t *testing.T) {
		check(t, plant(rows, func(m map[string]measurement) {
			for _, name := range recordOnly {
				m[name] = measurement{ns: m[name].ns * 10, allocs: m[name].allocs * 10, hasAllocs: m[name].hasAllocs}
			}
		}), true, "")
	})
	for _, r := range rows {
		if !r.RecordOnly {
			t.Run("2.1x "+r.Name, func(t *testing.T) {
				check(t, plant(rows, func(m map[string]measurement) {
					x := m[r.Name]
					x.ns *= 2.1
					m[r.Name] = x
				}), false, r.Name+": ")
			})
		}
		if !r.RecordOnly && r.AllocsPerOp > 0 {
			limit := max(2*r.AllocsPerOp, r.AllocsPerOp+2)
			setAllocs := func(v float64) func(m map[string]measurement) {
				return func(m map[string]measurement) {
					x := m[r.Name]
					x.allocs = v
					m[r.Name] = x
				}
			}
			t.Run("allocs at limit "+r.Name, func(t *testing.T) {
				check(t, plant(rows, setAllocs(limit)), true, "")
			})
			t.Run("allocs over limit "+r.Name, func(t *testing.T) {
				check(t, plant(rows, setAllocs(limit+0.5)), false, r.Name+": ")
			})
		}
		if r.RatioTo != "" {
			t.Run("over max_ratio "+r.Name, func(t *testing.T) {
				check(t, plant(rows, func(m map[string]measurement) {
					m[r.Name] = measurement{ns: m[r.RatioTo].ns * (r.MaxRatio + 0.01)}
				}), false, r.Name+" / "+r.RatioTo)
			})
		}
		t.Run("missing "+r.Name, func(t *testing.T) {
			check(t, plant(rows, func(m map[string]measurement) { delete(m, r.Name) }), false, "MISSING "+r.Name)
		})
	}
	// The two budgets at the figures the overhead claims name.
	ratioAt := func(name, base string, ratio float64) func(m map[string]measurement) {
		return func(m map[string]measurement) { m[name] = measurement{ns: m[base].ns * ratio} }
	}
	t.Run("obs=slo at 1.06x obs=off", func(t *testing.T) {
		check(t, plant(rows, ratioAt("BenchmarkObsOverhead/obs=slo", "BenchmarkObsOverhead/obs=off", 1.06)),
			false, "BenchmarkObsOverhead/obs=slo / BenchmarkObsOverhead/obs=off")
	})
	t.Run("wal=buffered at 1.6x wal=off", func(t *testing.T) {
		check(t, plant(rows, ratioAt("BenchmarkWALOverhead/wal=buffered", "BenchmarkWALOverhead/wal=off", 1.6)),
			false, "BenchmarkWALOverhead/wal=buffered / BenchmarkWALOverhead/wal=off")
	})
}

func TestLoadRowsRejects(t *testing.T) {
	cases := map[string]string{
		"ratio_to names no row":    `{"rows":[{"name":"BenchmarkA","ns_per_op":1,"ratio_to":"BenchmarkB","max_ratio":1.5}]}`,
		"ratio_to names itself":    `{"rows":[{"name":"BenchmarkA","ns_per_op":1,"ratio_to":"BenchmarkA","max_ratio":1.5}]}`,
		"max_ratio of 1":           `{"rows":[{"name":"BenchmarkA","ns_per_op":1},{"name":"BenchmarkB","ns_per_op":1,"ratio_to":"BenchmarkA","max_ratio":1}]}`,
		"max_ratio below 1":        `{"rows":[{"name":"BenchmarkA","ns_per_op":1},{"name":"BenchmarkB","ns_per_op":1,"ratio_to":"BenchmarkA","max_ratio":0.5}]}`,
		"ratio_to without budget":  `{"rows":[{"name":"BenchmarkA","ns_per_op":1},{"name":"BenchmarkB","ns_per_op":1,"ratio_to":"BenchmarkA"}]}`,
		"max_ratio without target": `{"rows":[{"name":"BenchmarkA","ns_per_op":1,"max_ratio":1.5}]}`,
		"duplicate row":            `{"rows":[{"name":"BenchmarkA","ns_per_op":1},{"name":"BenchmarkA","ns_per_op":2}]}`,
		"unnamed row":              `{"rows":[{"ns_per_op":1}]}`,
		"zero ns_per_op":           `{"rows":[{"name":"BenchmarkA","ns_per_op":0}]}`,
		"unknown field":            `{"rows":[{"name":"BenchmarkA","ns_per_op":1,"recordonly":true}]}`,
		"no rows":                  `{"rows":[]}`,
	}
	dir := t.TempDir()
	for name, doc := range cases {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "_")+".json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadRows(path); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
	path := filepath.Join(dir, "ok.json")
	if err := os.WriteFile(path, []byte(`{"rows":[{"name":"BenchmarkA","ns_per_op":1},{"name":"BenchmarkB","ns_per_op":1,"ratio_to":"BenchmarkA","max_ratio":1.01}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadRows(path); err != nil {
		t.Errorf("valid file: %v", err)
	}
}
