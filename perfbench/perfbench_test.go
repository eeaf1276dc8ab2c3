package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/benchmarks/bench"
	"repro/internal/core"
	"repro/internal/explore"
)

// testSize keeps the test quick. Random mode keeps the full execution
// count: fewer executions can miss an expected bug, which the verdict
// check would rightly report.
var testSize = size{mcCap: 2_000, execs: full.execs, requests: 16_000}

// benchmarkFile is the part of BENCHMARK.json the test checks against.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// checkMetrics fails unless m holds exactly the metrics declared, each
// with its declared unit.
func checkMetrics(t *testing.T, m metricSet, declared []struct{ Name, Unit string }) {
	t.Helper()
	if len(m.vals) != len(declared) {
		t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(m.vals), len(declared))
	}
	for _, d := range declared {
		got, ok := m.vals[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", d.Name)
		case got.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", d.Name, got.Unit, d.Unit)
		}
	}
}

func newTestRun(t *testing.T, name string) *benchRun {
	t.Helper()
	def, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	b := &benchRun{def: def, root: "..", seed: 1, sz: testSize, out: io.Discard}
	if err := b.setup(setupReps); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMechanismsEngage runs every workload traced and fails if a
// mechanism the benchmark measures never did any work there, so a
// counter stuck at zero shows on the first run.
func TestMechanismsEngage(t *testing.T) {
	f := readBenchmarkFile(t)
	engaged := map[string][]string{
		"mc-ports":      {"explore.snapshot_restores", "explore.cache_probes", "bench.persist_calls", "pmem.ops"},
		"random-corpus": {"bench.persist_calls", "pmem.ops", "explore.pilot_s", "core.violations"},
		"stream-redis":  {"trace.retirements", "trace.retire_s", "bench.persist_calls", "pmem.ops", "explore.pilot_s"},
	}
	for _, def := range workloadDefs {
		t.Run(def.name, func(t *testing.T) {
			b := newTestRun(t, def.name)
			m, err := b.tracedRun(t.TempDir(), machineFingerprint(b.seed))
			if err != nil {
				t.Fatal(err)
			}
			if b.verdictErrors != 0 || b.failed != 0 || b.diverged != "" {
				t.Fatalf("verdict errors %d, failed %d, diverged %q", b.verdictErrors, b.failed, b.diverged)
			}
			checkMetrics(t, m, f.PerLayer)
			for _, name := range engaged[def.name] {
				if m.vals[name].Value <= 0 {
					t.Errorf("%s = %v: mechanism never engaged", name, m.vals[name].Value)
				}
			}
			var share float64
			for _, l := range cpuLayers {
				share += m.vals[l+".cpu_share"].Value
			}
			if share <= 0 || share > 1 {
				t.Errorf("layer cpu shares sum to %v", share)
			}
		})
	}
}

// TestEndToEndMetrics runs one untimed-budget repetition of each
// workload and checks it emits the declared end-to-end metrics, none of
// them zero.
func TestEndToEndMetrics(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, def := range workloadDefs {
		t.Run(def.name, func(t *testing.T) {
			b := newTestRun(t, def.name)
			m, err := b.timedRun(time.Nanosecond)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, m, f.EndToEnd)
			for name, v := range m.vals {
				if v.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, v.Value)
				}
			}
			if b.verdictErrors != 0 || b.failed != 0 {
				t.Fatalf("verdict errors %d, failed %d", b.verdictErrors, b.failed)
			}
		})
	}
}

// TestVerdictCheck covers the known-answer rules on hand-made results.
func TestVerdictCheck(t *testing.T) {
	bug := bench.ExpectedBug{LocSubstr: "entry value"}
	hit := &core.Violation{MissingFlush: &core.StoreRef{Loc: "aof entry value in appendEntry"}}
	other := &core.Violation{MissingFlush: &core.StoreRef{Loc: "dict slot"}}
	capped := &explore.Result{Partial: true, StopReason: "exec-budget"}
	cases := []struct {
		name string
		v    verdict
		res  *explore.Result
		ok   bool
	}{
		{"robust clean", verdict{robust: true}, &explore.Result{}, true},
		{"robust violated", verdict{robust: true}, &explore.Result{Violations: []*core.Violation{other}}, false},
		{"robust violated when capped", verdict{robust: true}, &explore.Result{Partial: true, Violations: []*core.Violation{other}}, false},
		{"expected found", verdict{expected: []bench.ExpectedBug{bug}}, &explore.Result{Violations: []*core.Violation{other, hit}}, true},
		{"expected missed", verdict{expected: []bench.ExpectedBug{bug}}, &explore.Result{Violations: []*core.Violation{other}}, false},
		{"expected missed when capped", verdict{expected: []bench.ExpectedBug{bug}}, capped, true},
		{"non-robust silent", verdict{}, &explore.Result{}, false},
		{"non-robust found", verdict{}, &explore.Result{Violations: []*core.Violation{other}}, true},
	}
	for _, c := range cases {
		if msg := c.v.check(c.res); (msg == "") != c.ok {
			t.Errorf("%s: check = %q, want ok=%v", c.name, msg, c.ok)
		}
	}
}

// TestDivergence checks the traced-run identity check notices each
// quantity the traced run must reproduce.
func TestDivergence(t *testing.T) {
	v := &core.Violation{MissingFlush: &core.StoreRef{Loc: "x"}}
	base := explore.Result{Program: "p", Executions: 10, ExecutionsToAllBugs: 3, Violations: []*core.Violation{v}}
	if d := divergence([]*explore.Result{&base}, []*explore.Result{&base}); d != "" {
		t.Fatalf("identical results diverge: %s", d)
	}
	changes := map[string]func(*explore.Result){
		"executions":  func(r *explore.Result) { r.Executions++ },
		"aborted":     func(r *explore.Result) { r.Aborted++ },
		"to-all-bugs": func(r *explore.Result) { r.ExecutionsToAllBugs++ },
		"violations":  func(r *explore.Result) { r.Violations = nil },
	}
	for name, change := range changes {
		got := base
		change(&got)
		if divergence([]*explore.Result{&base}, []*explore.Result{&got}) == "" {
			t.Errorf("a change in %s went unnoticed", name)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"repro/internal/px86.(*Machine).Store":                         "repro/internal/px86",
		"main.(*timedModel).Store":                                     "main",
		"runtime.mallocgc":                                             "runtime",
		"repro/internal/trace.grow[go.shape.*repro/internal/trace.St]": "repro/internal/trace",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}
