// Command perfbench is PSan-Go's benchmark: the time to reach every
// verdict on three workloads, with each verdict checked against a known
// answer, plus a traced run that splits the time by layer.
//
//	bash perfbench/run.sh --workload mc-ports --seed 1 --seconds 30 --trace 0
//
// run.sh builds this package from the checkout and runs it from the
// checkout's root. BENCHMARK.json at the root names the workloads and
// metrics and says why each workload was chosen.
//
// With --trace 0 the command repeats the workload for --seconds and
// reports the end-to-end metrics as medians over the repetitions. With
// --trace 1 it runs the workload once untraced and once with every
// campaign's program and persistency backend wrapped in timers, checks
// that both runs explored identically, and reports the per-layer
// metrics. The last line of standard output is the JSON result; the
// exit code is non-zero when a verdict disagrees with its known answer,
// an execution failed, or the traced run diverged. Every output starts
// with a machine fingerprint (CPU model, nproc, GOMAXPROCS, Go version,
// seed): numbers from different machines are not comparable.
//
// What is measured, and what is not:
//
//   - verdict_errors and failed_share are printed on their own lines and
//     carried by the result's "correct", "failed" and "attempted"
//     fields, not listed as end-to-end metrics: they must be 0, and an
//     end-to-end metric must never be.
//   - Peak heap (trace.peak_heap_mb) and ops/s (pmem.ops_per_s) are
//     per-layer, not end-to-end. Peak heap spreads by more than a tenth
//     between identical runs, and on mc-ports snapshot restores change
//     how many operations are simulated, so a change that restores more
//     would read as slower ops/s while finishing sooner.
//   - The persist.* metrics and trace.retire_s cover every world's
//     backend calls, the random-mode pilot's included; pmem.phase_s
//     leaves out the pilot's phases, which explore.pilot_s reports.
//   - internal/dispatch is not measured: it runs campaigns in several
//     processes, and scale-out is not this benchmark's subject.
//   - The Servers() ports stay out of random-corpus: at registry size
//     they duplicate the kvstore rows, and slabcache's cross-execution
//     race is for the unit tests to catch.
//   - The BENCH_pr*.json files and psan-bench -json rows come from older
//     harnesses and other machines; they are not this benchmark's
//     results and cannot be compared with them.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/explore"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: mc-ports, random-corpus or stream-redis")
	seed := fs.Int64("seed", 1, "seed for every campaign and for generated inputs")
	seconds := fs.Int("seconds", 30, "how long the untraced run repeats the workload")
	traced := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	root := fs.String("root", ".", "repository checkout holding testdata/")
	out := fs.String("out", ".bench_build/traces", "directory, relative to -root, for traced runs' span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload %s, --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	fp := machineFingerprint(*seed)
	fmt.Fprintf(stdout, "perfbench %s seed=%d trace=%d\n", def.name, *seed, *traced)
	fmt.Fprintf(stdout, "fingerprint: %s\n", fp)

	b := &benchRun{def: def, root: *root, seed: *seed, sz: full, out: stdout}
	if err := b.setup(setupReps); err != nil {
		fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
		return 1
	}
	var m metricSet
	var err error
	if *traced == 1 {
		m, err = b.tracedRun(filepath.Join(*root, *out), fp)
	} else {
		m, err = b.timedRun(time.Duration(*seconds) * time.Second)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, k := range m.names {
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", k, m.vals[k].Value, m.vals[k].Unit)
	}
	fmt.Fprintf(stdout, "%-28s %14d count\n", "verdict_errors", b.verdictErrors)
	fmt.Fprintf(stdout, "%-28s %14.6g share (%d of %d executions)\n", "failed_share", float64(b.failed)/float64(max(b.attempted, 1)), b.failed, b.attempted)
	correct := b.verdictErrors == 0 && b.failed == 0 && b.diverged == ""
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(b.attempted, 1), b.failed, m.vals})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct {
		fmt.Fprintf(stderr, "perfbench: %d verdict error(s), %d failed execution(s)\n", b.verdictErrors, b.failed)
		if b.diverged != "" {
			fmt.Fprintf(stderr, "perfbench: %s\n", b.diverged)
		}
		return 1
	}
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloadDefs {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, "|")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in the order they were added, for printing.
type metricSet struct {
	names []string
	vals  map[string]metric
}

func (m *metricSet) add(name string, v float64, unit string) {
	if m.vals == nil {
		m.vals = map[string]metric{}
	}
	m.names = append(m.names, name)
	m.vals[name] = metric{v, unit}
}

// Set-up is timed setupReps times before the first repetition and
// setupPerRep times before each one, so its samples span the run as the
// repetitions do; setup_s is their median. Each set-up starts on a
// freshly collected heap, so the time excludes collecting earlier
// set-ups' garbage.
const (
	setupReps   = 15
	setupPerRep = 5
)

// benchRun is one invocation: a workload's campaigns and the verdict
// and failure tallies over every repetition run.
type benchRun struct {
	def  workloadDef
	root string
	seed int64
	sz   size
	out  io.Writer

	campaigns  []campaign
	setupTimes []float64

	attempted, failed int64
	verdictErrors     int
	diverged          string
}

// setup builds the workload's campaigns n times, timing each.
func (b *benchRun) setup(n int) error {
	for range n {
		runtime.GC()
		start := time.Now()
		cs, err := b.def.build(b.root, b.seed, b.sz)
		if err != nil {
			return err
		}
		b.setupTimes = append(b.setupTimes, time.Since(start).Seconds())
		b.campaigns = cs
	}
	return nil
}

// rep is one repetition of a workload: every campaign run once.
type rep struct {
	results []*explore.Result
	wall    time.Duration
	allocs  uint64 // bytes allocated, /gc/heap/allocs:bytes delta
	gcCPU   float64
	peak    uint64 // live-heap high-water, when sampled
}

// runRep runs every campaign once under model, tallying verdicts and
// failures. A non-nil tracer wraps each program and records workload
// and campaign spans.
func (b *benchRun) runRep(model string, tr *tracer, samplePeak bool) rep {
	runtime.GC()
	var w *heapWatcher
	if samplePeak {
		w = startHeapWatcher()
	}
	before := readRuntime()
	workloadSpan := -1
	if tr != nil {
		workloadSpan = tr.begin("workload:"+b.def.name, -1, -1)
	}
	start := time.Now()
	var r rep
	for _, c := range b.campaigns {
		prog, opts := c.prog, c.opts
		opts.Model.Name = model
		if tr != nil {
			id := tr.begin("campaign:"+prog.Name(), workloadSpan, -1)
			res := explore.Run(newTimedProgram(prog, tr, id, opts.Mode), opts)
			tr.end(id)
			r.results = append(r.results, res)
		} else {
			r.results = append(r.results, explore.Run(prog, opts))
		}
	}
	r.wall = time.Since(start)
	if tr != nil {
		tr.end(workloadSpan)
	}
	after := readRuntime()
	if w != nil {
		r.peak = w.stop()
	}
	r.allocs = after.allocs - before.allocs
	if cpu := after.cpuTotal - before.cpuTotal; cpu > 0 {
		r.gcCPU = (after.cpuGC - before.cpuGC) / cpu
	}
	for i, res := range r.results {
		b.attempted += int64(res.Executions)
		b.failed += int64(res.Aborted + res.Quarantined)
		if msg := b.campaigns[i].want.check(res); msg != "" {
			b.verdictErrors++
			fmt.Fprintf(b.out, "VERDICT ERROR %s: %s\n", res.Program, msg)
		}
	}
	return r
}

// timedRun repeats the workload untraced until the next repetition
// would overrun budget (always at least once) and reports the
// end-to-end metrics as medians over the repetitions.
func (b *benchRun) timedRun(budget time.Duration) (metricSet, error) {
	var walls, allocs, rates []float64
	var decidedShare float64
	start := time.Now()
	for {
		if err := b.setup(setupPerRep); err != nil {
			return metricSet{}, err
		}
		r := b.runRep("", nil, false)
		walls = append(walls, r.wall.Seconds())
		allocs = append(allocs, float64(r.allocs)/1e6)
		execs, dec := 0, 0
		for _, res := range r.results {
			execs += res.Executions
			if decided(res) {
				dec++
			}
		}
		rates = append(rates, float64(execs)/r.wall.Seconds())
		decidedShare = float64(dec) / float64(len(r.results))
		fmt.Fprintf(b.out, "rep %d: %.4f s, %d executions, %.1f MB allocated\n", len(walls), r.wall.Seconds(), execs, float64(r.allocs)/1e6)
		if time.Since(start)+time.Duration(median(walls)*float64(time.Second)) > budget {
			break
		}
	}
	fmt.Fprintf(b.out, "%d repetitions; wall_s min %.4f median %.4f max %.4f\n", len(walls), slices.Min(walls), median(walls), slices.Max(walls))
	var m metricSet
	m.add("setup_s", median(b.setupTimes), "s")
	m.add("wall_s", median(walls), "s")
	m.add("execs_per_s", median(rates), "1/s")
	m.add("alloc_mb", median(allocs), "MB")
	m.add("decided_share", decidedShare, "share")
	return m, nil
}

// probeSize is the input size of the core.overhead_x probe, which runs
// every campaign twice more (checker on and off).
var probeSize = size{mcCap: 2_000, execs: 400, requests: 50_000}

// tracedRun runs the workload once untraced and once traced, checks
// that the two explored identically, and derives the per-layer metrics.
func (b *benchRun) tracedRun(outDir string, fp fingerprint) (metricSet, error) {
	ref := b.runRep("", nil, true)
	tr := newTracer()
	activeTracer.Store(tr)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return metricSet{}, err
	}
	got := b.runRep(timedModelName, tr, false)
	pprof.StopCPUProfile()
	activeTracer.Store(nil)
	b.diverged = divergence(ref.results, got.results)
	overhead := (got.wall - ref.wall).Seconds()
	fmt.Fprintf(b.out, "untraced %.4f s, traced %.4f s, tracing overhead %.4f s\n", ref.wall.Seconds(), got.wall.Seconds(), overhead)

	shares, samples, err := layerShares(prof.Bytes())
	if err != nil {
		return metricSet{}, err
	}
	fmt.Fprintf(b.out, "cpu profile: %d samples\n", samples)
	ratio, err := b.checkerOverhead()
	if err != nil {
		return metricSet{}, err
	}

	var m metricSet
	var workerNS, elapsedNS, sweepNS, hits, misses, restores, steals, ops, retirements, retired, pinned, violations int64
	for _, res := range got.results {
		workerNS += int64(res.WorkerTime)
		elapsedNS += int64(res.Elapsed) * int64(res.Workers)
		sweepNS += res.SweepNanos
		hits += int64(res.CacheHits)
		misses += int64(res.CacheMisses)
		restores += int64(res.SnapshotRestores)
		steals += int64(res.Steals)
		ops += res.Ops
		retirements += res.Retirements
		retired += res.RetiredStores
		pinned = max(pinned, res.PinnedRootsMax)
		violations += int64(len(res.Violations))
	}
	// WorkerTime sums each execution's time on its own worker, so the
	// phase spans inside it are subtracted as a sum too, not as the
	// union of their (overlapping, across workers) intervals.
	phaseNS, pilotNS := tr.spanNanos("phase"), tr.spanNanos("pilot")
	tot := tr.opTotals()
	var persistNS int64
	for o := op(0); o < numOps; o++ {
		if opNames[o].layer == "persist" && o != opSnapshot && o != opRestore {
			persistNS += tot[o].ns
		}
	}
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }

	m.add("explore.self_s", secs(workerNS-phaseNS), "s")
	m.add("explore.snapshot_restores", float64(restores), "count")
	m.add("explore.cache_probes", float64(hits+misses), "count")
	m.add("explore.cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	m.add("explore.steals", float64(steals), "count")
	m.add("explore.worker_idle_share", 1-float64(workerNS)/float64(max(elapsedNS, 1)), "share")
	m.add("explore.pilot_s", secs(pilotNS), "s")
	m.add("pmem.phase_s", secs(phaseNS), "s")
	m.add("pmem.ops", float64(ops), "count")
	m.add("pmem.ops_per_s", float64(ops)/ref.wall.Seconds(), "1/s")
	m.add("persist.self_s", secs(persistNS), "s")
	m.add("persist.snapshot_s", secs(tot[opSnapshot].ns+tot[opRestore].ns), "s")
	m.add("persist.stores", float64(tot[opStore].n), "count")
	m.add("persist.flushes", float64(tot[opFlush].n+tot[opFlushOpt].n), "count")
	m.add("persist.fences", float64(tot[opSFence].n+tot[opMFence].n), "count")
	m.add("persist.loads", float64(tot[opLoad].n+tot[opLoadDefault].n), "count")
	m.add("trace.retire_s", secs(tot[opRetire].ns), "s")
	m.add("trace.retirements", float64(retirements), "count")
	m.add("trace.sweep_s", secs(sweepNS), "s")
	m.add("trace.retired_stores", float64(retired), "count")
	m.add("trace.pinned_roots_max", float64(pinned), "count")
	m.add("trace.peak_heap_mb", float64(ref.peak)/1e6, "MB")
	m.add("core.overhead_x", ratio, "x")
	m.add("core.violations", float64(violations), "count")
	for _, l := range cpuLayers {
		m.add(l+".cpu_share", shares[l], "share")
	}
	m.add("runtime.gc_cpu_share", ref.gcCPU, "share")
	m.add("bench.tracing_overhead_s", overhead, "s")
	m.add("bench.persist_calls", float64(totalCalls(tot)), "count")

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return m, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.json", b.def.name, b.seed))
	if err := tr.write(path, fp); err != nil {
		return m, err
	}
	fmt.Fprintf(b.out, "spans and op counts: %s (%d spans)\n", path, len(tr.spans))
	return m, nil
}

// cpuLayers are the layers whose CPU share the traced run reports.
var cpuLayers = []string{"explore", "pmem", "persist", "trace", "core", "interp", "benchmarks"}

func totalCalls(s opStats) int64 {
	var n int64
	for _, c := range s {
		n += c.n
	}
	return n
}

// divergence compares an untraced and a traced repetition campaign by
// campaign; tracing must not change what was explored.
func divergence(ref, got []*explore.Result) string {
	if len(ref) != len(got) {
		return fmt.Sprintf("traced run has %d campaigns, untraced %d", len(got), len(ref))
	}
	for i := range ref {
		a, g := ref[i], got[i]
		if a.Executions != g.Executions || a.Aborted != g.Aborted || a.Quarantined != g.Quarantined ||
			a.ExecutionsToAllBugs != g.ExecutionsToAllBugs || !slices.Equal(a.ViolationKeys(), g.ViolationKeys()) {
			return fmt.Sprintf("traced run diverged on %s: executions %d/%d, aborted %d/%d, quarantined %d/%d, to-all-bugs %d/%d, violations %d/%d",
				a.Program, a.Executions, g.Executions, a.Aborted, g.Aborted, a.Quarantined, g.Quarantined,
				a.ExecutionsToAllBugs, g.ExecutionsToAllBugs, len(a.Violations), len(g.Violations))
		}
	}
	return ""
}

// checkerOverhead is the paper's Table 3 ratio on this workload's
// campaigns at probeSize: time per execution with the checker on over
// time per execution with it off, both with steering off so the only
// difference is the checker's own work.
func (b *benchRun) checkerOverhead() (float64, error) {
	cs, err := b.def.build(b.root, b.seed, probeSize)
	if err != nil {
		return 0, err
	}
	perExec := func(off bool) float64 {
		var ns, execs int64
		for _, c := range cs {
			opts := c.opts
			opts.NoSteering = true
			opts.DisableChecker = off
			res := explore.Run(c.prog, opts)
			ns += int64(res.WorkerTime)
			execs += int64(res.Executions)
		}
		return float64(ns) / float64(max(execs, 1))
	}
	on, off := perExec(false), perExec(true)
	if off == 0 {
		return 0, nil
	}
	return on / off, nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runtimeSample holds the runtime/metrics counters a repetition reads.
type runtimeSample struct {
	allocs          uint64
	cpuGC, cpuTotal float64
}

var runtimeKeys = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	return runtimeSample{allocs: s[0].Value.Uint64(), cpuGC: s[1].Value.Float64(), cpuTotal: s[2].Value.Float64()}
}

// heapWatcher samples the live heap every few milliseconds and keeps
// the high-water mark.
type heapWatcher struct {
	stopc chan struct{}
	done  chan uint64
}

func startHeapWatcher() *heapWatcher {
	w := &heapWatcher{stopc: make(chan struct{}), done: make(chan uint64)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-w.stopc:
				w.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// stop ends sampling and returns the peak in bytes, once the sampling
// goroutine has exited.
func (w *heapWatcher) stop() uint64 {
	close(w.stopc)
	return <-w.done
}

// fingerprint identifies the machine and run a result came from, so
// numbers from different machines are never compared silently.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Seed       int64  `json:"seed"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s seed=%d", f.CPU, f.NProc, f.GOMAXPROCS, f.Go, f.Seed)
}

func machineFingerprint(seed int64) fingerprint {
	cpu := runtime.GOARCH
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fingerprint{CPU: cpu, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Seed: seed}
}
