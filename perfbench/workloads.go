package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/benchmarks"
	"repro/internal/benchmarks/bench"
	"repro/internal/benchmarks/redislog"
	"repro/internal/explore"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/memmodel"
	"repro/internal/persist"
	"repro/internal/workload"
)

// workers is the exploration worker count of every campaign: the
// benchmark is sized for a 2-CPU machine and must not depend on the
// machine it runs on, so it never resolves Workers from NumCPU.
const workers = 2

// size sets how much work one repetition of a workload does. full is
// the benchmark's size; the package test runs a smaller one.
type size struct {
	mcCap    int // model-check execution cap per port
	execs    int // random-mode executions per port and per .pm program
	requests int // stream-redis requests, split evenly over its streams
}

var full = size{mcCap: 20_000, execs: 4_000, requests: 200_000}

// verdict is a campaign's known answer, taken from sources that share
// no code with the checker: the ports' Table 2 rows, the .pm files'
// header comments (the paper's Figures 2 and 7), and the fixed
// variants' design.
type verdict struct {
	expected []bench.ExpectedBug // every row must be found once decided
	robust   bool                // no violation may be reported
}

// check reports why res disagrees with the known answer, or "" when it
// agrees. An undecided campaign (capped or stopped) is only held to the
// robust half: it proves nothing about bugs it did not reach.
func (v verdict) check(res *explore.Result) string {
	if v.robust {
		if n := len(res.Violations); n > 0 {
			return fmt.Sprintf("robust program reported %d violation(s): %v", n, res.ViolationKeys())
		}
		return ""
	}
	if !decided(res) {
		return ""
	}
	if v.expected == nil {
		if len(res.Violations) == 0 {
			return "non-robust program reported no violation"
		}
		return ""
	}
	if _, missed := bench.MatchExpected(v.expected, res.Violations); len(missed) > 0 {
		var rows []string
		for _, m := range missed {
			rows = append(rows, m.LocSubstr)
		}
		return "expected bug(s) not reported: " + strings.Join(rows, "; ")
	}
	return ""
}

// decided reports whether a campaign finished its whole search: not cut
// by the execution cap, a deadline or a cancellation.
func decided(res *explore.Result) bool { return !res.Partial && res.StopReason == "" }

// campaign is one explore.Run of a workload: a program, its options
// (the model name is filled in by the runner) and its known answer.
type campaign struct {
	prog explore.Program
	opts explore.Options
	want verdict
}

// workloadDef names a workload and builds its campaigns. build is the
// set-up the setup_s metric times: program construction, .pm parsing
// and input generation.
type workloadDef struct {
	name  string
	build func(root string, seed int64, sz size) ([]campaign, error)
}

var workloadDefs = []workloadDef{
	{"mc-ports", buildMCPorts},
	{"random-corpus", buildRandomCorpus},
	{"stream-redis", buildStreamRedis},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// portCampaigns builds the buggy variant of every Table 2 port. A port
// with no Table 2 rows (P-Masstree) must report no violation. The
// registry-sized Servers() ports stay out: they duplicate the kvstore
// rows, and slabcache's cross-execution race is the unit tests' to
// catch.
func portCampaigns(opts explore.Options) []campaign {
	var cs []campaign
	for _, b := range benchmarks.All() {
		cs = append(cs, campaign{
			prog: b.Build(bench.Buggy),
			opts: opts,
			want: verdict{expected: b.Expected, robust: len(b.Expected) == 0},
		})
	}
	return cs
}

func buildMCPorts(_ string, seed int64, sz size) ([]campaign, error) {
	return portCampaigns(explore.Options{
		Mode: explore.ModelCheck, Executions: sz.mcCap, Seed: seed, Workers: workers,
	}), nil
}

// corpus lists the shipped .pm programs with their known answers, from
// each file's header comment and the paper's Figures 2 and 7.
var corpus = []struct {
	file   string
	robust bool
}{
	{"counter.pm", false},      // unflushed commit flag read stale after a crash
	{"figure2.pm", false},      // Figure 2: four unflushed stores
	{"figure2_fixed.pm", true}, // Figure 2 with every store persisted
	{"figure7.pm", false},      // Figure 7: flush-after-store is not enough
	{"sameline.pm", true},      // colocated x and y persist in TSO order
}

func buildRandomCorpus(root string, seed int64, sz size) ([]campaign, error) {
	opts := explore.Options{Mode: explore.Random, Executions: sz.execs, Seed: seed, Workers: workers}
	cs := portCampaigns(opts)
	for _, c := range corpus {
		path := filepath.Join(root, "testdata", c.file)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		prog, err := lang.Parse(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		cs = append(cs, campaign{
			prog: interp.New(c.file, prog),
			opts: opts,
			want: verdict{robust: c.robust},
		})
	}
	return cs, nil
}

// streamWindow is the bounded trace window of stream-redis: the
// ROADMAP's "2x redis ops/s at window 64" target is stated at it.
const streamWindow = 64

// streams is how many independent request streams stream-redis splits
// its requests into, each checked by its own one-execution campaign.
// One execution's random crash point decides how much of its stream
// runs, so a single stream made the work, and wall_s, swing with the
// seed; 100 crash draws per repetition average that out.
const streams = 100

func buildStreamRedis(_ string, seed int64, sz size) ([]campaign, error) {
	var cs []campaign
	var cfgs []workload.Config
	for i := range streams {
		s := seed*streams + int64(i)
		wcfg := workload.Config{
			Seed: s, Ops: sz.requests / streams, Keys: 512, ZipfS: 1.2, ReadPct: 85, Threads: 2,
		}
		cfgs = append(cfgs, wcfg)
		cs = append(cs, campaign{
			prog: redislog.BuildWorkload(bench.Fixed, wcfg),
			opts: explore.Options{
				Mode: explore.Random, Executions: 1, Seed: s, Workers: workers,
				Model: persist.Config{Window: streamWindow},
				// Each request is a bounded burst of pmem operations; 64
				// per request leaves headroom over the deepest one.
				OpLimit: wcfg.Ops*64 + 4096,
			},
			want: verdict{robust: true},
		})
	}
	if err := checkStreams(cfgs); err != nil {
		return nil, err
	}
	return cs, nil
}

// checkStreams draws the request streams the clients will issue (each
// client's stream is a pure function of its config and index) and
// checks they have the mix the workload claims: every key in range and
// the GET share within one point of ReadPct.
func checkStreams(cfgs []workload.Config) error {
	reads, total := 0, 0
	for _, cfg := range cfgs {
		for t := 0; t < cfg.Threads; t++ {
			g := workload.NewGenerator(cfg, t)
			for i := 0; i < cfg.Ops/cfg.Threads; i++ {
				op := g.Next()
				if op.Key < 1 || op.Key > memmodel.Value(cfg.Keys) {
					return fmt.Errorf("stream-redis: key %d outside 1..%d", op.Key, cfg.Keys)
				}
				if op.Read {
					reads++
				}
				total++
			}
		}
	}
	share := 100 * float64(reads) / float64(max(total, 1))
	if want := float64(cfgs[0].ReadPct); math.Abs(share-want) > 1 {
		return fmt.Errorf("stream-redis: %.2f%% GETs, want %g%%", share, want)
	}
	return nil
}
