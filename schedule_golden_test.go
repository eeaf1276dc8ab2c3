package repro

// Schedule golden: pins the cooperative scheduler's interleavings across
// versions. Every registered port, Servers() included, runs a fixed
// random-mode campaign whose outcome is compared with
// testdata/schedule_golden.json, and a three-thread Spawn/RunThreads
// program's exact store order is compared for a few seeds. A change to
// pmem's scheduler must pass this test unchanged: any drift in how
// grants are drawn from the World's random source shows up here as a
// different store order or campaign outcome. Regenerate the file (only
// for an intended schedule change) with
//
//	go test -run TestScheduleGolden -update-schedule-golden .

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/benchmarks/bench"
	"repro/internal/explore"
	"repro/internal/memmodel"
	"repro/internal/pmem"
)

var updateScheduleGolden = flag.Bool("update-schedule-golden", false, "rewrite testdata/schedule_golden.json from this build")

const scheduleGoldenPath = "testdata/schedule_golden.json"

type portSchedule struct {
	Name                string
	ViolationKeys       []string
	Executions          int
	ExecutionsToAllBugs int
	Aborted             int
}

type scheduleGolden struct {
	Ports []portSchedule
	// ThreeThreadStores maps a world seed to the values of the
	// three-thread program's stores in trace order.
	ThreeThreadStores map[int64][]memmodel.Value
}

// threeThreadStores runs three spawned threads of four stores each
// (values 10*thread+i) under one seed and returns the store order.
func threeThreadStores(seed int64) []memmodel.Value {
	w := pmem.NewWorld(pmem.Config{CrashTarget: -1, Seed: seed})
	base := w.Heap.AllocLines(3)
	for tid := 1; tid <= 3; tid++ {
		w.Spawn(memmodel.ThreadID(tid), func(th *pmem.Thread) {
			a := base + memmodel.Addr(tid-1)*memmodel.CacheLineSize
			for i := 0; i < 4; i++ {
				th.Store(a, memmodel.Value(10*tid+i), "store")
				if i == 1 {
					th.Flush(a, "flush")
				}
			}
		})
	}
	w.RunThreads()
	var order []memmodel.Value
	for _, st := range w.M.Trace().Sub(0).Stores {
		order = append(order, st.Value)
	}
	return order
}

func TestScheduleGolden(t *testing.T) {
	const execs, seed = 60, 5
	got := scheduleGolden{ThreeThreadStores: map[int64][]memmodel.Value{}}
	for s := int64(1); s <= 4; s++ {
		got.ThreeThreadStores[s] = threeThreadStores(s)
	}
	run := func(b *bench.Benchmark, after func(*pmem.World)) {
		res := explore.Run(b.Build(bench.Buggy), explore.Options{
			Mode: explore.Random, Executions: execs, Seed: seed, Workers: 1,
			AfterExecution: after,
		})
		got.Ports = append(got.Ports, portSchedule{
			Name:                b.Name,
			ViolationKeys:       res.ViolationKeys(),
			Executions:          res.Executions,
			ExecutionsToAllBugs: res.ExecutionsToAllBugs,
			Aborted:             res.Aborted,
		})
	}
	for _, b := range benchmarks.All() {
		run(b, nil)
	}
	for _, b := range benchmarks.Servers() {
		// The server ports' only inline thread is thread 0, so a store
		// by any other thread is a step the scheduler granted to a
		// spawned client thread.
		granted := 0
		run(b, func(w *pmem.World) {
			for _, sub := range w.M.Trace().SubExecs() {
				for _, st := range sub.Stores {
					if st.Thread != 0 {
						granted++
					}
				}
			}
		})
		if granted == 0 {
			t.Errorf("%s: no spawned-thread steps were granted; the golden would pass vacuously", b.Name)
		}
	}

	if *updateScheduleGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scheduleGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(scheduleGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want scheduleGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", scheduleGoldenPath, err)
	}
	for s, order := range want.ThreeThreadStores {
		if !reflect.DeepEqual(got.ThreeThreadStores[s], order) {
			t.Errorf("seed %d: three-thread store order %v, golden %v", s, got.ThreeThreadStores[s], order)
		}
	}
	if len(got.Ports) != len(want.Ports) {
		t.Fatalf("%d ports ran, golden has %d", len(got.Ports), len(want.Ports))
	}
	for i, p := range got.Ports {
		if !reflect.DeepEqual(p, want.Ports[i]) {
			t.Errorf("port outcome drifted from the golden\n   got: %+v\n  want: %+v", p, want.Ports[i])
		}
	}
}
