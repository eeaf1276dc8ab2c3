//go:build go1.23

package pmem

import (
	"iter"

	"repro/internal/memmodel"
)

// simThread is a spawned cooperative thread. Its body runs as an
// iter.Pull coroutine: the body yields before every operation and the
// scheduler grants one operation at a time by resuming it, so the whole
// simulation stays serialized: no two simulated operations ever run
// concurrently. A grant is a direct coroutine switch, with no channel
// operation or trip through the Go scheduler's run queue.
type simThread struct {
	t     Thread
	body  func(*Thread)
	yield func(struct{}) bool // parks the body; set when the coroutine starts
	next  func() (struct{}, bool)
	stop  func()
	err   any // non-crash panic from the body, re-raised by the scheduler
}

// parkAndWait is called from Thread.step for spawned threads: hand
// control back to the scheduler and wait to be granted the next step.
// A false yield means the scheduler stopped the coroutine while it was
// parked; the body unwinds like any crashed thread.
func (st *simThread) parkAndWait() {
	if !st.yield(struct{}{}) {
		panic(CrashSignal{})
	}
}

// run is the coroutine body. It swallows crash and abort unwinds, which
// the scheduler raises on the phase's stack itself, and keeps any other
// panic for the scheduler to re-raise there.
func (st *simThread) run(yield func(struct{}) bool) {
	st.yield = yield
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case CrashSignal, AbortSignal:
			default:
				st.err = r
			}
		}
	}()
	st.body(&st.t)
}

// Spawn registers a simulated thread whose body runs under the
// cooperative scheduler. Call RunThreads to execute all spawned threads.
// Spawned threads must issue all shared-state accesses through their
// Thread handle; plain Go state must stay thread-local.
func (w *World) Spawn(id memmodel.ThreadID, body func(*Thread)) {
	st := &simThread{body: body}
	st.t = Thread{ID: id, w: w, sim: st}
	w.registerThread(id)
	w.spawned = append(w.spawned, st)
}

// RunThreads executes every spawned thread to completion, interleaving
// them one operation at a time. The schedule is drawn from the world's
// random source, so a seed fully determines the interleaving. If any
// thread hits the crash target, every other thread is unwound and
// RunThreads panics with CrashSignal, crashing the phase. No coroutine
// outlives the call, however it ends.
func (w *World) RunThreads() {
	live := w.spawned
	w.spawned = nil
	if len(live) == 0 {
		return
	}
	for _, st := range live {
		st.next, st.stop = iter.Pull(st.run)
	}
	aborted := false
	for len(live) > 0 {
		st := live[w.rng.Intn(len(live))]
		if _, ok := st.next(); !ok {
			if st.err != nil {
				w.crashed = true
				unwind(live, st)
				panic(st.err)
			}
			live = remove(live, st)
		}
		if w.crashed || w.ops > w.opLimit {
			aborted = w.ops > w.opLimit
			unwind(live, st)
			live = nil
		}
	}
	if aborted {
		panic(AbortSignal{Reason: "operation budget exceeded in RunThreads"})
	}
	if w.crashed {
		panic(CrashSignal{})
	}
}

// unwind resumes every live thread except skip once, so a parked thread
// observes the crash or abort in World.step and unwinds, and a thread
// never granted a step runs up to its first operation, as its first
// grant would. It then stops every live coroutine, which unwinds any
// still parked.
func unwind(live []*simThread, skip *simThread) {
	for _, st := range live {
		if st != skip {
			st.next()
		}
	}
	for _, st := range live {
		st.stop()
	}
}

func remove(live []*simThread, st *simThread) []*simThread {
	out := live[:0]
	for _, x := range live {
		if x != st {
			out = append(out, x)
		}
	}
	return out
}
