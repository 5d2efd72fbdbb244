package shmem

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/faultinject"
)

// ErrDeadlock reports that every unfinished PE is parked with nothing
// runnable and no wakeup in flight: the program has deadlocked (a PE
// exited holding a lock, mismatched barrier arrivals across an IM MESIN
// WIF branch, and so on). Both scheduling modes count their PEs in the
// same scheduler state, so the test is exact in both, and a deadlocked
// program fails at once with this error instead of running out its
// deadline.
var ErrDeadlock = errors.New("shmem: deadlock: every unfinished PE is parked")

// taskState is the scheduler-side lifecycle of one PE.
type taskState int8

const (
	taskReady   taskState = iota // woken, waiting for a worker (or its goroutine)
	taskRunning                  // executing its step (or its body)
	taskParked                   // registered in a wait queue
	taskDone                     // step returned nil or a real error
)

// wakeState is the wakeup mailbox of one task, guarded by scheduler.mu.
type wakeState struct {
	// complete marks a deliverable wakeup: the initial spawn or a real
	// unpark. A task popped from the run queue with an incomplete wake
	// was requeued spuriously (failpoint injection) and is re-parked
	// without running — the real wakeup is still on its way.
	complete bool
	// deliver, err, done form the resume payload handed to the PE before
	// its operation is re-invoked; see PE.takeResume.
	deliver bool
	done    bool
	err     error
}

// peTask is one PE's entry in the scheduler.
type peTask struct {
	pe    *PE
	sched *scheduler
	state taskState
	wake  wakeState
	// sem is the one-slot semaphore a goroutine-per-PE task blocks on
	// while parked; nil under the worker pool.
	sem chan struct{}
}

// scheduler tracks every PE of one run in one state machine. Under the
// worker pool (pool=true) it multiplexes the PEs' step functions onto
// `workers` goroutines; otherwise each PE has its own goroutine and a
// park blocks it on its task's semaphore. One mutex guards every
// task-state transition and every counter, which keeps the invariants
// checkable by inspection: a task is woken at most once per park
// (unpark moves it out of taskParked), wakeups cannot be lost (unpark
// and park serialize on mu), and the deadlock test in settle is exact,
// not heuristic.
type scheduler struct {
	w       *World
	pool    bool
	workers int
	errs    []error // per-PE outcome, written once by the PE's finish

	mu    sync.Mutex
	runq  chan *peTask // pool only
	count [4]int       // tasks per taskState

	parks      int64
	unparks    int64
	spurious   int64
	yields     int64
	maxRunning int
}

// SchedSnapshot reports scheduler activity for one world. Mode is
// "workers" under RunScheduled and "goroutines" under Run (Workers is
// then NP); it is empty before either starts.
type SchedSnapshot struct {
	Mode       string `json:"mode,omitempty"`
	Workers    int    `json:"workers,omitempty"`
	Parks      int64  `json:"parks,omitempty"`
	Unparks    int64  `json:"unparks,omitempty"`
	Spurious   int64  `json:"spurious,omitempty"`
	Yields     int64  `json:"yields,omitempty"`
	MaxRunning int    `json:"max_running,omitempty"`
	Parked     int    `json:"parked,omitempty"`
	Ready      int    `json:"ready,omitempty"`
	Running    int    `json:"running,omitempty"`
}

func (s *scheduler) snapshot() SchedSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	mode := "goroutines"
	if s.pool {
		mode = "workers"
	}
	return SchedSnapshot{
		Mode:       mode,
		Workers:    s.workers,
		Parks:      s.parks,
		Unparks:    s.unparks,
		Spurious:   s.spurious,
		Yields:     s.yields,
		MaxRunning: s.maxRunning,
		Parked:     s.count[taskParked],
		Ready:      s.count[taskReady],
		Running:    s.count[taskRunning],
	}
}

// DefaultSchedWorkers is the worker-pool size used when the caller does
// not override it: enough parallelism to keep every core busy with
// headroom for workers briefly blocked in output plumbing, but
// independent of NP — the whole point is that NP=4096 costs 4096 small
// task structs, not 4096 stacks.
func DefaultSchedWorkers(n int) int {
	w := runtime.GOMAXPROCS(0) * 2
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunScheduled executes the SPMD program with a bounded worker pool
// instead of a goroutine per PE. makeStep builds one resumable step
// function per PE: the step runs until the PE finishes (returns nil),
// fails (returns a real error), or reaches a blocking point (returns a
// *Suspend after the runtime has registered the task for wakeup). Parked
// tasks cost no goroutine; at most `workers` steps execute concurrently
// (workers <= 0 selects DefaultSchedWorkers).
//
// Error semantics are Run's: per-PE errors are wrapped "PE %d: %w",
// panics become errors, the first failure tears down the world, and the
// joined errors are returned, wrapped with ErrDeadlock when the deadlock
// test fired the teardown.
func (w *World) RunScheduled(workers int, makeStep func(pe *PE) func() error) error {
	if workers <= 0 {
		workers = DefaultSchedWorkers(w.n)
	}
	return w.run(min(workers, w.n), makeStep)
}

// run is the spawn and error-join path of both modes: workers > 0 runs
// the steps on that many pool goroutines, workers == 0 runs each PE's
// step to completion on its own goroutine.
func (w *World) run(workers int, makeStep func(pe *PE) func() error) error {
	n := w.n
	s := &scheduler{
		w:       w,
		pool:    workers > 0,
		workers: workers,
		errs:    make([]error, n),
	}
	first := taskRunning
	if s.pool {
		first = taskReady
		s.runq = make(chan *peTask, n)
	} else {
		s.workers = n
		s.maxRunning = n
	}
	s.count[first] = n
	tasks := make([]*peTask, n)
	steps := make([]func() error, n)
	for id := range tasks {
		t := &peTask{pe: &PE{id: id, w: w}, sched: s, state: first, wake: wakeState{complete: s.pool}}
		if !s.pool {
			t.sem = make(chan struct{}, 1)
		}
		t.pe.task = t
		tasks[id] = t
		steps[id] = makeStep(t.pe)
	}
	w.sched = s

	var wg sync.WaitGroup
	if s.pool {
		for _, t := range tasks {
			s.runq <- t
		}
		wg.Add(workers)
		for range workers {
			go func() {
				defer wg.Done()
				s.worker(steps)
			}()
		}
	} else {
		wg.Add(n)
		for id, t := range tasks {
			go func() {
				defer wg.Done()
				s.finish(t, runStep(id, steps[id]))
			}()
		}
	}
	wg.Wait()
	err := errors.Join(s.errs...)
	if err != nil && errors.Is(w.Err(), ErrDeadlock) && !errors.Is(err, ErrDeadlock) {
		err = fmt.Errorf("%w: %w", ErrDeadlock, err)
	}
	return err
}

// worker is one pool goroutine: pop a ready task, run its step, and
// route the outcome (done, park, yield) back through the state machine.
func (s *scheduler) worker(steps []func() error) {
	for t := range s.runq {
		s.mu.Lock()
		if t.state != taskReady {
			// A queue entry can only exist for a ready task; anything else
			// is a scheduler bug, but skipping is safer than running a
			// task twice.
			s.mu.Unlock()
			continue
		}
		if !t.wake.complete {
			// Spuriously requeued at park time (failpoint): the wait
			// queue still holds the registration and the real wakeup has
			// not arrived. Re-park without running the operation. (If the
			// real wakeup raced in before this pop, complete is true and
			// the task simply runs — the spurious detour is absorbed.)
			s.settle(t, taskParked)
			continue
		}
		s.move(t, taskRunning)
		t.pe.resume, t.wake = t.wake, wakeState{}
		s.mu.Unlock()

		err := runStep(t.pe.id, steps[t.pe.id])
		sus := AsSuspend(err)
		if sus == nil {
			s.finish(t, err)
			continue
		}
		s.mu.Lock()
		if sus.Yield {
			s.yields++
			t.wake = wakeState{complete: true}
		} else {
			s.parks++
			// The blocking operation registered t in a wait queue before
			// returning, so the wakeup may already have raced in while
			// the step was unwinding; then t simply runs again.
			if !t.wake.complete {
				if !faultinject.Fire("sched.spurious.unpark") {
					s.settle(t, taskParked)
					continue
				}
				// Injected spurious wakeup: requeue with the wake left
				// incomplete. The pop above re-parks it (or runs it, if
				// the real wakeup arrives first); the wait queue's
				// registration stands throughout. The assertion this
				// failpoint buys: no lost wakeup, no double resume.
				s.spurious++
			}
		}
		s.move(t, taskReady)
		s.mu.Unlock()
		s.runq <- t
	}
}

// block is the park path of a goroutine-per-PE task: the mirror of
// worker's, with the PE's own goroutine standing in for the worker. A
// yield gives up the thread; a park blocks on t.sem until unpark
// delivers the wakeup, then stages it for the re-invoked operation.
func (s *scheduler) block(t *peTask, yield bool) {
	s.mu.Lock()
	if yield {
		s.yields++
		s.mu.Unlock()
		runtime.Gosched()
		return
	}
	s.parks++
	if !t.wake.complete {
		s.settle(t, taskParked)
		<-t.sem
		s.mu.Lock()
		s.move(t, taskRunning)
	}
	t.pe.resume, t.wake = t.wake, wakeState{}
	s.mu.Unlock()
}

// finish records a PE's outcome and retires its task.
func (s *scheduler) finish(t *peTask, err error) {
	if err != nil {
		s.errs[t.pe.id] = err
		s.w.fail(err)
	}
	s.mu.Lock()
	s.settle(t, taskDone)
}

// move transitions t to state to, keeping the per-state counts exact.
// Callers hold s.mu.
func (s *scheduler) move(t *peTask, to taskState) {
	s.count[t.state]--
	s.count[to]++
	t.state = to
	if s.count[taskRunning] > s.maxRunning {
		s.maxRunning = s.count[taskRunning]
	}
}

// settle moves t to taskParked or taskDone and releases s.mu. It is also
// the exact deadlock test: a real wakeup can only be produced by a task
// that is running (barrier completion, lock release, point-to-point
// put) or by an external World.Fail, which itself makes tasks ready
// under mu. So if nothing is running and nothing is ready while PEs
// remain unfinished, no wakeup can ever arrive, and the world fails with
// ErrDeadlock.
func (s *scheduler) settle(t *peTask, to taskState) {
	s.move(t, to)
	fin := s.count[taskDone] == s.w.n
	dead := !fin && s.count[taskRunning] == 0 && s.count[taskReady] == 0
	s.mu.Unlock()
	if fin && s.pool {
		close(s.runq)
	}
	if dead {
		s.w.fail(ErrDeadlock)
	}
}

// unpark delivers a wakeup to t. done=false marks an intermediate wake
// (a dissemination-barrier round token): the resumed operation re-enters
// its wait loop instead of completing. Callers must not hold any wait-
// queue lock that the woken task's next step could need — the
// convention is: mutate the queue, unlock it, then unpark.
func (s *scheduler) unpark(t *peTask, err error, done bool) {
	s.mu.Lock()
	if t.state == taskDone {
		s.mu.Unlock()
		return
	}
	s.unparks++
	t.wake = wakeState{complete: true, deliver: true, err: err, done: done}
	if t.state != taskParked {
		// Ready (queued, possibly spuriously) or still unwinding toward
		// its park: whoever handles it observes the completed wake under
		// mu and runs it. No second queue entry.
		s.mu.Unlock()
		return
	}
	s.move(t, taskReady)
	s.mu.Unlock()
	if s.pool {
		s.runq <- t
	} else {
		t.sem <- struct{}{}
	}
}

// runStep runs one step of PE id. A real error is wrapped "PE %d: %w"
// and a panic becomes a "PE %d panicked" error; a *Suspend passes
// through untouched.
func runStep(id int, step func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("PE %d panicked: %v", id, r)
		}
	}()
	if err = step(); err != nil && AsSuspend(err) == nil {
		err = fmt.Errorf("PE %d: %w", id, err)
	}
	return err
}
