package shmem

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/value"
)

// countingStep builds the standard lock-counting SPMD body as a resumable
// step function: every PE increments PE 0's shared counter iters times
// under the global lock, between two barriers. The phase machine keeps
// each blocking call alone at its phase boundary, so a resumed step
// re-executes exactly the suspended operation first — the suspend
// protocol's contract for hand-written scheduled bodies.
func countingStep(iters int, got *atomic.Int64) func(pe *PE) func() error {
	return func(pe *PE) func() error {
		phase, i := 0, 0
		return func() error {
			for {
				switch phase {
				case 0: // local init; no blocking op in this phase
					if pe.ID() == 0 {
						if err := pe.InitScalar(0, value.NewNumbr(0)); err != nil {
							return err
						}
					}
					phase = 1
				case 1:
					if err := pe.Barrier(); err != nil {
						return err
					}
					phase = 2
				case 2:
					if i >= iters {
						phase = 4
						continue
					}
					if err := pe.SetLock(0); err != nil {
						return err
					}
					phase = 3
				case 3: // critical section + release; ClearLock never blocks
					v, err := pe.Get(0, 0)
					if err != nil {
						return err
					}
					if err := pe.Put(0, 0, value.NewNumbr(v.Numbr()+1)); err != nil {
						return err
					}
					if err := pe.ClearLock(0); err != nil {
						return err
					}
					i++
					phase = 2
				case 4:
					if err := pe.Barrier(); err != nil {
						return err
					}
					phase = 5
				case 5:
					v, err := pe.Get(0, 0)
					if err != nil {
						return err
					}
					if pe.ID() == 0 {
						got.Store(v.Numbr())
					}
					return nil
				}
			}
		}
	}
}

func TestRunScheduledLockCounting(t *testing.T) {
	for _, alg := range []BarrierAlg{BarrierCentral, BarrierDissemination} {
		for _, workers := range []int{1, 2, 4} {
			const np, iters = 32, 5
			w, err := NewWorld(np, []SymbolSpec{{Name: "ctr"}}, 1, Options{Barrier: alg})
			if err != nil {
				t.Fatal(err)
			}
			var got atomic.Int64
			if err := w.RunScheduled(workers, countingStep(iters, &got)); err != nil {
				t.Fatalf("%v workers=%d: %v", alg, workers, err)
			}
			if got.Load() != np*iters {
				t.Fatalf("%v workers=%d: counter = %d, want %d", alg, workers, got.Load(), np*iters)
			}
			s := w.Stats().Sched
			if s.Mode != "workers" {
				t.Fatalf("sched mode = %q, want workers", s.Mode)
			}
			if s.Parked != 0 || s.Ready != 0 || s.Running != 0 {
				t.Fatalf("%v workers=%d: gauges not drained: %+v", alg, workers, s)
			}
			if s.Parks != s.Unparks {
				t.Fatalf("%v workers=%d: parks %d != unparks %d", alg, workers, s.Parks, s.Unparks)
			}
			if s.MaxRunning > workers {
				t.Fatalf("%v workers=%d: max running %d exceeds pool", alg, workers, s.MaxRunning)
			}
		}
	}
}

// TestRunScheduledSpuriousUnpark runs the counting workload with the
// sched.spurious.unpark failpoint firing on every park: each parked task
// takes a detour through the run queue with its wake incomplete and must
// be re-parked without running, then resumed exactly once by the real
// wakeup — no lost wakeup, no double resume, counters still exact.
func TestRunScheduledSpuriousUnpark(t *testing.T) {
	defer faultinject.Reset()
	if err := faultinject.Arm("sched.spurious.unpark"); err != nil {
		t.Fatal(err)
	}
	const np, iters = 16, 4
	w, err := NewWorld(np, []SymbolSpec{{Name: "ctr"}}, 1, Options{Barrier: BarrierDissemination})
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Int64
	if err := w.RunScheduled(2, countingStep(iters, &got)); err != nil {
		t.Fatal(err)
	}
	if got.Load() != np*iters {
		t.Fatalf("counter = %d, want %d", got.Load(), np*iters)
	}
	s := w.Stats().Sched
	if s.Spurious == 0 {
		t.Fatal("failpoint armed but no spurious wakeups recorded")
	}
	if s.Parked != 0 || s.Ready != 0 || s.Running != 0 {
		t.Fatalf("gauges not drained: %+v", s)
	}
	if faultinject.Fired("sched.spurious.unpark") != s.Spurious {
		t.Fatalf("failpoint fired %d times but scheduler saw %d spurious wakes",
			faultinject.Fired("sched.spurious.unpark"), s.Spurious)
	}
}

// TestRunScheduledWakeReleasesParkedWaiters is the centralBarrier.wake
// audit: a parked waiter is released only by an explicit unpark, so a
// failing world must unpark it or the run never terminates. Exercised
// for both barrier algorithms: PE 0 fails before arriving, everyone else
// is parked.
func TestRunScheduledWakeReleasesParkedWaiters(t *testing.T) {
	boom := errors.New("boom")
	for _, alg := range []BarrierAlg{BarrierCentral, BarrierDissemination} {
		w, err := NewWorld(4, nil, 0, Options{Barrier: alg})
		if err != nil {
			t.Fatal(err)
		}
		// One worker pops tasks in PE order, so PEs 0..2 are parked in the
		// barrier before PE 3 fails — the drain is genuinely exercised.
		err = w.RunScheduled(1, func(pe *PE) func() error {
			return func() error {
				if pe.ID() == 3 {
					return boom
				}
				return pe.Barrier()
			}
		})
		if !errors.Is(err, boom) {
			t.Fatalf("%v: want PE 3's error, got %v", alg, err)
		}
		if !strings.Contains(err.Error(), "PE 3") {
			t.Fatalf("%v: error not attributed to PE 3: %v", alg, err)
		}
		if s := w.Stats().Sched; s.Parked != 0 || s.Ready != 0 || s.Running != 0 {
			t.Fatalf("%v: gauges not drained after teardown: %+v", alg, s)
		}
	}
}

// TestRunScheduledDeadlockDetected: the scheduler's exact deadlock test,
// in both modes. One PE exits holding the global lock; every other PE
// is parked on it with no wakeup ever coming, so the run must fail
// immediately with ErrDeadlock instead of hanging.
func TestRunScheduledDeadlockDetected(t *testing.T) {
	body := func(pe *PE) error {
		return pe.SetLock(0) // exit holding the lock: the others can never proceed
	}
	for _, workers := range []int{0, 2} {
		w, err := NewWorld(3, nil, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if workers == 0 {
			err = w.Run(body)
		} else {
			err = w.RunScheduled(workers, func(pe *PE) func() error {
				return func() error { return body(pe) }
			})
		}
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("workers=%d: want ErrDeadlock, got %v", workers, err)
		}
		if !errors.Is(w.Err(), ErrDeadlock) {
			t.Fatalf("workers=%d: world cause = %v, want ErrDeadlock", workers, w.Err())
		}
	}
}

// TestRunScheduledWaitUntilYields: a point-to-point wait under the
// scheduler polls by yielding, so a single worker can interleave the
// waiter (PE 0) with the putter (PE 1) instead of pinning the pool.
func TestRunScheduledWaitUntilYields(t *testing.T) {
	w, err := NewWorld(2, []SymbolSpec{{Name: "flag"}}, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = w.RunScheduled(1, func(pe *PE) func() error {
		initialized := false
		return func() error {
			if pe.ID() == 0 {
				if !initialized {
					initialized = true
					if err := pe.InitScalar(0, value.NewNumbr(0)); err != nil {
						return err
					}
				}
				return pe.WaitUntilNumbr(0, WaitEq, 1)
			}
			return pe.Put(0, 0, value.NewNumbr(1))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := w.Stats().Sched; s.Yields == 0 {
		t.Fatalf("waiter never yielded: %+v", s)
	}
}

// TestRunScheduledCollectivesRejected: Broadcast/Reduce are multi-barrier
// composites whose bodies cannot honor the re-invocation contract; under
// the scheduler they must fail loudly instead of corrupting the run.
func TestRunScheduledCollectivesRejected(t *testing.T) {
	w, err := NewWorld(2, []SymbolSpec{{Name: "v"}}, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = w.RunScheduled(1, func(pe *PE) func() error {
		return func() error { return pe.Broadcast(0, 0) }
	})
	if err == nil || !strings.Contains(err.Error(), "worker scheduler") {
		t.Fatalf("want a park-safety error, got %v", err)
	}
}

// TestGoroutineModeSyncAllocFree: the wait queues reuse their storage,
// so once warm, a goroutine-mode barrier episode (either algorithm) and
// a contended lock hand-off allocate nothing at NP 16. PE 0 measures
// while the other PEs keep the operation under full participation.
func TestGoroutineModeSyncAllocFree(t *testing.T) {
	const np, runs, warm = 16, 50, 4
	for _, alg := range []BarrierAlg{BarrierCentral, BarrierDissemination} {
		w, err := NewWorld(np, nil, 0, Options{Barrier: alg})
		if err != nil {
			t.Fatal(err)
		}
		var allocs float64
		err = w.Run(func(pe *PE) error {
			for i := 0; i < warm; i++ {
				if err := pe.Barrier(); err != nil {
					return err
				}
			}
			if pe.ID() == 0 {
				var berr error
				allocs = testing.AllocsPerRun(runs, func() {
					if err := pe.Barrier(); err != nil {
						berr = err
					}
				})
				return berr
			}
			for i := 0; i < runs+1; i++ { // AllocsPerRun adds one warm-up call
				if err := pe.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if allocs != 0 {
			t.Errorf("%v barrier: %v allocations per episode, want 0", alg, allocs)
		}
	}

	w, err := NewWorld(np, nil, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var allocs float64
	// The other PEs hold the lock across a reschedule, so PE 0's
	// acquisitions queue behind them and are handed off on release.
	hold := func(pe *PE) error {
		if err := pe.SetLock(0); err != nil {
			return err
		}
		runtime.Gosched()
		return pe.ClearLock(0)
	}
	err = w.Run(func(pe *PE) error {
		for i := 0; i < warm; i++ {
			if err := hold(pe); err != nil {
				return err
			}
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		if pe.ID() == 0 {
			defer stop.Store(true)
			var lerr error
			allocs = testing.AllocsPerRun(runs, func() {
				if err := pe.SetLock(0); err != nil {
					lerr = err
				}
				if err := pe.ClearLock(0); err != nil {
					lerr = err
				}
			})
			return lerr
		}
		for !stop.Load() {
			if err := hold(pe); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := w.Stats(); s.LockContended == 0 {
		t.Fatalf("lock was never contended: %+v", s)
	}
	if allocs != 0 {
		t.Errorf("SetLock/ClearLock: %v allocations per hand-off, want 0", allocs)
	}
}
