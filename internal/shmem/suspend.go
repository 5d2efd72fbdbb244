package shmem

// Suspend is the runtime's one blocking protocol. A blocking runtime
// operation — barrier arrival, lock acquisition, point-to-point wait —
// never blocks inside its wait queue: it registers the calling PE's task
// there and produces a *Suspend through the ordinary error path. The
// task is resumed by an explicit unpark from whichever PE (or teardown
// path) satisfies the wait, and the operation is then RE-INVOKED: it
// consumes the wakeup payload and completes, or suspends again for
// multi-phase waits like dissemination-barrier rounds.
//
// Who re-invokes it depends on the mode. Under World.Run the PE's own
// goroutine blocks on its semaphore inside the operation and retries it
// there, so the caller never sees the *Suspend. Under the worker
// scheduler (World.RunScheduled) the *Suspend is returned to the engine,
// whose step function propagates it out to the scheduler; the scheduler
// parks the task and reuses the worker for a runnable PE. The contract
// for engines in that mode:
//
//   - A *Suspend is never wrapped; AsSuspend type-asserts directly.
//   - The engine must rewind so the parked operation is the first thing
//     the resumed step executes (the VM sets fr.ip back to the parked
//     instruction and refunds its meter weight).
//   - Code between the previous suspension point and the blocking call
//     must therefore be idempotent; in practice the blocking call is the
//     whole instruction.
//
// Yield is a cooperative reschedule with no wait queue attached: the
// task goes straight back on the run queue (under World.Run, the
// goroutine calls runtime.Gosched). Compute loops use it so a bounded
// worker pool cannot be starved by fewer-than-NP long-running PEs, and
// WaitUntilNumbr uses it to poll without pinning a worker.
type Suspend struct {
	// Yield distinguishes a reschedule request from a park request.
	Yield bool
}

func (s *Suspend) Error() string {
	if s.Yield {
		return "shmem: PE yielded (scheduler-internal, should not escape)"
	}
	return "shmem: PE suspended (scheduler-internal, should not escape)"
}

// The two suspension values. They carry no per-use state, so every
// suspension point shares them; identity is never compared, only type.
var (
	suspendPark  = &Suspend{}
	suspendYield = &Suspend{Yield: true}
)

// AsSuspend returns err as a *Suspend, or nil when err is anything else.
// Suspends are never wrapped, so a direct type assertion is the whole
// test — engines call this on every error edge that can cross a blocking
// operation.
func AsSuspend(err error) *Suspend {
	s, _ := err.(*Suspend)
	return s
}

// SuspendYield returns the shared yield request. Hand-written scheduled
// step functions (tests, experiment harnesses) return it to reschedule
// cooperatively; engines have their own yield checks built in.
func SuspendYield() error { return suspendYield }
