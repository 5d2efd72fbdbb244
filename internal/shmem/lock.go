package shmem

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ticketLock is a FIFO ticket lock in the style of the distributed
// queueing locks OpenSHMEM implementations use for shmem_set_lock:
// arrivals take a ticket, the holder advances the serving counter on
// release. FIFO ordering keeps lock handoff fair under contention, which
// the teaching examples (everyone increments PE 0's counter) rely on to
// finish promptly.
type ticketLock struct {
	next    atomic.Int64
	serving atomic.Int64
	owner   atomic.Int64 // PE id + 1; 0 = unheld (diagnostics only)

	// Waiters, keyed by ticket. release hands the lock directly to the
	// parked holder of the next ticket (FIFO preserved) and unparks it;
	// World.fail drains the map on teardown.
	mu     sync.Mutex
	parked map[int64]*peTask
}

// acquire takes a ticket and either holds the lock at once (nil) or
// registers t for the hand-off in release and returns the park request.
// The failure check happens under mu, which release and drainParked
// also take, so a concurrent World.fail either is observed here (the
// mutex orders us after the store) or finds our registration when it
// drains — a waiter can never be stranded. The ticket of a waiter that
// bails out on failure is abandoned, which is safe because the world is
// tearing down and registers no more waiters.
func (l *ticketLock) acquire(t *peTask) error {
	tk := l.next.Add(1) - 1
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.serving.Load() == tk {
		l.owner.Store(int64(t.pe.id) + 1)
		return nil
	}
	if t.pe.w.failed() != nil {
		return ErrWorldFailed
	}
	if l.parked == nil {
		l.parked = make(map[int64]*peTask)
	}
	l.parked[tk] = t
	return suspendPark
}

// drainParked unparks every waiter with ErrWorldFailed.
func (l *ticketLock) drainParked() {
	l.mu.Lock()
	var ts []*peTask
	for tk, t := range l.parked {
		delete(l.parked, tk)
		ts = append(ts, t)
	}
	l.mu.Unlock()
	for _, t := range ts {
		t.sched.unpark(t, ErrWorldFailed, true)
	}
}

// tryAcquire succeeds only when the lock is completely idle.
func (l *ticketLock) tryAcquire(pe int) bool {
	cur := l.serving.Load()
	if l.next.Load() != cur {
		return false
	}
	if !l.next.CompareAndSwap(cur, cur+1) {
		return false
	}
	l.owner.Store(int64(pe) + 1)
	return true
}

func (l *ticketLock) release(pe int) error {
	if own := l.owner.Load(); own != int64(pe)+1 {
		if own == 0 {
			return fmt.Errorf("shmem: PE %d released a lock it does not hold", pe)
		}
		return fmt.Errorf("shmem: PE %d released a lock held by PE %d", pe, own-1)
	}
	l.owner.Store(0)
	s := l.serving.Add(1)
	// Hand the lock to the parked holder of the now-serving ticket, if
	// any: it is made owner here, and its re-invoked SetLock just records
	// the acquisition. A holder that has taken the ticket but not yet
	// registered finds serving == its ticket in acquire instead.
	l.mu.Lock()
	wt := l.parked[s]
	if wt != nil {
		delete(l.parked, s)
		l.owner.Store(int64(wt.pe.id) + 1)
	}
	l.mu.Unlock()
	if wt != nil {
		wt.sched.unpark(wt, nil, true)
	}
	return nil
}

func (w *World) checkLock(id int) error {
	if id < 0 || id >= len(w.locks) {
		return fmt.Errorf("shmem: lock %d out of range [0,%d)", id, len(w.locks))
	}
	return nil
}

// lockHome is the PE that conceptually owns lock state for cost accounting;
// like symmetric objects in SHMEM, lock id i is homed on PE i mod N.
func (w *World) lockHome(id int) int { return id % w.n }

// SetLock blocks until this PE holds lock id (IM SRSLY MESIN WIF). Under
// the worker scheduler it may return a *Suspend; the release-time
// hand-off makes the parked PE the owner, so its re-invocation only
// consumes the wakeup and records the acquisition.
func (pe *PE) SetLock(id int) error {
	if err := pe.w.checkLock(id); err != nil {
		return err
	}
	err := pe.setLock(id)
	for pe.wait(err) {
		err = pe.setLock(id)
	}
	return err
}

// setLock is one attempt at SetLock.
func (pe *PE) setLock(id int) error {
	if r := pe.takeResume(); r.deliver {
		if r.err != nil {
			return r.err
		}
	} else {
		pe.charge(pe.w.model.LockNanos(pe.id, pe.w.lockHome(id)))
		l := &pe.w.locks[id]
		if !l.tryAcquire(pe.id) {
			pe.w.stats.LockContended.Add(1)
			if err := l.acquire(pe.task); err != nil {
				return err
			}
		}
	}
	pe.w.stats.LockAcquires.Add(1)
	pe.stats.LockAcquires++
	pe.trace(EvLock, pe.w.lockHome(id), id, 0)
	return nil
}

// drainLockWaiters releases every lock waiter after a world failure.
func (w *World) drainLockWaiters() {
	for i := range w.locks {
		w.locks[i].drainParked()
	}
}

// TestLock attempts lock id without blocking (IM MESIN WIF); it reports
// whether the lock was acquired.
func (pe *PE) TestLock(id int) (bool, error) {
	if err := pe.w.checkLock(id); err != nil {
		return false, err
	}
	pe.charge(pe.w.model.LockNanos(pe.id, pe.w.lockHome(id)))
	ok := pe.w.locks[id].tryAcquire(pe.id)
	if ok {
		pe.w.stats.LockAcquires.Add(1)
		pe.stats.LockAcquires++
	}
	pe.trace(EvTryLock, pe.w.lockHome(id), id, 0)
	return ok, nil
}

// ClearLock releases lock id (DUN MESIN WIF). Releasing a lock this PE
// does not hold is an error, which the teaching tool reports rather than
// corrupting the queue.
func (pe *PE) ClearLock(id int) error {
	if err := pe.w.checkLock(id); err != nil {
		return err
	}
	pe.charge(pe.w.model.LockNanos(pe.id, pe.w.lockHome(id)))
	pe.trace(EvUnlock, pe.w.lockHome(id), id, 0)
	return pe.w.locks[id].release(pe.id)
}
