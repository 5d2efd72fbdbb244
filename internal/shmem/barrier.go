package shmem

import "sync"

// barrier is the internal collective-barrier interface. arrive registers
// a PE's arrival: it returns nil when the PE may leave the barrier, or
// the park request after queueing the task for an explicit unpark. wake
// releases every queued task with ErrWorldFailed after a world failure,
// so SPMD programs tear down instead of deadlocking.
type barrier interface {
	arrive(t *peTask) error
	wake()
}

// centralBarrier is a central barrier: a mutex-protected arrival count
// whose last arrival closes the episode and unparks everyone queued in
// it. Simple, fair enough, and O(n) wakeup — the teaching default.
//
// Each episode queues into parked[gen&1], and the closer empties that
// queue atomically with gen++ under mu, so a task parked in episode k
// can never be woken by episode k+1's completion. The closer drains its
// queue after unlocking, and the two parity buffers make reusing the
// backing arrays safe: episode k+2 (the next user of the closer's
// buffer) cannot start until episode k+1 completes, which needs the
// closer to have finished draining and arrived again.
type centralBarrier struct {
	mu      sync.Mutex
	n       int
	arrived int
	gen     uint64
	broken  bool
	parked  [2][]*peTask
}

func newCentralBarrier(n int) *centralBarrier {
	return &centralBarrier{n: n}
}

func (b *centralBarrier) arrive(t *peTask) error {
	b.mu.Lock()
	if b.broken {
		b.mu.Unlock()
		return ErrWorldFailed
	}
	q := &b.parked[b.gen&1]
	b.arrived++
	if b.arrived < b.n {
		*q = append(*q, t)
		b.mu.Unlock()
		return suspendPark
	}
	woken := *q
	*q = woken[:0]
	b.arrived = 0
	b.gen++
	b.mu.Unlock()
	for _, pt := range woken {
		pt.sched.unpark(pt, nil, true)
	}
	return nil
}

func (b *centralBarrier) wake() {
	b.mu.Lock()
	b.broken = true
	// A fresh slice: a closer may still be draining one of the parity
	// buffers' backing arrays.
	woken := append(append([]*peTask(nil), b.parked[0]...), b.parked[1]...)
	b.mu.Unlock()
	for _, pt := range woken {
		pt.sched.unpark(pt, ErrWorldFailed, true)
	}
}

// disseminationBarrier runs ceil(log2 n) rounds; in round r, PE p sends a
// token to PE (p + 2^r) mod n and receives one from PE (p - 2^r) mod n.
// Tokens are counters (tokens) plus a parked-task slot per (round, PE),
// all under one mutex. The per-PE round cursor (round/deposited) lives
// ON the barrier so it survives park/resume: a task woken by a round
// token re-enters arrive and continues from the round it parked in, not
// from round 0. A PE can be at most two episodes ahead of a partner
// (completing episode k+2 implies every PE entered it, hence consumed
// its episode-k token), so a counter never exceeds 2.
type disseminationBarrier struct {
	n      int
	rounds int

	mu        sync.Mutex
	broken    bool
	tokens    [][]int     // tokens[r][p]: undelivered round-r tokens for PE p
	waiting   [][]*peTask // waiting[r][p]: task parked on its round-r token
	round     []int       // PE p's current round in its current episode
	deposited []bool      // PE p already sent its round[p] token
}

func newDisseminationBarrier(n int) *disseminationBarrier {
	rounds := 0
	for (1 << rounds) < n {
		rounds++
	}
	b := &disseminationBarrier{
		n:         n,
		rounds:    rounds,
		tokens:    make([][]int, rounds),
		waiting:   make([][]*peTask, rounds),
		round:     make([]int, n),
		deposited: make([]bool, n),
	}
	for r := 0; r < rounds; r++ {
		b.tokens[r] = make([]int, n)
		b.waiting[r] = make([]*peTask, n)
	}
	return b
}

func (b *disseminationBarrier) arrive(t *peTask) error {
	pe := t.pe.id
	b.mu.Lock()
	if b.broken {
		b.mu.Unlock()
		return ErrWorldFailed
	}
	// One arrival deposits at most one token per round, so it wakes at
	// most `rounds` partners; the stack buffer covers any world that
	// fits in memory without allocating.
	var buf [32]*peTask
	wakes := buf[:0]
	parked := false
	for b.round[pe] < b.rounds {
		r := b.round[pe]
		if !b.deposited[pe] {
			to := (pe + (1 << r)) % b.n
			b.tokens[r][to]++
			b.deposited[pe] = true
			if wt := b.waiting[r][to]; wt != nil {
				b.waiting[r][to] = nil
				wakes = append(wakes, wt)
			}
		}
		if b.tokens[r][pe] == 0 {
			b.waiting[r][pe] = t
			parked = true
			break
		}
		b.tokens[r][pe]--
		b.round[pe]++
		b.deposited[pe] = false
	}
	if !parked {
		// Episode complete for this PE: reset its cursor for the next
		// HUGZ.
		b.round[pe] = 0
	}
	b.mu.Unlock()
	// Intermediate wakes (done=false): the woken task re-enters arrive
	// and resumes from its own round cursor.
	for _, wt := range wakes {
		wt.sched.unpark(wt, nil, false)
	}
	if parked {
		return suspendPark
	}
	return nil
}

func (b *disseminationBarrier) wake() {
	b.mu.Lock()
	b.broken = true
	var wakes []*peTask
	for r := range b.waiting {
		for p, t := range b.waiting[r] {
			if t != nil {
				b.waiting[r][p] = nil
				wakes = append(wakes, t)
			}
		}
	}
	b.mu.Unlock()
	for _, t := range wakes {
		t.sched.unpark(t, ErrWorldFailed, true)
	}
}
