// Package shmem is a from-scratch PGAS runtime in the spirit of the minimal
// OpenSHMEM subset the paper builds on: SPMD execution over N processing
// elements (PEs), symmetric memory, one-sided put/get, collective barriers,
// global locks, and a handful of collectives and atomics that real
// OpenSHMEM backends use implicitly.
//
// Symmetric memory is a per-PE heap of cells laid out identically on
// every PE (the paper's Figure 1); a remote reference is a (pe, slot)
// pair. A pluggable cost model (see internal/machine) charges simulated
// nanoseconds to the calling PE for every one-sided operation, so
// programs report hardware-shaped timing without the hardware.
//
// Every blocking operation — barrier arrival, lock acquisition,
// point-to-point wait — has one implementation: it registers the PE's
// task in a wait queue and suspends (see suspend.go), and whichever PE
// satisfies the wait unparks it explicitly. A world runs its PEs in one
// of two ways on top of that protocol. Under World.RunScheduled each PE
// is a resumable continuation multiplexed onto a bounded worker pool:
// the *Suspend goes back to the engine and the worker picks up another
// PE, which is what makes NP in the thousands affordable. Under
// World.Run each PE keeps a dedicated goroutine, which blocks on its own
// semaphore instead and re-invokes the operation when woken, so
// run-to-completion engines never see a *Suspend. Both count their PEs
// in the same scheduler state, so both detect deadlock exactly.
package shmem

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/value"
)

// CostModel prices one-sided operations in simulated nanoseconds.
// internal/machine provides implementations for the paper's platforms.
type CostModel interface {
	Name() string
	PutNanos(src, dst, bytes int) float64
	GetNanos(src, dst, bytes int) float64
	LockNanos(src, home int) float64
	BarrierNanos(n int) float64
}

// zeroCost is the default model: no simulated latency.
type zeroCost struct{}

func (zeroCost) Name() string                         { return "none" }
func (zeroCost) PutNanos(src, dst, bytes int) float64 { return 0 }
func (zeroCost) GetNanos(src, dst, bytes int) float64 { return 0 }
func (zeroCost) LockNanos(src, home int) float64      { return 0 }
func (zeroCost) BarrierNanos(n int) float64           { return 0 }

// SymbolSpec describes one slot of the symmetric heap.
type SymbolSpec struct {
	Name    string
	IsArray bool
	Elem    value.Kind // element type for arrays; Noob for dynamic scalars
}

// BarrierAlg selects the barrier implementation.
type BarrierAlg int

const (
	// BarrierCentral is a central barrier: one arrival count and one
	// wait queue per episode.
	BarrierCentral BarrierAlg = iota
	// BarrierDissemination is a log2(n)-round dissemination barrier built
	// on per-round token counters.
	BarrierDissemination
)

func (a BarrierAlg) String() string {
	if a == BarrierDissemination {
		return "dissemination"
	}
	return "central"
}

// Options configures a World.
type Options struct {
	// Model prices one-sided operations; nil means free.
	Model CostModel
	// Barrier selects the barrier algorithm.
	Barrier BarrierAlg
	// Seed is the base seed for per-PE deterministic RNG streams;
	// PE i uses Seed + i.
	Seed int64
	// Tracer, when non-nil, receives every runtime event (one-sided
	// accesses, barriers, lock operations). It must be safe for concurrent
	// use; see internal/trace for a ready-made recorder.
	Tracer Tracer
}

// ErrWorldFailed is returned from blocking operations when another PE has
// already failed, so that the whole SPMD program tears down instead of
// deadlocking at the next barrier.
var ErrWorldFailed = errors.New("shmem: another PE failed")

// World is one SPMD program instance: N PEs with symmetric heaps.
type World struct {
	n     int
	syms  []SymbolSpec
	heaps [][]cell // heaps[pe][slot]

	// symSize records the collective size of each symmetric array slot;
	// the first allocator sets it, later allocators must match (symmetric
	// allocation symmetry check).
	symSizeMu sync.Mutex
	symSize   []int // -1 = not yet allocated

	locks []ticketLock

	barrier barrier

	model CostModel
	opts  Options

	failOnce sync.Once
	failErr  atomic.Value // error

	// sched is the scheduler of the world's run; nil before Run or
	// RunScheduled starts.
	sched *scheduler

	stats Stats
}

// NewWorld creates a world of n PEs with the given symmetric heap layout
// and lock count.
func NewWorld(n int, syms []SymbolSpec, nLocks int, opts Options) (*World, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shmem: world size %d must be positive", n)
	}
	if opts.Model == nil {
		opts.Model = zeroCost{}
	}
	w := &World{
		n:       n,
		syms:    syms,
		heaps:   make([][]cell, n),
		symSize: make([]int, len(syms)),
		locks:   make([]ticketLock, nLocks),
		model:   opts.Model,
		opts:    opts,
	}
	for i := range w.symSize {
		w.symSize[i] = -1
	}
	for pe := 0; pe < n; pe++ {
		w.heaps[pe] = make([]cell, len(syms))
	}
	switch opts.Barrier {
	case BarrierDissemination:
		w.barrier = newDisseminationBarrier(n)
	default:
		w.barrier = newCentralBarrier(n)
	}
	return w, nil
}

// N returns the number of PEs.
func (w *World) N() int { return w.n }

// Model returns the active cost model.
func (w *World) Model() CostModel { return w.model }

// Symbols returns the symmetric heap layout.
func (w *World) Symbols() []SymbolSpec { return w.syms }

// Stats returns a snapshot of the world's operation counters.
func (w *World) Stats() StatsSnapshot {
	s := w.stats.snapshot()
	if w.sched != nil {
		s.Sched = w.sched.snapshot()
	}
	return s
}

// fail records the first failure and releases every parked PE: the wait
// queues unpark them with ErrWorldFailed.
func (w *World) fail(err error) {
	w.failOnce.Do(func() {
		w.failErr.Store(err)
		w.barrier.wake()
		w.drainLockWaiters()
	})
}

// Fail aborts the world cooperatively from outside the SPMD body: every PE
// blocked in a barrier, lock acquisition, or point-to-point wait returns
// ErrWorldFailed instead of blocking forever, and PEs that are still
// computing tear down at their next blocking operation. Launchers use it
// to implement cancellation (deadline hit, client disconnected) without
// deadlocking peers in HUGZ. The first failure wins; later calls are
// no-ops.
func (w *World) Fail(err error) {
	if err == nil {
		err = ErrWorldFailed
	}
	w.fail(err)
}

func (w *World) failed() error {
	if err, ok := w.failErr.Load().(error); ok {
		return err
	}
	return nil
}

// Err returns the first failure recorded for this world (a PE error or an
// external Fail), or nil while the world is healthy. Launchers use it to
// distinguish a cancellation-driven teardown from a PE's own error.
func (w *World) Err() error { return w.failed() }

// PE is the per-processing-element handle passed to the SPMD body.
type PE struct {
	id  int
	w   *World
	rng *rand.Rand // created on the first Rand call

	// task is this PE's entry in the scheduler. resume is the wakeup
	// staged by the scheduler before a parked operation is re-invoked;
	// the re-executed blocking operation consumes it (takeResume).
	task   *peTask
	resume wakeState

	simNanos float64 // simulated time consumed by this PE
	stats    PEStats
}

// takeResume hands the staged wakeup to the blocking operation being
// re-invoked after a park (deliver is false on a first attempt),
// clearing it so a later blocking call on the same PE starts fresh.
func (pe *PE) takeResume() wakeState {
	r := pe.resume
	pe.resume = wakeState{}
	return r
}

// wait decides what a blocking operation does after one attempt that
// returned err. A *Suspend means the operation registered the PE in a
// wait queue (or asked to yield). Under the worker pool it goes back to
// the engine, and wait reports false. With a goroutine per PE, the
// goroutine blocks here until the wakeup arrives (or yields the thread)
// and wait reports true: the caller re-invokes the operation exactly as
// a resumed step would.
func (pe *PE) wait(err error) bool {
	sus := AsSuspend(err)
	if sus == nil || pe.task.sched.pool {
		return false
	}
	pe.task.sched.block(pe.task, sus.Yield)
	return true
}

// ID returns this PE's rank, 0..N-1 (the paper's ME).
func (pe *PE) ID() int { return pe.id }

// NPEs returns the world size (the paper's MAH FRENZ).
func (pe *PE) NPEs() int { return pe.w.n }

// World returns the owning world.
func (pe *PE) World() *World { return pe.w }

// Rand returns this PE's deterministic random stream (WHATEVR/WHATEVAR),
// seeded with Seed + ID. Most programs never draw, so the stream is built
// on first use.
func (pe *PE) Rand() *rand.Rand {
	if pe.rng == nil {
		pe.rng = rand.New(rand.NewSource(pe.w.opts.Seed + int64(pe.id)))
	}
	return pe.rng
}

// SimNanos returns the simulated time this PE has consumed under the
// world's cost model.
func (pe *PE) SimNanos() float64 { return pe.simNanos }

// PEStats returns this PE's operation counters.
func (pe *PE) PEStats() PEStats { return pe.stats }

func (pe *PE) charge(nanos float64) { pe.simNanos += nanos }

// Run executes body once per PE in its own goroutine and waits for all of
// them. The first error (or panic, converted to an error) aborts blocked
// collectives on other PEs; Run returns the joined errors, wrapped with
// ErrDeadlock when every unfinished PE ended up parked.
func (w *World) Run(body func(pe *PE) error) error {
	return w.run(0, func(pe *PE) func() error {
		return func() error { return body(pe) }
	})
}

// Barrier is the collective barrier (the paper's HUGZ). Every PE must call
// it before any PE continues. Under the worker scheduler it may return a
// *Suspend; the re-invocation after the wakeup completes it.
func (pe *PE) Barrier() error {
	err := pe.barrier()
	for pe.wait(err) {
		err = pe.barrier()
	}
	return err
}

// barrier is one attempt at Barrier. The cost-model charge and the
// counters apply once, on first arrival; a resume with done=false (an
// intermediate dissemination round token) re-enters arrive without
// re-charging.
func (pe *PE) barrier() error {
	r := pe.takeResume()
	if r.err != nil {
		return r.err
	}
	if !r.deliver {
		pe.charge(pe.w.model.BarrierNanos(pe.w.n))
		pe.w.stats.Barriers.Add(1)
		pe.stats.Barriers++
	}
	if !r.done {
		if err := pe.w.barrier.arrive(pe.task); err != nil {
			return err
		}
	}
	pe.trace(EvBarrier, -1, -1, 0)
	return nil
}
