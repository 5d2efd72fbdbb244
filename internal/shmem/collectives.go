package shmem

import (
	"fmt"

	"repro/internal/value"
)

// The collectives below are the "other OpenSHMEM routines … used implicitly
// in the backend" (paper §II.A): broadcast, reductions, and point-to-point
// waiting. The LOLCODE surface only exposes HUGZ, but the compiler backend
// and the benchmark harness use these directly.

// ReduceOp selects a reduction operator.
type ReduceOp int

// Reduction operators.
const (
	ReduceSum ReduceOp = iota
	ReduceProd
	ReduceMin
	ReduceMax
)

func (op ReduceOp) String() string {
	switch op {
	case ReduceSum:
		return "sum"
	case ReduceProd:
		return "prod"
	case ReduceMin:
		return "min"
	case ReduceMax:
		return "max"
	}
	return "?"
}

// Broadcast copies root's instance of a scalar slot into every PE's
// instance. Collective: every PE must call it.
//
// Broadcast and Reduce are multi-barrier composites whose bodies are not
// idempotent, so they cannot honor the suspend protocol's re-invocation
// contract; they are goroutine-mode only (the LOLCODE engines never emit
// them — only harness code running under World.Run does).
func (pe *PE) Broadcast(root, slot int) error {
	if pe.task.sched.pool {
		return errNotParkSafe("Broadcast")
	}
	if err := pe.w.checkPE(root); err != nil {
		return err
	}
	if err := pe.Barrier(); err != nil {
		return err
	}
	if pe.id != root {
		v, err := pe.Get(root, slot)
		if err != nil {
			return err
		}
		if err := pe.InitScalar(slot, v); err != nil {
			return err
		}
	}
	return pe.Barrier()
}

// Reduce combines every PE's scalar instance of slot with op and leaves the
// result in every PE's instance. Values are combined with the LOLCODE
// numeric rules (NUMBR stays NUMBR until a NUMBAR appears). Collective.
func (pe *PE) Reduce(slot int, op ReduceOp) error {
	if pe.task.sched.pool {
		return errNotParkSafe("Reduce")
	}
	if err := pe.Barrier(); err != nil {
		return err
	}
	// PE 0 combines, then everyone pulls: a linear reduction is plenty for
	// the world sizes goroutines support, and keeps the combine order
	// deterministic (rank order) for floating point.
	if pe.id == 0 {
		acc, err := pe.Get(0, slot)
		if err != nil {
			return err
		}
		for r := 1; r < pe.w.n; r++ {
			v, err := pe.Get(r, slot)
			if err != nil {
				return err
			}
			acc, err = combine(op, acc, v)
			if err != nil {
				return err
			}
		}
		if err := pe.InitScalar(slot, acc); err != nil {
			return err
		}
	}
	if err := pe.Barrier(); err != nil {
		return err
	}
	if pe.id != 0 {
		v, err := pe.Get(0, slot)
		if err != nil {
			return err
		}
		if err := pe.InitScalar(slot, v); err != nil {
			return err
		}
	}
	return pe.Barrier()
}

func errNotParkSafe(op string) error {
	return fmt.Errorf("shmem: %s is a non-idempotent composite collective and cannot run under the worker scheduler; run this body with World.Run", op)
}

func combine(op ReduceOp, a, b value.Value) (value.Value, error) {
	switch op {
	case ReduceSum:
		return value.Binary(value.OpSum, a, b)
	case ReduceProd:
		return value.Binary(value.OpProdukt, a, b)
	case ReduceMin:
		return value.Binary(value.OpSmallrOf, a, b)
	case ReduceMax:
		return value.Binary(value.OpBiggrOf, a, b)
	}
	return value.NOOB, fmt.Errorf("shmem: unknown reduction %v", op)
}

// FetchAddNumbr atomically adds delta to target's NUMBR instance of slot
// and returns the previous value (shmem_atomic_fetch_add).
func (pe *PE) FetchAddNumbr(target, slot int, delta int64) (int64, error) {
	w := pe.w
	if err := w.checkPE(target); err != nil {
		return 0, err
	}
	if err := w.checkSlot(slot); err != nil {
		return 0, err
	}
	pe.charge(w.model.GetNanos(pe.id, target, 8))
	w.stats.Atomics.Add(1)
	c := w.cellAt(target, slot)
	c.lock()
	defer c.unlock()
	old, err := c.v.ToNumbr()
	if err != nil {
		return 0, fmt.Errorf("shmem: fetch-add on non-NUMBR %s: %w", w.syms[slot].Name, err)
	}
	c.v = value.NewNumbr(old + delta)
	return old, nil
}

// CompareSwapNumbr atomically replaces target's NUMBR instance of slot with
// next when it currently equals expect; it returns the observed value
// (shmem_atomic_compare_swap).
func (pe *PE) CompareSwapNumbr(target, slot int, expect, next int64) (int64, error) {
	w := pe.w
	if err := w.checkPE(target); err != nil {
		return 0, err
	}
	if err := w.checkSlot(slot); err != nil {
		return 0, err
	}
	pe.charge(w.model.GetNanos(pe.id, target, 8))
	w.stats.Atomics.Add(1)
	c := w.cellAt(target, slot)
	c.lock()
	defer c.unlock()
	old, err := c.v.ToNumbr()
	if err != nil {
		return 0, fmt.Errorf("shmem: compare-swap on non-NUMBR %s: %w", w.syms[slot].Name, err)
	}
	if old == expect {
		c.v = value.NewNumbr(next)
	}
	return old, nil
}

// WaitCond is the comparison used by WaitUntilNumbr.
type WaitCond int

// Wait conditions (shmem_wait_until comparison operators).
const (
	WaitEq WaitCond = iota
	WaitNe
	WaitGt
	WaitGe
	WaitLt
	WaitLe
)

func (c WaitCond) holds(a, b int64) bool {
	switch c {
	case WaitEq:
		return a == b
	case WaitNe:
		return a != b
	case WaitGt:
		return a > b
	case WaitGe:
		return a >= b
	case WaitLt:
		return a < b
	case WaitLe:
		return a <= b
	}
	return false
}

// WaitUntilNumbr blocks until this PE's local instance of slot satisfies
// cond against operand — point-to-point synchronization
// (shmem_wait_until), the partner of a remote Put. An unsatisfied
// condition yields instead of spinning: the whole attempt is one
// idempotent check, so re-invoking it is the poll. Under the worker
// scheduler this keeps a put/wait partner from pinning a pool worker.
func (pe *PE) WaitUntilNumbr(slot int, cond WaitCond, operand int64) error {
	if err := pe.w.checkSlot(slot); err != nil {
		return err
	}
	err := pe.pollNumbr(slot, cond, operand)
	for pe.wait(err) {
		err = pe.pollNumbr(slot, cond, operand)
	}
	return err
}

// pollNumbr is one attempt at WaitUntilNumbr.
func (pe *PE) pollNumbr(slot int, cond WaitCond, operand int64) error {
	c := pe.w.cellAt(pe.id, slot)
	c.lock()
	cur, err := c.v.ToNumbr()
	c.unlock()
	if err == nil && cond.holds(cur, operand) {
		return nil
	}
	if pe.w.failed() != nil {
		return ErrWorldFailed
	}
	return suspendYield
}
