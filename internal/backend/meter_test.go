package backend_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
)

// infiniteLoop spins forever with no barrier — only the step budget or the
// context deadline can stop it.
const infiniteLoop = `HAI 1.2
I HAS A x ITZ 0
IM IN YR forever
  x R SUM OF x AN 1
IM OUTTA YR forever
KTHXBYE`

// TestStepBudgetKillsEveryBackend runs an infinite loop with a small step
// budget through every engine and expects the run to die with
// ErrStepBudget instead of hanging.
func TestStepBudgetKillsEveryBackend(t *testing.T) {
	prog, err := core.Parse("forever.lol", infiniteLoop)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range core.Backends() {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			t.Parallel()
			_, err := prog.Run(core.RunConfig{Config: backend.Config{NP: 2, StepBudget: 10_000}, Backend: eng})
			if err == nil {
				t.Fatal("infinite loop completed under a step budget")
			}
			if !errors.Is(err, backend.ErrStepBudget) {
				t.Fatalf("error = %v, want ErrStepBudget", err)
			}
		})
	}
}

// TestContextDeadlineKillsEveryBackend bounds the same infinite loop with
// a wall-clock deadline and expects errors.Is against the context error.
func TestContextDeadlineKillsEveryBackend(t *testing.T) {
	prog, err := core.Parse("forever.lol", infiniteLoop)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range core.Backends() {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			_, err := prog.Run(core.RunConfig{Config: backend.Config{NP: 2, Context: ctx}, Backend: eng})
			if err == nil {
				t.Fatal("infinite loop completed under a deadline")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("error = %v, want DeadlineExceeded", err)
			}
		})
	}
}

// TestCancelReleasesBarrier cancels a run where one PE spins forever while
// the others block in HUGZ: cancellation must release the blocked PEs
// rather than deadlocking the barrier.
func TestCancelReleasesBarrier(t *testing.T) {
	const src = `HAI 1.2
BOTH SAEM ME AN 0, O RLY?
YA RLY
  I HAS A x ITZ 0
  IM IN YR forever
    x R SUM OF x AN 1
  IM OUTTA YR forever
OIC
HUGZ
KTHXBYE`
	prog, err := core.Parse("stuck.lol", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range core.Backends() {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(30 * time.Millisecond)
				cancel()
			}()
			done := make(chan error, 1)
			go func() {
				_, err := prog.Run(core.RunConfig{Config: backend.Config{NP: 4, Context: ctx}, Backend: eng})
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("error = %v, want Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("cancelled run did not release PEs blocked in HUGZ")
			}
		})
	}
}

// TestMeterExactBudgetBoundary pins the budget's fencepost: a budget of N
// permits exactly N steps; the N+1th attempt is the one that dies.
func TestMeterExactBudgetBoundary(t *testing.T) {
	for _, limit := range []int64{1, 2, 1023, 1024, 1025, 5000} {
		m := backend.NewMeter(&backend.Config{StepBudget: limit})
		for i := int64(0); i < limit; i++ {
			if err := m.Step(); err != nil {
				t.Fatalf("limit %d: step %d failed early: %v", limit, i+1, err)
			}
		}
		if err := m.Step(); !errors.Is(err, backend.ErrStepBudget) {
			t.Errorf("limit %d: step %d error = %v, want ErrStepBudget", limit, limit+1, err)
		}
	}
}

// TestStepBudgetRoomToFinish checks that a budget large enough for the
// program is invisible: the run completes with identical output.
func TestStepBudgetRoomToFinish(t *testing.T) {
	prog, err := core.Parse("ok.lol", "HAI 1.2\nVISIBLE SMOOSH \"PE \" AN ME MKAY\nKTHXBYE")
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range core.Backends() {
		var out strings.Builder
		cfg := backend.Config{NP: 2, Stdout: &out, GroupOutput: true, StepBudget: 1 << 20, Context: context.Background()}
		if _, err := prog.Run(core.RunConfig{Config: cfg, Backend: eng}); err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if out.String() != "PE 0\nPE 1\n" {
			t.Errorf("%s output = %q", eng, out.String())
		}
	}
}

// TestMeterStepNBoundary pins the weighted fencepost the VM's fused
// superinstructions rely on: StepN(w) must behave exactly like w
// consecutive Steps, so a budget of N permits exactly N pre-fusion steps
// regardless of how they are grouped into weighted blocks.
func TestMeterStepNBoundary(t *testing.T) {
	for _, limit := range []int64{1, 2, 3, 4, 7, 1023, 1024, 1025, 5000} {
		for _, w := range []int64{2, 3, 4} {
			m := backend.NewMeter(&backend.Config{StepBudget: limit})
			used := int64(0)
			for used+w <= limit {
				if err := m.StepN(w); err != nil {
					t.Fatalf("limit %d w %d: StepN at used=%d failed early: %v", limit, w, used, err)
				}
				used += w
			}
			// The next weighted attempt overdraws (used+w > limit) and must
			// die, exactly as the w-th unfused Step would.
			if err := m.StepN(w); !errors.Is(err, backend.ErrStepBudget) {
				t.Errorf("limit %d w %d: overdraw error = %v, want ErrStepBudget", limit, w, err)
			}
		}
	}
}

// TestMeterStepNMixed interleaves plain and weighted steps across a grant
// boundary.
func TestMeterStepNMixed(t *testing.T) {
	m := backend.NewMeter(&backend.Config{StepBudget: 10})
	for i := 0; i < 3; i++ {
		if err := m.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := m.StepN(4); err != nil { // 7 used
		t.Fatalf("StepN(4): %v", err)
	}
	if err := m.StepN(3); err != nil { // 10 used: exactly the budget
		t.Fatalf("StepN(3): %v", err)
	}
	if err := m.StepN(2); !errors.Is(err, backend.ErrStepBudget) {
		t.Errorf("StepN past budget = %v, want ErrStepBudget", err)
	}
}
