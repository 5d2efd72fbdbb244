package conformance

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/shmem"
)

// TestDeadlockParity: a deadlocked program fails with shmem.ErrDeadlock
// and the same error text on every engine, in both scheduling modes and
// with both barrier algorithms — at once, not when its deadline runs
// out. Both programs deadlock deterministically at NP 2, so the text
// (which PE, which line) is fixed too.
func TestDeadlockParity(t *testing.T) {
	cases := []struct{ name, src string }{
		{"only PE 0 reaches HUGZ", `HAI 1.2
BOTH SAEM ME AN 0, O RLY?
YA RLY
  HUGZ
OIC
KTHXBYE`},
		{"PE 0 exits holding the lock PE 1 waits for", `HAI 1.2
WE HAS A l ITZ SRSLY A NUMBR AN IM SHARIN IT
BOTH SAEM ME AN 0, O RLY?
YA RLY
  IM SRSLY MESIN WIF l
  HUGZ
NO WAI
  HUGZ
  IM SRSLY MESIN WIF l
OIC
KTHXBYE`},
	}
	const deadline = 3 * time.Second
	for _, c := range cases {
		prog, err := core.Parse("deadlock.lol", c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var want string
		for _, eng := range Engines() {
			for _, mode := range []backend.SchedMode{backend.SchedGoroutines, backend.SchedWorkers} {
				for _, alg := range []shmem.BarrierAlg{shmem.BarrierCentral, shmem.BarrierDissemination} {
					run := fmt.Sprintf("%s/%s/%v/%v", c.name, eng, mode, alg)
					ctx, cancel := context.WithTimeout(context.Background(), deadline)
					start := time.Now()
					_, err := prog.Run(core.RunConfig{Backend: eng, Config: backend.Config{NP: 2, Sched: mode, Barrier: alg, Context: ctx}})
					took := time.Since(start)
					cancel()
					if !errors.Is(err, shmem.ErrDeadlock) {
						t.Errorf("%s: want ErrDeadlock, got %v", run, err)
						continue
					}
					if took > deadline/3 {
						t.Errorf("%s: deadlock reported after %v", run, took)
					}
					if want == "" {
						want = err.Error()
					} else if err.Error() != want {
						t.Errorf("%s: error text %q, want %q", run, err, want)
					}
				}
			}
		}
	}
}
