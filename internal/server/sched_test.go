package server

import (
	"context"
	"strings"
	"testing"
)

// barrierLoopSrc makes every PE cross six barriers before printing, so a
// worker-scheduled run must park and unpark each PE repeatedly — enough
// traffic to move every scheduler counter the server accumulates.
const barrierLoopSrc = `HAI 1.2
I HAS A r ITZ 0
IM IN YR rounds UPPIN YR r TIL BOTH SAEM r AN 6
  HUGZ
IM OUTTA YR rounds
VISIBLE SMOOSH "PE " AN ME MKAY
KTHXBYE`

// TestRunSchedWorkers drives the request-level scheduler selection end to
// end: a job asking for the worker scheduler must run to the same bytes
// as the goroutine-per-PE default, and its park/unpark traffic must show
// up in the server's aggregate scheduler stats (the /v1/stats "sched"
// block and the lolserv_sched_* metrics read the same counters).
func TestRunSchedWorkers(t *testing.T) {
	s := New(Options{Workers: 2, MaxNP: 16})
	defer s.Close()

	base := s.Run(context.Background(), RunRequest{
		Src: barrierLoopSrc, NP: 8, Backend: "vm", Sched: "goroutines",
	})
	if base.Outcome != OutcomeOK {
		t.Fatalf("goroutine-mode outcome %q (%s)", base.Outcome, base.Error)
	}
	if got := s.Stats().Sched; got.JobsWorkers != 0 {
		t.Fatalf("goroutine-mode run counted as a worker job: %+v", got)
	}

	// sched is not part of the result key, so the worker-mode request
	// takes another seed (barrierLoopSrc never draws from the RNG) to
	// execute rather than be answered from the first one's result.
	resp := s.Run(context.Background(), RunRequest{
		Src: barrierLoopSrc, NP: 8, Backend: "vm", Sched: "workers", Seed: 1,
	})
	if resp.Outcome != OutcomeOK {
		t.Fatalf("worker-mode outcome %q (%s)", resp.Outcome, resp.Error)
	}
	if resp.Output != base.Output {
		t.Errorf("worker-mode output diverged:\nworkers:    %q\ngoroutines: %q", resp.Output, base.Output)
	}
	if resp.ResultCacheHit {
		t.Error("worker-mode run answered from the result cache")
	}

	st := s.Stats().Sched
	if st.JobsWorkers != 1 {
		t.Errorf("sched.jobs_workers = %d, want 1", st.JobsWorkers)
	}
	if st.Parks == 0 {
		t.Error("sched.parks = 0; a six-barrier NP=8 run on two workers must park")
	}
	if st.Parks != st.Unparks {
		t.Errorf("sched.parks = %d != sched.unparks = %d after a quiescent run", st.Parks, st.Unparks)
	}

	bad := s.Run(context.Background(), RunRequest{Src: helloSrc, NP: 2, Sched: "fibers"})
	if bad.Outcome != OutcomeRejected || !strings.Contains(bad.Error, "fibers") {
		t.Errorf("bad sched value: outcome %q error %q, want rejection naming the value", bad.Outcome, bad.Error)
	}
}

// halfHugzSrc deadlocks: only PE 0 reaches HUGZ, and PE 1 exits.
const halfHugzSrc = `HAI 1.2
BOTH SAEM ME AN 0, O RLY?
YA RLY
  HUGZ
OIC
KTHXBYE`

// TestRunDeadlockSameInBothSchedModes: both scheduler modes detect the
// deadlock at once, so a deadlocked job gets the same outcome and error
// text whichever mode runs it — which is what lets sched stay out of
// the result-cache key.
func TestRunDeadlockSameInBothSchedModes(t *testing.T) {
	s := New(Options{Workers: 2, MaxNP: 16})
	defer s.Close()
	var resps []RunResponse
	for _, mode := range []string{"goroutines", "workers"} {
		resp := s.Run(context.Background(), RunRequest{
			Src: halfHugzSrc, NP: 2, Backend: "vm", Sched: mode, TimeoutMS: 3000,
		})
		if resp.Outcome != OutcomeRuntime || !strings.Contains(resp.Error, "deadlock") {
			t.Fatalf("%s: outcome %q (%s), want a deadlock runtime_error", mode, resp.Outcome, resp.Error)
		}
		resps = append(resps, resp)
	}
	if resps[0].Error != resps[1].Error {
		t.Errorf("error text differs by sched mode:\ngoroutines: %s\nworkers:    %s", resps[0].Error, resps[1].Error)
	}
}
