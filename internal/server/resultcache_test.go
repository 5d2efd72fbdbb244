package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gogen"
	"repro/internal/native"
)

// sumSrc builds a small pure-compute program (cacheable at any NP):
// every PE sums 0..bound-1 and prints the total.
func sumSrc(bound int) string {
	return fmt.Sprintf(`HAI 1.2
I HAS A x ITZ 0
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN %d
  x R SUM OF x AN i
IM OUTTA YR l
VISIBLE x
KTHXBYE`, bound)
}

// TestResultKeyDiscriminates: every launch parameter that can change the
// response must change the key. The same program resubmitted with a
// different stdin, seed, NP, backend, or step budget is a different job
// and must execute, never be answered from the stored result.
func TestResultKeyDiscriminates(t *testing.T) {
	stdinSrc := "HAI 1.2\nI HAS A x\nGIMMEH x\nVISIBLE x\nKTHXBYE"
	randSrc := "HAI 1.2\nVISIBLE WHATEVR\nKTHXBYE"
	base := RunRequest{Src: sumSrc(50), NP: 2}
	cases := []struct {
		name     string
		a, b     RunRequest
		wantSame bool // outputs must match even though both executed
	}{
		{"different stdin", RunRequest{Src: stdinSrc, Stdin: "one\n"}, RunRequest{Src: stdinSrc, Stdin: "two\n"}, false},
		{"different seed", RunRequest{Src: randSrc, Seed: 1}, RunRequest{Src: randSrc, Seed: 2}, false},
		{"different np", base, RunRequest{Src: base.Src, NP: 4}, false},
		{"different backend", base, RunRequest{Src: base.Src, NP: 2, Backend: "interp"}, true},
		{"different step budget", base, RunRequest{Src: base.Src, NP: 2, MaxSteps: 10_000}, true},
		{"different timeout", base, RunRequest{Src: base.Src, NP: 2, TimeoutMS: 900}, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := New(Options{Workers: 2})
			ra := s.Run(context.Background(), tc.a)
			rb := s.Run(context.Background(), tc.b)
			if ra.Outcome != OutcomeOK || rb.Outcome != OutcomeOK {
				t.Fatalf("outcomes %q/%q (%s/%s)", ra.Outcome, rb.Outcome, ra.Error, rb.Error)
			}
			if rb.ResultCacheHit {
				t.Fatalf("second job was served from the first job's result")
			}
			if st := s.Stats(); st.JobsRun != 2 {
				t.Fatalf("jobs_run = %d, want 2 executions", st.JobsRun)
			}
			if same := ra.Output == rb.Output; same != tc.wantSame {
				t.Errorf("output equality = %v, want %v (%q vs %q)", same, tc.wantSame, ra.Output, rb.Output)
			}
		})
	}
}

// TestUnstorableRunsNeverCached: budget kills and truncated output must
// never be stored — an identical resubmission executes again.
func TestUnstorableRunsNeverCached(t *testing.T) {
	t.Run("budget kill", func(t *testing.T) {
		s := New(Options{Workers: 2})
		req := RunRequest{Src: sumSrc(1_000_000), MaxSteps: 5_000}
		for i := 0; i < 2; i++ {
			resp := s.Run(context.Background(), req)
			if resp.Outcome != OutcomeBudget {
				t.Fatalf("run %d: outcome %q (%s), want budget", i, resp.Outcome, resp.Error)
			}
			if resp.ResultCacheHit {
				t.Fatalf("run %d: budget-killed run was served from cache", i)
			}
		}
		if st := s.Stats(); st.JobsRun != 2 {
			t.Errorf("jobs_run = %d, want 2 (failed run must not be stored)", st.JobsRun)
		}
		if rs := s.results.Stats(); rs.Misses != 2 || rs.Hits != 0 {
			t.Errorf("result cache stats = %+v, want 2 misses / 0 hits", rs)
		}
	})
	t.Run("truncated output", func(t *testing.T) {
		s := New(Options{Workers: 2, MaxOutputBytes: 32})
		req := RunRequest{Src: `HAI 1.2
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 40
  VISIBLE "0123456789"
IM OUTTA YR l
KTHXBYE`}
		for i := 0; i < 2; i++ {
			resp := s.Run(context.Background(), req)
			if resp.Outcome != OutcomeOK || !resp.OutputTruncated {
				t.Fatalf("run %d: outcome %q truncated=%v, want ok+truncated", i, resp.Outcome, resp.OutputTruncated)
			}
			if resp.ResultCacheHit {
				t.Fatalf("run %d: truncated run was served from cache", i)
			}
		}
		if st := s.Stats(); st.JobsRun != 2 {
			t.Errorf("jobs_run = %d, want 2 (truncated run must not be stored)", st.JobsRun)
		}
	})
}

// TestAuditGatesCaching: programs the determinism audit rejects at NP>1
// (stdin arbitration, shared state, locks) are bypass-marked — they
// execute every time — while the same constructs at NP=1 are cacheable,
// because a single PE cannot race.
func TestAuditGatesCaching(t *testing.T) {
	gimmehSrc := "HAI 1.2\nI HAS A x\nGIMMEH x\nVISIBLE x\nKTHXBYE"
	sharedSrc := "HAI 1.2\nWE HAS A c ITZ A NUMBR AN ITZ ME\nHUGZ\nVISIBLE SUM OF c AN MAH FRENZ\nKTHXBYE"
	lockSrc := `HAI 1.2
WE HAS A x ITZ A NUMBR AN IM SHARIN IT
IM SRSLY MESIN WIF x
DUN MESIN WIF x
VISIBLE "OK"
KTHXBYE`

	cases := []struct {
		name      string
		req       RunRequest
		cacheable bool
	}{
		{"gimmeh np2", RunRequest{Src: gimmehSrc, NP: 2, Stdin: "a\nb\n"}, false},
		{"gimmeh np1", RunRequest{Src: gimmehSrc, NP: 1, Stdin: "a\n"}, true},
		{"shared np2", RunRequest{Src: sharedSrc, NP: 2}, false},
		{"shared np1", RunRequest{Src: sharedSrc, NP: 1}, true},
		{"locks np2", RunRequest{Src: lockSrc, NP: 2}, false},
		{"pure compute np4", RunRequest{Src: sumSrc(60), NP: 4}, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := New(Options{Workers: 2})
			first := s.Run(context.Background(), tc.req)
			second := s.Run(context.Background(), tc.req)
			if first.Outcome != OutcomeOK || second.Outcome != OutcomeOK {
				t.Fatalf("outcomes %q/%q (%s/%s)", first.Outcome, second.Outcome, first.Error, second.Error)
			}
			if second.ResultCacheHit != tc.cacheable {
				t.Errorf("second run cache hit = %v, want %v", second.ResultCacheHit, tc.cacheable)
			}
			wantRuns := int64(1)
			if !tc.cacheable {
				wantRuns = 2
			}
			if st := s.Stats(); st.JobsRun != wantRuns {
				t.Errorf("jobs_run = %d, want %d", st.JobsRun, wantRuns)
			}
			if !tc.cacheable {
				if rs := s.results.Stats(); rs.Bypassed == 0 {
					t.Errorf("result cache stats = %+v, want bypasses recorded", rs)
				}
			}
		})
	}
}

// TestResultCacheEviction: a one-entry cache alternating between two
// distinct jobs evicts on every switch yet stays correct — each answer
// matches the direct execution of that job.
func TestResultCacheEviction(t *testing.T) {
	s := New(Options{Workers: 2, ResultCacheSize: 1})
	reqs := []RunRequest{
		{Src: sumSrc(40)},
		{Src: sumSrc(41)},
	}
	want := make([]string, len(reqs))
	for i, req := range reqs {
		resp := s.Run(context.Background(), req)
		if resp.Outcome != OutcomeOK {
			t.Fatalf("seed run %d: %q (%s)", i, resp.Outcome, resp.Error)
		}
		want[i] = resp.Output
	}
	for round := 0; round < 3; round++ {
		for i, req := range reqs {
			resp := s.Run(context.Background(), req)
			if resp.Outcome != OutcomeOK || resp.Output != want[i] {
				t.Fatalf("round %d job %d: outcome %q output %q, want ok %q",
					round, i, resp.Outcome, resp.Output, want[i])
			}
		}
	}
	rs := s.results.Stats()
	if rs.Evicted == 0 {
		t.Errorf("result cache stats = %+v, want evictions under size 1", rs)
	}
	if rs.Size > 1 {
		t.Errorf("result cache size = %d, want <= 1", rs.Size)
	}
}

// TestResultCacheDisabled: ResultCacheSize < 0 turns the layer off —
// identical jobs always execute.
func TestResultCacheDisabled(t *testing.T) {
	s := New(Options{Workers: 2, ResultCacheSize: -1})
	req := RunRequest{Src: sumSrc(30)}
	for i := 0; i < 3; i++ {
		resp := s.Run(context.Background(), req)
		if resp.Outcome != OutcomeOK || resp.ResultCacheHit {
			t.Fatalf("run %d: %+v, want plain execution", i, resp)
		}
	}
	if st := s.Stats(); st.JobsRun != 3 {
		t.Errorf("jobs_run = %d, want 3", st.JobsRun)
	}
	if st := s.Stats(); st.ResultCache.Enabled {
		t.Errorf("stats report an enabled result cache: %+v", st.ResultCache)
	}
}

// TestSingleFlightExecution: many concurrent identical deterministic
// jobs coalesce onto exactly one execution; everyone gets the same
// bytes.
func TestSingleFlightExecution(t *testing.T) {
	s := New(Options{Workers: 4, QueueDepth: 64})
	req := RunRequest{Src: sumSrc(2_000), NP: 2}
	const n = 24
	outs := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := s.Run(context.Background(), req)
			if resp.Outcome != OutcomeOK {
				t.Errorf("req %d: outcome %q (%s)", i, resp.Outcome, resp.Error)
				return
			}
			outs[i] = resp.Output
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if outs[i] != outs[0] {
			t.Fatalf("req %d output %q differs from %q", i, outs[i], outs[0])
		}
	}
	if st := s.Stats(); st.JobsRun != 1 {
		t.Errorf("jobs_run = %d, want exactly 1 (singleflight)", st.JobsRun)
	}
	rs := s.results.Stats()
	if rs.Misses != 1 || rs.Hits+rs.Coalesced != n-1 {
		t.Errorf("result cache stats = %+v, want 1 miss and %d hits+coalesced", rs, n-1)
	}
}

// TestFailedLeaderWakesWaiters: when the leader of a coalesced group
// dies (budget kill), waiters must not be stuck or handed the nothing —
// they re-resolve, one becomes the next leader, and every request gets
// a classified response.
func TestFailedLeaderWakesWaiters(t *testing.T) {
	s := New(Options{Workers: 4, QueueDepth: 64})
	req := RunRequest{Src: sumSrc(1_000_000), MaxSteps: 20_000}
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := s.Run(context.Background(), req)
			if resp.Outcome != OutcomeBudget {
				t.Errorf("outcome %q (%s), want budget", resp.Outcome, resp.Error)
			}
			if !strings.Contains(resp.Error, "step budget") {
				t.Errorf("error %q does not mention the step budget", resp.Error)
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.JobsRun != n {
		t.Errorf("jobs_run = %d, want %d (failures are never shared)", st.JobsRun, n)
	}
}

// TestResultKeyTierSalt: the executing tier's version salt must be part
// of the result key. Two invariants ride on it: a result produced by a
// promoted binary can never answer an in-process job (or vice versa) —
// the native step budget is only a wall-clock approximation — and a
// gogen version bump must orphan every result cached from binaries of
// the old codegen, exactly as it orphans the binaries themselves.
func TestResultKeyTierSalt(t *testing.T) {
	prog := KeyOf(sumSrc(10))
	at := func(salt string) ResultKey {
		return resultKeyOf(prog, "compile", 2, 1, 1000, time.Second, "", salt)
	}
	inProc := at("")
	nativeV1 := at("native:gogen@g1")
	nativeV2 := at("native:gogen@g2")
	if inProc == nativeV1 || inProc == nativeV2 {
		t.Error("native-tier key collides with the in-process key")
	}
	if nativeV1 == nativeV2 {
		t.Error("gogen version bump does not change the native result key")
	}
	// The salt the server actually uses is pinned to the live gogen
	// version, so bumping gogen.Version invalidates stale native results
	// by construction.
	if want := "native:gogen@" + gogen.Version; (&native.Cache{}).Salt() != want {
		t.Errorf("cache salt = %q, want %q", (&native.Cache{}).Salt(), want)
	}
}
