package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// ServeZipf is the hot-key batch scenario for the lolserv result cache:
// the classroom workload of the paper, scaled — many clients submit
// whole assignments as /v1/batch requests whose jobs are drawn
// zipfian-distributed from a small program set, so a handful of
// (program, NP, seed) keys dominate the traffic. The same deterministic
// workload runs twice, result cache on and off (`-result-cache=0`), and
// the report is the measured multiplier plus a byte-level check that
// both phases returned identical response bodies — the cache must buy
// speed, never different answers. The returned metrics feed
// BENCH_serve.json (`lolbench serve -bench-json`).
func ServeZipf(w io.Writer, clients, requests, workers int) (*ServeMetrics, error) {
	if clients <= 0 {
		clients = 8
	}
	if requests <= 0 {
		requests = 50
	}
	if workers <= 0 {
		workers = 4
	}

	// The working set: pure-compute kernels of graded cost, all of which
	// pass the determinism audit at any NP. The interpreter is the
	// engine a course defaults to, and the one whose re-execution is
	// most worth eliding.
	const nProgs = 8
	progs := make([]server.RunRequest, nProgs)
	for k := 0; k < nProgs; k++ {
		src := fmt.Sprintf(`HAI 1.2
I HAS A x ITZ 0
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN %d
  x R SUM OF x AN MOD OF i AN 7
IM OUTTA YR l
VISIBLE x
KTHXBYE`, 2000+1000*k)
		progs[k] = server.RunRequest{Src: src, NP: 1 + k%3, Backend: core.BackendInterp.String(), Seed: 1}
	}

	// semantic is the replayable part of a response: what the acceptance
	// check compares across phases. Timing and cache-diagnostic fields
	// legitimately differ.
	type semantic struct {
		Outcome server.Outcome
		Output  string
		Errout  string
		Error   string
	}

	const batchLen = 25
	type phaseObs struct {
		queueP99MS float64
		stageP99MS map[string]float64
	}
	runPhase := func(resultCache int) (reqps float64, bodies map[int]semantic, st server.Stats, po phaseObs, err error) {
		srv := server.New(server.Options{
			Workers:         workers,
			QueueDepth:      clients * batchLen * 2,
			CacheSize:       64,
			ResultCacheSize: resultCache,
		})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		client := ts.Client()

		bodies = make(map[int]semantic, nProgs)
		var mu sync.Mutex
		var firstErr error
		record := func(prog int, got semantic) {
			mu.Lock()
			defer mu.Unlock()
			if got.Outcome != server.OutcomeOK && firstErr == nil {
				firstErr = fmt.Errorf("program %d: outcome %q: %s", prog, got.Outcome, got.Error)
				return
			}
			if prev, ok := bodies[prog]; !ok {
				bodies[prog] = got
			} else if prev != got && firstErr == nil {
				firstErr = fmt.Errorf("program %d answered two different bodies within one phase", prog)
			}
		}

		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				// Deterministic per-client zipf stream: both phases draw
				// the exact same job sequence.
				zipf := rand.NewZipf(rand.New(rand.NewSource(int64(1000+c))), 1.4, 1, nProgs-1)
				sent := 0
				for sent < requests {
					n := batchLen
					if requests-sent < n {
						n = requests - sent
					}
					idxs := make([]int, n)
					batch := server.BatchRequest{Jobs: make([]server.RunRequest, n)}
					for i := range idxs {
						idxs[i] = int(zipf.Uint64())
						batch.Jobs[i] = progs[idxs[i]]
					}
					sent += n

					body, merr := json.Marshal(batch)
					if merr != nil {
						record(-1, semantic{Outcome: "error", Error: merr.Error()})
						continue
					}
					resp, perr := client.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
					if perr != nil {
						record(-1, semantic{Outcome: "error", Error: perr.Error()})
						continue
					}
					sc := bufio.NewScanner(resp.Body)
					sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
					got := 0
					for sc.Scan() {
						var item server.BatchItem
						if uerr := json.Unmarshal(sc.Bytes(), &item); uerr != nil {
							record(-1, semantic{Outcome: "error", Error: uerr.Error()})
							continue
						}
						got++
						record(idxs[item.Index], semantic{
							Outcome: item.Outcome, Output: item.Output,
							Errout: item.Errout, Error: item.Error,
						})
					}
					resp.Body.Close()
					if got != n {
						record(-1, semantic{Outcome: "error",
							Error: fmt.Sprintf("batch returned %d/%d items", got, n)})
					}
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		st = srv.Stats()
		// Scrape while the test server is still up: server-side queue and
		// stage attribution for this phase.
		if po.queueP99MS, po.stageP99MS, err = obsScrape(client, ts.URL); err != nil {
			return 0, nil, st, po, err
		}
		return float64(clients*requests) / elapsed.Seconds(), bodies, st, po, firstErr
	}

	cachedRPS, cachedBodies, cachedStats, cachedObs, err := runPhase(0 /* default size */)
	if err != nil {
		return nil, fmt.Errorf("servezipf (cache on): %w", err)
	}
	plainRPS, plainBodies, plainStats, _, err := runPhase(-1 /* -result-cache=0 */)
	if err != nil {
		return nil, fmt.Errorf("servezipf (cache off): %w", err)
	}

	// The correctness half of the claim: caching must be invisible in
	// the bytes.
	for prog, want := range plainBodies {
		if got, ok := cachedBodies[prog]; !ok || got != want {
			return nil, fmt.Errorf("servezipf: program %d: cached body differs from uncached execution\ncached:   %+v\nuncached: %+v",
				prog, cachedBodies[prog], want)
		}
	}

	rc := cachedStats.ResultCache
	total := int64(clients * requests)
	m := &ServeMetrics{
		Scenario: "zipf", Clients: clients, Requests: requests, Workers: workers,
		ReqPerSec: cachedRPS, BaselineReqPerSec: plainRPS, Speedup: cachedRPS / plainRPS,
		ProgramCacheHitRate: cachedStats.Cache.HitRate(),
		ResultCacheHitRate:  rc.HitRate(),
		TierRates:           tierRates(cachedStats),
		QueueWaitP99MS:      cachedObs.queueP99MS,
		StageP99MS:          cachedObs.stageP99MS,
	}
	fmt.Fprintf(w, "servezipf — hot-key batch workload over /v1/batch (result cache on vs -result-cache=0)\n")
	fmt.Fprintf(w, "%-26s %d clients x %d jobs in batches of %d; zipf(1.4) over %d programs x NP{1,2,3}; %d workers\n",
		"workload:", clients, requests, batchLen, nProgs, workers)
	fmt.Fprintf(w, "%-26s %.0f req/s with result cache, %.0f req/s without\n", "throughput:", cachedRPS, plainRPS)
	fmt.Fprintf(w, "%-26s %.1fx on identical response bodies (verified per program)\n", "speedup:", cachedRPS/plainRPS)
	fmt.Fprintf(w, "%-26s %d hits + %d coalesced + %d misses over %d jobs (%.1f%% served without executing; %d executions vs %d uncached)\n",
		"result cache:", rc.Hits, rc.Coalesced, rc.Misses, total,
		100*float64(rc.Hits+rc.Coalesced)/float64(total), cachedStats.JobsRun, plainStats.JobsRun)
	printStageAttribution(w, cachedObs.queueP99MS, cachedObs.stageP99MS)
	return m, nil
}
