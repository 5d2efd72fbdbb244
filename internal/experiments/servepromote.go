package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/native"
	"repro/internal/server"
)

// ServeMetrics is the machine-readable result of one serve scenario,
// emitted into BENCH_serve.json by `lolbench serve -bench-json`. For the
// two-phase scenarios (zipf, promote) ReqPerSec is the optimized phase
// and BaselineReqPerSec the control; Speedup is their ratio.
type ServeMetrics struct {
	Scenario          string  `json:"scenario"`
	Clients           int     `json:"clients"`
	Requests          int     `json:"requests"`
	Workers           int     `json:"workers"`
	ReqPerSec         float64 `json:"req_per_sec"`
	BaselineReqPerSec float64 `json:"baseline_req_per_sec,omitempty"`
	Speedup           float64 `json:"speedup,omitempty"`
	P50MS             float64 `json:"p50_ms,omitempty"`
	P90MS             float64 `json:"p90_ms,omitempty"`
	P99MS             float64 `json:"p99_ms,omitempty"`
	// Cache hit rates, 0..1.
	ProgramCacheHitRate float64 `json:"program_cache_hit_rate"`
	ResultCacheHitRate  float64 `json:"result_cache_hit_rate"`
	// TierRates is the fraction of executed jobs answered by each
	// execution tier (interp/vm/compile/native), 0..1 each.
	TierRates map[string]float64 `json:"tier_rates,omitempty"`
	Failures  int                `json:"failures"`
	// QueueWaitP99MS and StageP99MS are server-side attribution, scraped
	// from the measured server's GET /metrics histograms after the timed
	// phase (the optimized phase for two-phase scenarios): how long jobs
	// waited for a worker, and where request time went stage by stage.
	QueueWaitP99MS float64            `json:"queue_wait_p99_ms,omitempty"`
	StageP99MS     map[string]float64 `json:"stage_p99_ms,omitempty"`
}

// tierRates converts the server's per-tier counters into fractions.
func tierRates(st server.Stats) map[string]float64 {
	total := st.Tiers.Interp + st.Tiers.VM + st.Tiers.Compile + st.Tiers.Native
	if total == 0 {
		return nil
	}
	return map[string]float64{
		"interp":  float64(st.Tiers.Interp) / float64(total),
		"vm":      float64(st.Tiers.VM) / float64(total),
		"compile": float64(st.Tiers.Compile) / float64(total),
		"native":  float64(st.Tiers.Native) / float64(total),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ServePromote measures what the native tier buys on a hot CPU-bound
// program: the same interp-requested Monte Carlo workload (varying seeds,
// NP=2 so the shared-array audit bypasses the result cache and every
// request really executes) is driven twice — once against a server with
// promotion enabled, after waiting for the background build to land, and
// once with -native-threshold=0. The report is the measured multiplier
// plus a per-seed check that both phases returned semantically identical
// bodies: promotion must buy speed, never different answers.
//
// When the go toolchain is unavailable the scenario reports itself
// skipped and returns no error, so `lolbench all` stays runnable on
// toolchain-less hosts.
func ServePromote(w io.Writer, clients, requests, workers int) (*ServeMetrics, error) {
	if clients <= 0 {
		clients = 8
	}
	if requests <= 0 {
		requests = 50
	}
	if workers <= 0 {
		workers = 4
	}
	const (
		darts     = 40_000
		np        = 2
		seedSpace = 16
		threshold = 3
	)
	src := GenMonteCarlo(darts, np)

	cacheDir, err := os.MkdirTemp("", "lolbench-native-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cacheDir)
	nativeCache, err := native.NewCache(cacheDir, "")
	if err != nil {
		fmt.Fprintf(w, "servepromote — skipped: %v\n", err)
		return nil, nil
	}

	// semantic is the replayable part of a response; tier, backend and
	// timing fields legitimately differ between phases.
	type semantic struct {
		Outcome server.Outcome
		Output  string
		Errout  string
		Error   string
	}

	type phaseObs struct {
		queueP99MS float64
		stageP99MS map[string]float64
	}
	runPhase := func(opts server.Options) (reqps float64, lats []time.Duration,
		bodies map[int64]semantic, nativeRuns int, st server.Stats, po phaseObs, err error) {
		srv := server.New(opts)
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		client := ts.Client()

		post := func(seed int64) (server.RunResponse, time.Duration, error) {
			req := server.RunRequest{Src: src, NP: np, Backend: core.BackendInterp.String(), Seed: seed}
			body, merr := json.Marshal(req)
			if merr != nil {
				return server.RunResponse{}, 0, merr
			}
			t0 := time.Now()
			resp, perr := client.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
			lat := time.Since(t0)
			if perr != nil {
				return server.RunResponse{}, lat, perr
			}
			defer resp.Body.Close()
			var rr server.RunResponse
			if derr := json.NewDecoder(resp.Body).Decode(&rr); derr != nil {
				return server.RunResponse{}, lat, derr
			}
			if resp.StatusCode != http.StatusOK || rr.Outcome != server.OutcomeOK {
				return rr, lat, fmt.Errorf("job failed: status %d outcome %q: %s", resp.StatusCode, rr.Outcome, rr.Error)
			}
			return rr, lat, nil
		}

		// Promotion warm-up: cross the hit threshold, then wait for the
		// background `go build` to publish the binary. On the control
		// server (no native tier) Ready stays 0 and the deadline passes
		// harmlessly fast because the loop exits on threshold instead.
		if opts.NativeThreshold > 0 {
			for i := 0; i < threshold+1; i++ {
				if _, _, err = post(1); err != nil {
					return 0, nil, nil, 0, st, po, fmt.Errorf("warm-up: %w", err)
				}
			}
			deadline := time.Now().Add(120 * time.Second)
			for srv.Stats().Native.Ready == 0 {
				if ns := srv.Stats().Native; ns.Unsupported > 0 || ns.BuildFailures > 0 {
					return 0, nil, nil, 0, st, po, fmt.Errorf("warm-up: promotion failed (%d unsupported, %d build failures)",
						ns.Unsupported, ns.BuildFailures)
				}
				if time.Now().After(deadline) {
					return 0, nil, nil, 0, st, po, fmt.Errorf("warm-up: binary not ready after 120s")
				}
				time.Sleep(50 * time.Millisecond)
			}
		}

		bodies = make(map[int64]semantic, seedSpace)
		var mu sync.Mutex
		var firstErr error
		record := func(seed int64, got semantic, lat time.Duration, perr error) {
			mu.Lock()
			defer mu.Unlock()
			if perr != nil {
				if firstErr == nil {
					firstErr = perr
				}
				return
			}
			lats = append(lats, lat)
			if prev, ok := bodies[seed]; !ok {
				bodies[seed] = got
			} else if prev != got && firstErr == nil {
				firstErr = fmt.Errorf("seed %d answered two different bodies within one phase", seed)
			}
		}

		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for r := 0; r < requests; r++ {
					seed := int64(1 + (c*requests+r)%seedSpace)
					rr, lat, perr := post(seed)
					record(seed, semantic{
						Outcome: rr.Outcome, Output: rr.Output,
						Errout: rr.Errout, Error: rr.Error,
					}, lat, perr)
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		st = srv.Stats()
		// Scrape while the test server is still up: server-side queue and
		// stage attribution for this phase, including the native execute
		// stage once promotion has landed.
		if po.queueP99MS, po.stageP99MS, err = obsScrape(client, ts.URL); err != nil {
			return 0, nil, nil, 0, st, po, err
		}
		return float64(clients*requests) / elapsed.Seconds(), lats, bodies,
			int(st.Tiers.Native), st, po, firstErr
	}

	base := server.Options{Workers: workers, QueueDepth: clients * 4, CacheSize: 64}

	promoted := base
	promoted.NativeCache = nativeCache
	promoted.NativeThreshold = threshold
	natRPS, natLats, natBodies, nativeRuns, natStats, natObs, err := runPhase(promoted)
	if err != nil {
		return nil, fmt.Errorf("servepromote (native): %w", err)
	}
	plainRPS, _, plainBodies, _, _, _, err := runPhase(base)
	if err != nil {
		return nil, fmt.Errorf("servepromote (threshold 0): %w", err)
	}

	// The correctness half of the claim: promotion must be invisible in
	// the semantic bytes, seed by seed.
	for seed, want := range plainBodies {
		if got, ok := natBodies[seed]; !ok || got != want {
			return nil, fmt.Errorf("servepromote: seed %d: native body differs from in-process execution\nnative:     %+v\nin-process: %+v",
				seed, natBodies[seed], want)
		}
	}

	sort.Slice(natLats, func(i, j int) bool { return natLats[i] < natLats[j] })
	total := clients * requests
	m := &ServeMetrics{
		Scenario: "promote", Clients: clients, Requests: requests, Workers: workers,
		ReqPerSec: natRPS, BaselineReqPerSec: plainRPS, Speedup: natRPS / plainRPS,
		P50MS: ms(quantile(natLats, 0.50)), P90MS: ms(quantile(natLats, 0.90)), P99MS: ms(quantile(natLats, 0.99)),
		ProgramCacheHitRate: natStats.Cache.HitRate(),
		ResultCacheHitRate:  natStats.ResultCache.HitRate(),
		TierRates:           tierRates(natStats),
		Failures:            total - len(natLats),
		QueueWaitP99MS:      natObs.queueP99MS,
		StageP99MS:          natObs.stageP99MS,
	}

	nt := natStats.Native
	fmt.Fprintf(w, "servepromote — hot-program promotion to gogen-compiled binaries (vs -native-threshold=0)\n")
	fmt.Fprintf(w, "%-26s %d clients x %d requests; montecarlo %dk darts np=%d, backend=interp, %d seeds; %d workers\n",
		"workload:", clients, requests, darts/1000, np, seedSpace, workers)
	fmt.Fprintf(w, "%-26s %.0f req/s promoted, %.0f req/s in-process\n", "throughput:", natRPS, plainRPS)
	fmt.Fprintf(w, "%-26s %.1fx on semantically identical response bodies (verified per seed)\n", "speedup:", m.Speedup)
	fmt.Fprintf(w, "%-26s %d of %d timed jobs ran native (%d promotions, %d fallbacks, %d demotions)\n",
		"native tier:", nativeRuns, total, nt.Promotions, nt.Fallbacks, nt.Demotions)
	fmt.Fprintf(w, "%-26s p50 %s   p90 %s   p99 %s\n", "request latency (native):",
		quantile(natLats, 0.50), quantile(natLats, 0.90), quantile(natLats, 0.99))
	printStageAttribution(w, natObs.queueP99MS, natObs.stageP99MS)
	return m, nil
}
