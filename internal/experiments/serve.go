package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// Serve is the load-generator experiment for the lolserv execution
// service: it stands up the real HTTP handler in-process, drives it with
// `clients` concurrent connections issuing `requests` jobs each over a
// mixed working set (several programs × all three backends), and reports
// throughput, compiled-program cache hit rate, and the latency
// distribution (p50/p90/p99). This is the measurable form of the
// ROADMAP's serve-heavy-traffic goal: the program cache should absorb
// every frontend cost after the first sight of each program, and the
// bounded worker pool should keep tail latency finite under saturation.
// The returned metrics feed BENCH_serve.json (`lolbench serve -bench-json`).
func Serve(w io.Writer, clients, requests, workers int) (*ServeMetrics, error) {
	if clients <= 0 {
		clients = 8
	}
	if requests <= 0 {
		requests = 50
	}
	if workers <= 0 {
		workers = 4
	}

	srv := server.New(server.Options{
		Workers:    workers,
		QueueDepth: clients * 4,
		CacheSize:  64,
		// This scenario measures the execution/pool path: with the
		// result cache on, the repeating (src, backend, np, seed) tuples
		// would degenerate into lookups and the latency numbers would
		// stop meaning what the doc comment says. ServeZipf is the
		// designated cache-on measurement.
		ResultCacheSize: -1,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The working set: small, distinct programs so the run is dominated by
	// service overhead rather than program runtime, mixed across engines.
	programs := []string{
		"HAI 1.2\nVISIBLE SMOOSH \"PE \" AN ME MKAY\nKTHXBYE",
		"HAI 1.2\nI HAS A x ITZ 0\nIM IN YR l UPPIN YR i TIL BOTH SAEM i AN 100\n  x R SUM OF x AN i\nIM OUTTA YR l\nVISIBLE x\nKTHXBYE",
		GenMonteCarlo(200, 2),
		"HAI 1.2\nWE HAS A c ITZ A NUMBR AN ITZ ME\nHUGZ\nVISIBLE SUM OF c AN MAH FRENZ\nKTHXBYE",
	}
	nps := []int{1, 2, 2, 2}
	backends := core.BackendNames()

	var (
		mu        sync.Mutex
		latencies []time.Duration
		failures  int
		firstErr  error
	)
	client := ts.Client()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				i := (c + r) % len(programs)
				req := server.RunRequest{
					Src:     programs[i],
					NP:      nps[i],
					Backend: backends[(c+r)%len(backends)],
					Seed:    1,
				}
				body, err := json.Marshal(req)
				if err != nil {
					recordFailure(&mu, &failures, &firstErr, err)
					continue
				}
				t0 := time.Now()
				resp, err := client.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
				lat := time.Since(t0)
				if err != nil {
					recordFailure(&mu, &failures, &firstErr, err)
					continue
				}
				var rr server.RunResponse
				err = json.NewDecoder(resp.Body).Decode(&rr)
				resp.Body.Close()
				switch {
				case err != nil:
					recordFailure(&mu, &failures, &firstErr, err)
				case resp.StatusCode != http.StatusOK || rr.Outcome != server.OutcomeOK:
					recordFailure(&mu, &failures, &firstErr,
						fmt.Errorf("job failed: status %d outcome %q: %s", resp.StatusCode, rr.Outcome, rr.Error))
				default:
					mu.Lock()
					latencies = append(latencies, lat)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := srv.Stats()
	// Server-side attribution, read back through the same front door an
	// operator's Prometheus would use.
	queueP99, stageP99, err := obsScrape(client, ts.URL)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	total := clients * requests
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	m := &ServeMetrics{
		Scenario: "mixed", Clients: clients, Requests: requests, Workers: workers,
		ReqPerSec:           float64(total) / elapsed.Seconds(),
		P50MS:               ms(quantile(latencies, 0.50)),
		P90MS:               ms(quantile(latencies, 0.90)),
		P99MS:               ms(quantile(latencies, 0.99)),
		ProgramCacheHitRate: st.Cache.HitRate(),
		TierRates:           tierRates(st),
		Failures:            failures,
		QueueWaitP99MS:      queueP99,
		StageP99MS:          stageP99,
	}
	fmt.Fprintf(w, "serve — lolserv load experiment (the production-service side of §VI's launcher)\n")
	fmt.Fprintf(w, "%-26s %d clients x %d requests, %d workers, %d distinct programs x %d backends\n",
		"workload:", clients, requests, workers, len(programs), len(backends))
	fmt.Fprintf(w, "%-26s %d ok, %d failed, %.0f req/s over %.2fs\n",
		"throughput:", len(latencies), failures, float64(total)/elapsed.Seconds(), elapsed.Seconds())
	fmt.Fprintf(w, "%-26s %.1f%% (%d hits / %d lookups; %d unique compiles, %d evictions)\n",
		"program cache hit rate:", 100*st.Cache.HitRate(), st.Cache.Hits, st.Cache.Hits+st.Cache.Misses,
		st.Cache.Misses, st.Cache.Evicted)
	if len(latencies) > 0 {
		fmt.Fprintf(w, "%-26s p50 %s   p90 %s   p99 %s   max %s\n", "request latency:",
			quantile(latencies, 0.50), quantile(latencies, 0.90),
			quantile(latencies, 0.99), latencies[len(latencies)-1].Round(time.Microsecond))
	}
	printStageAttribution(w, queueP99, stageP99)
	if firstErr != nil {
		return nil, fmt.Errorf("serve: %d/%d requests failed; first failure: %w", failures, total, firstErr)
	}
	return m, nil
}

func recordFailure(mu *sync.Mutex, failures *int, firstErr *error, err error) {
	mu.Lock()
	*failures++
	if *firstErr == nil {
		*firstErr = err
	}
	mu.Unlock()
}

// quantile reads the q-quantile from sorted latencies.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i].Round(time.Microsecond)
}
