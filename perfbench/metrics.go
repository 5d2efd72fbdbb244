package main

import (
	"fmt"

	"repro/internal/server"
)

// metric is one reported number and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics of an untraced run: what a user of the
// toolchain or of lolserv sees.
var endToEnd = []metric{
	{"setup_s", "s"}, {"peak_rss_mb", "MB"},
	{"suite_ms.interp", "ms"}, {"suite_ms.vm", "ms"}, {"suite_ms.compile", "ms"}, {"suite_ms.vm-workers", "ms"},
	{"p50_ms.light", "ms"}, {"p99_ms.light", "ms"}, {"p50_ms.heavy", "ms"}, {"p99_ms.heavy", "ms"},
	{"max_rate_rps", "1/s"},
}

// perLayer are the traced pass's metrics. Each is measured on every
// workload, so some are 0 by construction on one: kernels and sync send
// no broken submission and no repeated request (the result-cache hit
// share and the parse_error, runtime_error, budget and timeout counts)
// and time their closed loops from the send (gen.late_ms.*); kernels and
// classroom run no program that takes a lock (shmem.lock_acquires and
// lock_contended_share). The comment on each group names the end-to-end
// metric it should move.
var perLayer = []metric{
	// lexer+parser and sema: classroom p50/p99/max_rate_rps; flat elsewhere.
	{"parser.us_per_kb", "us/KB"}, {"parser.allocs_per_kb", "count/KB"}, {"sema.us_per_kb", "us/KB"}, {"sema.allocs_per_kb", "count/KB"},
	// codegen: classroom, whose unique submissions all miss the program cache.
	{"vm.codegen_us", "us"}, {"vm.code_len", "count"}, {"compile.codegen_us", "us"},
	// engines: suite_ms.*; vm_over_compile has exec_ms.compile as its base.
	{"exec_ms.interp", "ms"}, {"exec_ms.vm", "ms"}, {"exec_ms.compile", "ms"}, {"exec_ms.vm-workers", "ms"}, {"vm_over_compile", "ratio"},
	// backend plumbing around the SPMD run: sync at NP 1024, short jobs.
	{"backend.overhead_us", "us"},
	// shmem and scheduler counts per suite pass: explain sync suite_ms.*.
	{"shmem.puts", "count"}, {"shmem.gets", "count"}, {"shmem.barriers", "count"}, {"shmem.lock_acquires", "count"}, {"shmem.lock_contended_share", "ratio"},
	{"sched.parks", "count"}, {"sched.unparks", "count"}, {"sched.unparks_minus_parks", "count"}, {"sched.yields", "count"},
	// shmem time: sync suite_ms.*; get/put allocs also kernels nbody and peak_rss_mb.
	{"shmem.us_per_sync_op.goroutines", "us"}, {"shmem.us_per_sync_op.workers", "us"},
	{"shmem.barrier_us.central.np16", "us"}, {"shmem.barrier_us.dissemination.np16", "us"},
	{"shmem.lock_handoff_us.goroutines", "us"}, {"shmem.lock_handoff_us.workers", "us"},
	{"shmem.get_ns", "ns"}, {"shmem.get_allocs", "count/op"}, {"shmem.put_ns", "ns"}, {"shmem.put_allocs", "count/op"},
	// server: queue wait moves p99_ms.heavy and max_rate_rps; hit shares move p50.
	{"server.queue_ms.p50", "ms"}, {"server.queue_ms.p99", "ms"}, {"server.exec_ms.p50", "ms"}, {"server.exec_ms.p99", "ms"},
	{"server.hist_p99_ms.queue_wait", "ms"}, {"server.hist_p99_ms.execute", "ms"},
	{"server.program_cache_hit_share", "ratio"}, {"server.result_cache_hit_share", "ratio"},
	{"server.outcome.ok", "count"}, {"server.outcome.parse_error", "count"}, {"server.outcome.runtime_error", "count"},
	{"server.outcome.budget", "count"}, {"server.outcome.timeout", "count"},
	// computed, not reported by the server: each miss replayed outside it.
	{"server.frontend_ms", "ms"},
	// HTTP: client latency minus queue, execution and frontend.
	{"http.overhead_ms.p50", "ms"},
	// load generator: validity of the open-loop numbers only.
	{"gen.late_ms.p99.light", "ms"}, {"gen.late_ms.p99.heavy", "ms"},
	// the benchmark's own cost
	{"trace.overhead_ms.suite", "ms"}, {"trace.spans", "count"},
}

// serverLayers derives the server, HTTP and generator metrics from the
// answered requests. The exact queue and execution quantiles come from
// each response's QueueMS and WallMS; the histogram estimates of the same
// quantiles from /metrics sit beside them as a fidelity baseline.
func serverLayers(phases []*phase, rec *recorder, histQ, histE float64, put func(string, float64)) {
	var queue, exec []float64
	var answered, progLookups, progHits, resultHits int
	outcomes := map[server.Outcome]float64{}
	for _, ph := range phases {
		for _, s := range ph.samples {
			if s.Dropped || s.Err != nil {
				continue
			}
			answered++
			r := s.Resp
			outcomes[r.Outcome]++
			queue = append(queue, r.QueueMS)
			if r.ResultCacheHit {
				resultHits++
				continue
			}
			if r.Outcome != server.OutcomeRejected && r.Outcome != server.OutcomeCancelled {
				progLookups++
				if r.CacheHit {
					progHits++
				}
			}
			if r.Tier != "" {
				exec = append(exec, r.WallMS)
			}
		}
	}
	put("server.queue_ms.p50", median(queue))
	put("server.queue_ms.p99", tailQuantile(queue, 0.99).Value)
	put("server.exec_ms.p50", median(exec))
	put("server.exec_ms.p99", tailQuantile(exec, 0.99).Value)
	put("server.hist_p99_ms.queue_wait", histQ)
	put("server.hist_p99_ms.execute", histE)
	fmt.Printf("quantile fidelity: queue_wait p99 exact %.4f ms, /metrics histogram %.4f ms; execute p99 exact %.4f ms, histogram %.4f ms\n",
		tailQuantile(queue, 0.99).Value, histQ, tailQuantile(exec, 0.99).Value, histE)
	put("server.program_cache_hit_share", share(progHits, progLookups))
	put("server.result_cache_hit_share", share(resultHits, answered))
	for _, o := range []server.Outcome{server.OutcomeOK, server.OutcomeParseError, server.OutcomeRuntime,
		server.OutcomeBudget, server.OutcomeTimeout} {
		put("server.outcome."+string(o), outcomes[o])
	}

	front, misses := frontendReplay(phases, rec)
	put("server.frontend_ms", median(misses))
	var httpMS []float64
	for k, ph := range phases {
		for i, s := range ph.samples {
			if !s.Dropped && s.Err == nil && (s.Resp.Outcome == server.OutcomeOK || s.Resp.Outcome == server.OutcomeParseError) {
				httpMS = append(httpMS, ms(s.Done.Sub(s.Sent))-s.Resp.QueueMS-s.Resp.WallMS-front[k][i])
			}
		}
	}
	put("http.overhead_ms.p50", median(httpMS))

	late := map[string][]float64{}
	for _, ph := range phases {
		late[ph.load] = append(late[ph.load], lateMS(ph.samples)...)
	}
	put("gen.late_ms.p99.light", tailQuantile(late["light"], 0.99).Value)
	put("gen.late_ms.p99.heavy", tailQuantile(late["heavy"], 0.99).Value)
}

func share(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}
