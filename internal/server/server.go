// Package server is the concurrent job-execution service behind cmd/lolserv:
// it accepts parallel-LOLCODE source, serves the compiled form out of an
// LRU program cache (parse+sema+codegen happen once per unique program,
// not per request), and executes jobs on a bounded worker pool with a
// per-program fairness queue. Every job runs under an enforced resource
// budget — a wall-clock deadline and a per-PE step budget threaded through
// backend.Config — so a hostile or buggy program (an infinite IM IN YR
// LOOP, a PE that never reaches HUGZ) is killed and its PEs released
// instead of wedging a worker.
//
// Above the program cache sits a second layer: a deterministic result
// cache keyed by (program sha256, backend, NP, seed, clamped budgets,
// stdin), with singleflight coalescing of identical in-flight jobs. A
// run may only be stored and replayed when its determinism audit passes
// (backend.Audit — no stdin arbitration, shared state, or locks at
// NP>1), output was grouped, and the run completed ok and untruncated;
// everything else falls through to execution. Clients may also submit a
// whole list of jobs as one batch (Server.RunBatch, POST /v1/batch),
// streamed back as NDJSON in completion order through the same fairness
// pool and budgets.
//
// The execution ladder has four tiers. Three run in-process — the
// tree-walking interpreter, the bytecode VM, and the closure compiler —
// and a fourth, optional tier promotes hot programs out of the process
// entirely: when a program's cache hit count crosses a threshold, a
// background builder lowers it to Go (internal/gogen), compiles a
// standalone binary into an on-disk cache keyed by source hash and
// codegen version, and subsequent jobs run it as a subprocess
// (internal/native). Promotion is invisible to clients except in speed
// and the response's tier field: all four tiers are semantically
// identical (byte-identical grouped output for deterministic programs,
// enforced by differential tests), unsupported programs (SRS) are
// detected up front and stay in-process, and any native infrastructure
// failure demotes the program and re-runs the job in-process.
//
// The whole request path is observable through internal/obs: every
// request gets an X-Request-Id, a lifecycle span timed stage by stage
// (admission, result cache, queue wait, program cache, compile,
// execute, respond), and one structured slog line; counters and
// latency histograms are exposed in Prometheus text format at GET
// /metrics, the slowest recent requests with stage breakdowns at GET
// /v1/debug/slow, and Server.DebugHandler serves net/http/pprof for a
// separate operator-only listener. See README.md's Observability
// section.
//
// The paper's toolchain stops at a batch launcher (coprsh/aprun); this
// package is the repository's answer to the ROADMAP's production-service
// north star: the same three engines, behind an API that serves a
// course's worth of identical submissions at lookup speed and survives
// concurrent untrusted traffic.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/native"
	"repro/internal/obs"
	"repro/internal/shmem"
)

// Options configures a Server. The zero value is usable: every field has
// a production-shaped default.
type Options struct {
	// Workers bounds concurrently executing jobs (default 4). Each job may
	// itself run many PE goroutines, so this is the unit of admission
	// control, not of parallelism.
	Workers int
	// QueueDepth bounds jobs waiting for a worker (default 64); beyond it
	// submissions fail fast with ErrBusy.
	QueueDepth int
	// CacheSize bounds the compiled-program LRU (default 128 programs).
	CacheSize int
	// ResultCacheSize bounds the deterministic-result LRU (default 512
	// entries, counting stored results and bypass markers alike). A
	// negative value disables result caching entirely: every job
	// executes. Only jobs whose determinism audit passes are ever
	// stored; see backend.Audit.
	ResultCacheSize int
	// MaxBatchJobs caps the number of jobs one /v1/batch request may
	// carry (default 256).
	MaxBatchJobs int
	// MaxBatchBytes caps the /v1/batch request body (default 16 MiB).
	MaxBatchBytes int
	// MaxNP caps the per-job PE count (default 64).
	MaxNP int
	// MaxSrcBytes caps program size (default 1 MiB).
	MaxSrcBytes int
	// MaxOutputBytes caps each job's retained VISIBLE (and, separately,
	// INVISIBLE) output (default 1 MiB); overflow is dropped and flagged
	// in the response, bounding server memory against print floods.
	MaxOutputBytes int
	// DefaultTimeout and MaxTimeout bound each job's wall clock (defaults
	// 5s and 30s). A request may ask for less than the max, never more.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DefaultStepBudget and MaxStepBudget bound each PE's step count
	// (defaults 50M and 500M). A request may ask for less, never more.
	DefaultStepBudget int64
	MaxStepBudget     int64
	// Sched is the default SPMD scheduler mode for jobs that don't set
	// the request field: SchedAuto (zero value) lets capable engines use
	// the bounded worker pool at high NP, SchedGoroutines forces a
	// goroutine per PE, SchedWorkers forces the pool.
	Sched backend.SchedMode

	// NativeCache enables the fourth execution tier: programs whose
	// program-cache hit count reaches NativeThreshold are compiled by
	// internal/gogen into standalone binaries (stored in this cache) and
	// subsequent jobs for them run as subprocesses. nil, or a
	// NativeThreshold of 0, disables the tier. The caller owns cache
	// construction because it can fail (missing go toolchain) and New
	// cannot — cmd/lolserv warns and runs three-tiered when it does.
	NativeCache     *native.Cache
	NativeThreshold int64
	// NativeBuilds bounds concurrent background `go build`s (default 1).
	NativeBuilds int
	// NativeMemBytes is each native child's RLIMIT_AS cap (default 4 GiB;
	// -1 disables). A child that outgrows it dies and the job falls back
	// in-process.
	NativeMemBytes int64
	// NativeNoSandbox skips the child self-jail entirely (benchmarking
	// only; the child reports sandbox level "none").
	NativeNoSandbox bool
	// NativeBreakerThreshold trips the tier-wide circuit breaker after
	// this many infrastructure failures inside NativeBreakerWindow
	// (defaults 5 and 30s); the breaker then keeps all jobs in-process
	// for NativeBreakerCooldown (default 15s) before probing the tier
	// with single jobs until one succeeds.
	NativeBreakerThreshold int
	NativeBreakerWindow    time.Duration
	NativeBreakerCooldown  time.Duration

	// Logger receives one structured line per HTTP request (request ID,
	// route, status, outcome, per-stage timings). nil discards logs.
	Logger *slog.Logger
	// SlowWindow sizes the ring of recent request spans behind
	// GET /v1/debug/slow (default 64).
	SlowWindow int
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Workers <= 0 {
		out.Workers = 4
	}
	if out.QueueDepth <= 0 {
		out.QueueDepth = 64
	}
	if out.CacheSize <= 0 {
		out.CacheSize = 128
	}
	if out.ResultCacheSize == 0 {
		out.ResultCacheSize = 512
	}
	if out.MaxBatchJobs <= 0 {
		out.MaxBatchJobs = 256
	}
	if out.MaxBatchBytes <= 0 {
		out.MaxBatchBytes = 16 << 20
	}
	if out.MaxNP <= 0 {
		out.MaxNP = 64
	}
	if out.MaxSrcBytes <= 0 {
		out.MaxSrcBytes = 1 << 20
	}
	if out.MaxOutputBytes <= 0 {
		out.MaxOutputBytes = 1 << 20
	}
	if out.DefaultTimeout <= 0 {
		out.DefaultTimeout = 5 * time.Second
	}
	if out.MaxTimeout <= 0 {
		out.MaxTimeout = 30 * time.Second
	}
	if out.DefaultStepBudget <= 0 {
		out.DefaultStepBudget = 50_000_000
	}
	if out.MaxStepBudget <= 0 {
		out.MaxStepBudget = 500_000_000
	}
	if out.NativeMemBytes == 0 {
		out.NativeMemBytes = 4 << 30
	}
	if out.NativeBreakerThreshold <= 0 {
		out.NativeBreakerThreshold = 5
	}
	if out.NativeBreakerWindow <= 0 {
		out.NativeBreakerWindow = 30 * time.Second
	}
	if out.NativeBreakerCooldown <= 0 {
		out.NativeBreakerCooldown = 15 * time.Second
	}
	if out.Logger == nil {
		out.Logger = slog.New(slog.DiscardHandler)
	}
	if out.SlowWindow <= 0 {
		out.SlowWindow = 64
	}
	return out
}

// Server executes LOLCODE jobs. Create with New; safe for concurrent use.
type Server struct {
	opts    Options
	cache   *Cache
	results *resultCache // nil when result caching is disabled
	pool    *pool
	native  *nativeTier // nil when the native tier is disabled
	metrics *serverMetrics
	logger  *slog.Logger
	start   time.Time

	jobsRun      obs.Counter
	jobsOK       obs.Counter
	jobsFailed   obs.Counter
	jobsRejected obs.Counter
	batchesRun   obs.Counter
	inFlight     obs.Gauge

	// Worker-scheduler activity, accumulated from each job's world
	// snapshot after the run (shmem.SchedSnapshot).
	schedJobs     obs.Counter // jobs that ran under the worker scheduler
	schedParks    obs.Counter
	schedUnparks  obs.Counter
	schedSpurious obs.Counter
	schedYields   obs.Counter
}

// New builds a Server.
func New(opts Options) *Server {
	o := opts.withDefaults()
	s := &Server{
		opts:   o,
		cache:  NewCache(o.CacheSize),
		pool:   newPool(o.Workers, o.QueueDepth),
		logger: o.Logger,
		start:  time.Now(),
	}
	if o.ResultCacheSize > 0 {
		s.results = newResultCache(o.ResultCacheSize)
	}
	if o.NativeCache != nil && o.NativeThreshold > 0 {
		s.native = newNativeTier(o)
	}
	s.metrics = newServerMetrics(s, o.SlowWindow)
	return s
}

// Close stops the native tier's background builders (aborting any
// in-flight `go build`). In-flight jobs are unaffected. Safe to call on
// a server without the native tier, and at most once.
func (s *Server) Close() {
	if s.native != nil {
		s.native.close()
	}
}

// RunRequest is one job: a program plus its launch parameters.
type RunRequest struct {
	// Src is the LOLCODE source (required).
	Src string `json:"src"`
	// NP is the PE count; 0 means 1.
	NP int `json:"np"`
	// Backend selects the engine: "interp", "vm", or "compile" (default).
	Backend string `json:"backend,omitempty"`
	// Stdin feeds GIMMEH.
	Stdin string `json:"stdin,omitempty"`
	// Seed is the base RNG seed (PE i uses Seed+i).
	Seed int64 `json:"seed,omitempty"`
	// TimeoutMS overrides the server's default job deadline, clamped to
	// the server max; 0 uses the default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxSteps overrides the server's default per-PE step budget, clamped
	// to the server max; 0 uses the default.
	MaxSteps int64 `json:"max_steps,omitempty"`
	// Sched selects the SPMD execution mode on engines with resumable
	// state: "goroutines" (one goroutine per PE), "workers" (bounded
	// worker pool), or "auto" (workers at high NP). Empty uses the
	// server's -sched default. Output is byte-identical across modes.
	Sched string `json:"sched,omitempty"`
}

// Outcome classifies how a job ended.
type Outcome string

// Job outcomes.
const (
	OutcomeOK         Outcome = "ok"            // ran to completion
	OutcomeParseError Outcome = "parse_error"   // frontend rejected the program
	OutcomeRuntime    Outcome = "runtime_error" // program died mid-run
	OutcomeBudget     Outcome = "budget"        // a PE exceeded the step budget
	OutcomeTimeout    Outcome = "timeout"       // the job deadline expired
	OutcomeCancelled  Outcome = "cancelled"     // the client went away
	OutcomeRejected   Outcome = "rejected"      // invalid request or server busy
)

// RunResponse reports one job's result.
type RunResponse struct {
	Outcome Outcome `json:"outcome"`
	// Output and Errout carry VISIBLE and INVISIBLE text, grouped per PE
	// in rank order (deterministic for identical seeds).
	Output string `json:"output"`
	Errout string `json:"stderr,omitempty"`
	// Error holds the failure message for non-ok outcomes.
	Error string `json:"error,omitempty"`

	Backend string `json:"backend"`
	NP      int    `json:"np"`
	// Tier names the engine that actually executed the job: the requested
	// backend for in-process runs, or "native" when a promoted binary
	// answered (the native tier serves any requested engine — all four
	// tiers are semantically identical, which the differential tests
	// enforce). Empty for jobs that never executed.
	Tier string `json:"tier,omitempty"`
	// CacheHit reports whether the compiled program came from the cache.
	CacheHit bool `json:"cache_hit"`
	// ResultCacheHit reports that the whole response was served from the
	// deterministic result cache — either a stored result or an
	// identical in-flight job this one coalesced onto — so no execution
	// (and no worker slot) was spent on it.
	ResultCacheHit bool `json:"result_cache_hit,omitempty"`
	// OutputTruncated reports that the job printed more than the server's
	// per-job output budget; the tail was dropped.
	OutputTruncated bool `json:"output_truncated,omitempty"`
	// WallMS is the job's wall-clock time in milliseconds, excluding queue
	// wait; QueueMS is the time spent waiting for a worker.
	WallMS  float64 `json:"wall_ms"`
	QueueMS float64 `json:"queue_ms"`

	// Stats carries the PGAS runtime counters for completed runs.
	Stats *shmem.StatsSnapshot `json:"stats,omitempty"`
	// SimNanos is the slowest PE's simulated time (zero cost model here,
	// kept for parity with lolrun -stats).
	SimNanos float64 `json:"sim_nanos,omitempty"`
}

// Run executes one job synchronously: validate, consult the result
// cache (a deterministic job identical to a stored or in-flight one is
// answered without executing at all), hit the program cache, wait for a
// worker slot (fairly), run under deadline+budget, classify. ctx is the
// client's context — cancel it and the job dies promptly, its PEs
// released from any barrier or lock they block in.
//
// When ctx carries an obs.Span (the HTTP handlers and RunBatch attach
// one), the job's lifecycle stages are recorded onto it and the span's
// job labels are set from the response; callers without a span pay one
// nil check per stage.
func (s *Server) Run(ctx context.Context, req RunRequest) RunResponse {
	resp := s.run(ctx, req)
	if resp.Outcome != "" {
		s.metrics.outcomes.With(string(resp.Outcome)).Add(1)
	}
	obs.FromContext(ctx).SetJob(resp.Backend, resp.Tier, string(resp.Outcome))
	return resp
}

func (s *Server) run(ctx context.Context, req RunRequest) RunResponse {
	if resp, ok := s.validate(&req); !ok {
		s.jobsRejected.Add(1)
		return resp
	}
	coreBackend, _ := core.ParseBackend(req.Backend) // validated above
	timeout := clampDuration(time.Duration(req.TimeoutMS)*time.Millisecond,
		s.opts.DefaultTimeout, s.opts.MaxTimeout)
	steps := clampInt64(req.MaxSteps, s.opts.DefaultStepBudget, s.opts.MaxStepBudget)

	// Tier routing happens before the result cache is consulted, because
	// the executing tier's version salt is part of the result key: a
	// promoted program's results live under the gogen-version salt and can
	// never answer (or be answered by) in-process runs near the budget
	// margin, and a codegen fix orphans every stale native result.
	key := KeyOf(req.Src)
	var route *nativeRoute
	var tierSalt string
	if s.native != nil {
		if bin, ok := s.native.binaryFor(key); ok {
			if tk := s.native.breaker.allow(); tk != nil {
				route = &nativeRoute{bin: bin, ticket: tk}
				tierSalt = s.native.cache.Salt()
				// A job that never reaches the tier (result-cache hit, pool
				// rejection, cancellation) must hand back its ticket — in
				// particular a half-open probe slot — without voting on the
				// tier's health. settle is idempotent, so the explicit
				// succeed/fail in runNative wins when the tier does run.
				defer tk.cancel()
			} else {
				// Breaker open: the tier exists but is not trusted right
				// now. Run in-process under the in-process salt.
				s.native.breakerSheds.Add(1)
			}
		}
	}

	if s.results == nil {
		resp, _ := s.execute(ctx, req, key, coreBackend, timeout, steps, route)
		return resp
	}

	// Result-cache front door. The key covers everything that can change
	// the response bytes of a deterministic job; whether the job IS
	// deterministic is only known after the frontend runs, so a first
	// sight claims the key optimistically and resolves the claim below.
	rkey := resultKeyOf(key, coreBackend.String(), req.NP,
		req.Seed, steps, timeout, req.Stdin, tierSalt)
	qStart := time.Now()
	cached, claim, err := s.results.acquire(ctx, rkey)
	obs.FromContext(ctx).Record(stageResultCache, time.Since(qStart))
	switch {
	case err != nil: // client went away while coalesced onto a leader
		return RunResponse{
			Backend: coreBackend.String(), NP: req.NP,
			Outcome: OutcomeCancelled, Error: err.Error(),
			QueueMS: msSince(qStart),
		}
	case cached != nil:
		cached.ResultCacheHit = true
		cached.WallMS = 0
		cached.QueueMS = msSince(qStart)
		return *cached
	case claim == nil: // bypass-marked: known non-cacheable, just run
		resp, _ := s.execute(ctx, req, key, coreBackend, timeout, steps, route)
		return resp
	}

	resp, cacheable := s.execute(ctx, req, key, coreBackend, timeout, steps, route)
	switch {
	case resp.Outcome == OutcomeRejected || resp.Outcome == OutcomeCancelled:
		// The job never really ran; leave the key unresolved for the
		// next request (and let coalesced waiters elect a new leader).
		claim.abandon()
	case resp.Outcome == OutcomeParseError || !cacheable:
		// Deterministically uncacheable: mark the key so equal jobs skip
		// the result cache (and are never serialized behind each other).
		claim.bypass()
	case resp.Outcome == OutcomeOK && !resp.OutputTruncated:
		claim.fulfill(&resp)
	default:
		// Cacheable program, unstorable run: budget kill, timeout,
		// runtime error, or truncated output. Count the miss, forget the
		// key, let the next identical job try again.
		claim.abandonMiss()
	}
	return resp
}

// execute runs one validated job to completion on a worker slot. The
// second return reports whether the job passed the determinism audit —
// i.e. whether an identical future job could be answered from this
// run's result. A non-nil route sends the job to the promoted binary;
// an infrastructure failure there falls back to the in-process engine
// below, after demoting the program and informing the breaker.
func (s *Server) execute(ctx context.Context, req RunRequest, key Key, coreBackend core.Backend,
	timeout time.Duration, steps int64, route *nativeRoute) (RunResponse, bool) {
	resp := RunResponse{Backend: coreBackend.String(), NP: req.NP}
	sp := obs.FromContext(ctx)

	// Admission first: parse+sema runs inside the worker slot too, so a
	// flood of distinct programs cannot compile without bound — the
	// frontend is CPU the pool must account for like any other job work.
	// Native jobs hold a slot too: a subprocess is still one job's worth
	// of machine, and admission is the unit of fairness.
	qStart := time.Now()
	if err := s.pool.acquire(ctx, key); err != nil {
		s.jobsRejected.Add(1)
		qWait := time.Since(qStart)
		sp.Record(stageQueueWait, qWait)
		resp.QueueMS = ms(qWait)
		if errors.Is(err, ErrBusy) {
			resp.Outcome = OutcomeRejected
		} else {
			resp.Outcome = OutcomeCancelled
		}
		resp.Error = err.Error()
		return resp, false
	}
	defer s.pool.release()
	qWait := time.Since(qStart)
	sp.Record(stageQueueWait, qWait)
	resp.QueueMS = ms(qWait)

	// Frontend, amortized: one parse+sema per unique source ever in cache.
	pcStart := time.Now()
	prog, err, hit, hits := s.cache.GetOrCompile(key, "job.lol", req.Src)
	sp.Record(stageProgramCache, time.Since(pcStart))
	resp.CacheHit = hit
	if err != nil {
		s.jobsRejected.Add(1)
		resp.Outcome = OutcomeParseError
		resp.Error = err.Error()
		return resp, false
	}
	if s.native != nil {
		s.native.maybePromote(key, prog, hits)
	}

	if route != nil {
		if nresp, cacheable, answered := s.runNative(ctx, req, key, route, prog,
			timeout, steps, resp); answered {
			return nresp, cacheable
		}
		// Tier failure: the program was demoted; run in-process below.
	}

	// The engine's prepared form (bytecode, closures) is built once per
	// program per engine; timing it here splits the compile stage out of
	// execute, so after the first run of a program the stage reads ~0. A
	// preparation error is left for Run below to surface — the cached
	// error makes the outcome identical.
	cStart := time.Now()
	_ = prog.Prepare(coreBackend)
	sp.Record(stageCompile, time.Since(cStart))

	jobCtx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	var out, errw strings.Builder
	cfg := backend.Config{
		NP:          req.NP,
		Seed:        req.Seed,
		Stdout:      &out,
		Stderr:      &errw,
		Stdin:       strings.NewReader(req.Stdin),
		GroupOutput: true,
		Context:     jobCtx,
		StepBudget:  steps,
		MaxOutput:   s.opts.MaxOutputBytes,
		Sched:       s.schedModeFor(req),
	}
	// The cacheability verdict: the program must be audited schedule-
	// independent at this PE count, and the output discipline must make
	// the merged streams deterministic (grouped mode always is).
	cacheable := prog.Audit().DeterministicAt(req.NP) && cfg.DeterministicOutput()

	s.jobsRun.Add(1)
	s.inFlight.Add(1)
	switch coreBackend {
	case core.BackendInterp:
		s.metrics.execInterp.Inc()
	case core.BackendVM:
		s.metrics.execVM.Inc()
	default:
		s.metrics.execCompile.Inc()
	}
	resp.Tier = coreBackend.String()
	start := time.Now()
	res, runErr := prog.Run(core.RunConfig{Config: cfg, Backend: coreBackend})
	s.inFlight.Add(-1)
	wall := time.Since(start)
	sp.Record(stageExecute, wall)
	resp.WallMS = ms(wall)
	resp.Output = out.String()
	resp.Errout = errw.String()
	if res != nil {
		// Set even for failed runs: the partial output may be clipped.
		resp.OutputTruncated = res.OutputTruncated
		if res.ExecWall > 0 {
			s.metrics.spmdSeconds.With(resp.Tier).Observe(res.ExecWall.Seconds())
		}
		// Failed runs carry post-teardown stats too, so kills and
		// deadlocks still account their scheduler activity.
		if sch := res.Stats.Sched; sch.Mode == "workers" {
			s.schedJobs.Inc()
			s.schedParks.Add(sch.Parks)
			s.schedUnparks.Add(sch.Unparks)
			s.schedSpurious.Add(sch.Spurious)
			s.schedYields.Add(sch.Yields)
		}
	}

	if runErr != nil {
		s.jobsFailed.Add(1)
		resp.Outcome = classify(runErr, ctx)
		resp.Error = runErr.Error()
		return resp, cacheable
	}
	s.jobsOK.Add(1)
	resp.Outcome = OutcomeOK
	if res != nil {
		stats := res.Stats
		resp.Stats = &stats
		for _, ns := range res.SimNanos {
			if ns > resp.SimNanos {
				resp.SimNanos = ns
			}
		}
	}
	return resp, cacheable
}

// validate normalizes the request in place and builds the rejection
// response when it is malformed.
func (s *Server) validate(req *RunRequest) (RunResponse, bool) {
	reject := func(format string, args ...any) (RunResponse, bool) {
		return RunResponse{Outcome: OutcomeRejected, Error: fmt.Sprintf(format, args...)}, false
	}
	if req.Src == "" {
		return reject("empty src")
	}
	if len(req.Src) > s.opts.MaxSrcBytes {
		return reject("src is %d bytes (limit %d)", len(req.Src), s.opts.MaxSrcBytes)
	}
	if req.NP <= 0 {
		req.NP = 1
	}
	if req.NP > s.opts.MaxNP {
		return reject("np %d exceeds the server limit %d", req.NP, s.opts.MaxNP)
	}
	if _, err := core.ParseBackend(req.Backend); err != nil {
		return reject("%v", err)
	}
	if _, err := backend.ParseSchedMode(req.Sched); err != nil {
		return reject("%v", err)
	}
	if req.TimeoutMS < 0 || req.MaxSteps < 0 {
		return reject("negative timeout_ms or max_steps")
	}
	return RunResponse{}, true
}

// schedModeFor resolves a job's scheduler mode: the request's explicit
// choice (validated on admission) or the server default. The mode is a
// performance knob only — outputs and outcomes, deadlocks included, are
// the same in both — so it is not part of the result-cache key.
func (s *Server) schedModeFor(req RunRequest) backend.SchedMode {
	if req.Sched != "" {
		m, _ := backend.ParseSchedMode(req.Sched)
		return m
	}
	return s.opts.Sched
}

// classify maps a run error onto an outcome. Order matters: a client
// cancellation also surfaces as context.Canceled inside the job context,
// so the client's own context is consulted first.
func classify(err error, clientCtx context.Context) Outcome {
	switch {
	case clientCtx.Err() != nil:
		return OutcomeCancelled
	case errors.Is(err, backend.ErrStepBudget):
		return OutcomeBudget
	case errors.Is(err, context.DeadlineExceeded):
		return OutcomeTimeout
	case errors.Is(err, context.Canceled):
		return OutcomeCancelled
	default:
		return OutcomeRuntime
	}
}

// Stats is the server-wide counter snapshot served at /v1/stats.
// JobsRun counts executions; requests answered by the result cache
// never execute, so they appear only under ResultCache.
type Stats struct {
	Cache        CacheStats       `json:"cache"`
	ResultCache  ResultCacheStats `json:"result_cache"`
	Tiers        TierStats        `json:"tiers"`
	Native       NativeStats      `json:"native"`
	Sched        SchedStats       `json:"sched"`
	JobsRun      int64            `json:"jobs_run"`
	JobsOK       int64            `json:"jobs_ok"`
	JobsFailed   int64            `json:"jobs_failed"`
	JobsRejected int64            `json:"jobs_rejected"`
	BatchesRun   int64            `json:"batches_run"`
	InFlight     int64            `json:"in_flight"`
	Queued       int64            `json:"queued"`
	Workers      int              `json:"workers"`
}

// SchedStats aggregates worker-scheduler activity across every job that
// ran under the bounded worker pool (request or server `sched` mode
// "workers", or "auto" at high NP). Parks/unparks balance when every
// blocked PE was resumed exactly once; spurious counts injected
// spurious wakeups absorbed by the park protocol.
type SchedStats struct {
	JobsWorkers int64 `json:"jobs_workers"`
	Parks       int64 `json:"parks"`
	Unparks     int64 `json:"unparks"`
	Spurious    int64 `json:"spurious"`
	Yields      int64 `json:"yields"`
}

// TierStats counts executions by the engine that actually ran each job.
// The four fields sum to JobsRun minus jobs that failed before reaching
// an engine (parse errors, rejections).
type TierStats struct {
	Interp  int64 `json:"interp"`
	VM      int64 `json:"vm"`
	Compile int64 `json:"compile"`
	Native  int64 `json:"native"`
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Cache: s.cache.Stats(),
		Tiers: TierStats{
			Interp:  s.metrics.execInterp.Load(),
			VM:      s.metrics.execVM.Load(),
			Compile: s.metrics.execCompile.Load(),
			Native:  s.metrics.execNative.Load(),
		},
		Sched: SchedStats{
			JobsWorkers: s.schedJobs.Load(),
			Parks:       s.schedParks.Load(),
			Unparks:     s.schedUnparks.Load(),
			Spurious:    s.schedSpurious.Load(),
			Yields:      s.schedYields.Load(),
		},
		JobsRun:      s.jobsRun.Load(),
		JobsOK:       s.jobsOK.Load(),
		JobsFailed:   s.jobsFailed.Load(),
		JobsRejected: s.jobsRejected.Load(),
		BatchesRun:   s.batchesRun.Load(),
		InFlight:     s.inFlight.Load(),
		Queued:       int64(s.pool.depth()),
		Workers:      s.opts.Workers,
	}
	if s.results != nil {
		st.ResultCache = s.results.Stats()
	}
	if s.native != nil {
		st.Native = s.native.stats()
	}
	return st
}

func clampDuration(v, def, max time.Duration) time.Duration {
	if v <= 0 {
		v = def
	}
	if v > max {
		v = max
	}
	return v
}

func clampInt64(v, def, max int64) int64 {
	if v <= 0 {
		v = def
	}
	if v > max {
		v = max
	}
	return v
}

func msSince(t time.Time) float64 { return ms(time.Since(t)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
