package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gogen"
	"repro/internal/obs"
)

// Handler returns the HTTP API:
//
//	POST /v1/run        run a program (RunRequest JSON in, RunResponse JSON out)
//	POST /v1/batch      run a list of jobs (BatchRequest in, NDJSON BatchItems out)
//	GET  /v1/stats      server, cache, and queue counters
//	GET  /v1/backends   engine names (core.BackendNames)
//	GET  /v1/healthz    liveness probe (JSON: status, versions, uptime)
//	GET  /v1/debug/slow slowest recent requests with stage breakdowns
//	GET  /metrics       Prometheus text exposition
//
// Every response carries an X-Request-Id header (a client-supplied one is
// honoured), every request is traced as an obs.Span and logged as one
// structured line, and request/stage latencies feed the /metrics
// histograms.
//
// Job outcomes (runtime error, budget kill, timeout) are reported in the
// 200 response body — the request was served; the program failed. Only
// protocol-level problems map to error statuses: malformed JSON is 400,
// an invalid or oversized request is 422, and a saturated queue sheds
// load with 503 plus a Retry-After header — the server is healthy but
// full, and the client should come back, not back off as if throttled.
// For /v1/batch the protocol check covers only the envelope (parseable
// JSON, 1..MaxBatchJobs jobs); per-job problems, including rejections,
// ride in that job's streamed item.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/backends", s.handleBackends)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/debug/slow", s.handleSlow)
	mux.Handle("GET /metrics", s.metrics.reg.Handler())
	return s.instrument(mux)
}

// DebugHandler returns the operator-only surface — net/http/pprof plus a
// second mount of /metrics and /v1/debug/slow — meant for a separate
// loopback listener (lolserv -debug-addr), never the public port:
// profiles can stall the process and leak source.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", s.metrics.reg.Handler())
	mux.HandleFunc("/v1/debug/slow", s.handleSlow)
	return mux
}

// instrument wraps the API mux with the per-request observability
// envelope: request ID, span, metrics, slow-ring, and one log line.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" || len(id) > 64 {
			id = obs.NewRequestID()
		}
		sp := obs.NewSpan(id, r.URL.Path)
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		// The mux stamps the matched pattern onto the request it routes, so
		// keep r2 to read the bounded endpoint label after serving.
		r2 := r.WithContext(obs.WithSpan(r.Context(), sp))
		next.ServeHTTP(sw, r2)

		snap := sp.Snapshot()
		endpoint := patternPath(r2.Pattern)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		s.metrics.httpRequests.With(endpoint, strconv.Itoa(status)).Inc()
		s.metrics.requestSeconds.With(endpoint).Observe(snap.Total.Seconds())
		s.metrics.finishSpan(snap)

		attrs := []slog.Attr{
			slog.String("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Float64("total_ms", snap.TotalMS),
		}
		if snap.Outcome != "" {
			attrs = append(attrs,
				slog.String("outcome", snap.Outcome),
				slog.String("backend", snap.Backend),
				slog.String("tier", snap.Tier))
		}
		for _, st := range snap.Stages {
			attrs = append(attrs, slog.Float64(st.Name+"_ms", st.MS))
		}
		s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	})
}

// patternPath reduces a ServeMux pattern ("POST /v1/run") to its path for
// use as a bounded metric label; unrouted requests fall into "other".
func patternPath(pattern string) string {
	if pattern == "" {
		return "other"
	}
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		pattern = pattern[i+1:]
	}
	return pattern
}

// statusWriter captures the committed status code. It passes Flush
// through so the NDJSON batch stream keeps flushing per item.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	sp := obs.FromContext(r.Context())
	var req RunRequest
	// 2x the source limit: JSON escaping can double src (every newline and
	// quote becomes two bytes), and the envelope needs a little room. The
	// precise limit is enforced on the decoded src by validate.
	aStart := time.Now()
	body := http.MaxBytesReader(w, r.Body, 2*int64(s.opts.MaxSrcBytes)+64<<10)
	err := json.NewDecoder(body).Decode(&req)
	sp.Record(stageAdmission, time.Since(aStart))
	if err != nil {
		writeJSON(w, decodeStatus(err), RunResponse{
			Outcome: OutcomeRejected,
			Error:   fmt.Sprintf("decoding request: %v", err),
		})
		return
	}
	// r.Context() is cancelled when the client disconnects, which tears
	// the job down and releases its PEs.
	resp := s.Run(r.Context(), req)
	wStart := time.Now()
	status := statusFor(resp.Outcome, resp.Error)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSecs)
	}
	writeJSON(w, status, resp)
	sp.Record(stageRespond, time.Since(wStart))
}

// handleBatch streams one NDJSON line per job as it completes. The 200
// status is committed before any job runs, so job failures cannot change
// it — exactly like /v1/run, a failed program is a served request.
// Lifecycle stages are recorded per job, on child spans RunBatch creates;
// the envelope span records only its own admission work.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	sp := obs.FromContext(r.Context())
	var req BatchRequest
	aStart := time.Now()
	body := http.MaxBytesReader(w, r.Body, int64(s.opts.MaxBatchBytes))
	err := json.NewDecoder(body).Decode(&req)
	sp.Record(stageAdmission, time.Since(aStart))
	if err != nil {
		writeJSON(w, decodeStatus(err), RunResponse{
			Outcome: OutcomeRejected,
			Error:   fmt.Sprintf("decoding batch request: %v", err),
		})
		return
	}
	if len(req.Jobs) == 0 {
		writeJSON(w, http.StatusUnprocessableEntity, RunResponse{
			Outcome: OutcomeRejected, Error: "batch has no jobs",
		})
		return
	}
	if len(req.Jobs) > s.opts.MaxBatchJobs {
		writeJSON(w, http.StatusUnprocessableEntity, RunResponse{
			Outcome: OutcomeRejected,
			Error:   fmt.Sprintf("batch has %d jobs (limit %d)", len(req.Jobs), s.opts.MaxBatchJobs),
		})
		return
	}
	if s.pool.saturated() {
		// Shed the whole batch before committing the 200 stream: once
		// streaming starts the envelope status is spent, and a saturated
		// pool would just emit MaxBatchJobs rejected lines anyway.
		s.jobsRejected.Add(int64(len(req.Jobs)))
		s.metrics.outcomes.With(string(OutcomeRejected)).Add(int64(len(req.Jobs)))
		w.Header().Set("Retry-After", retryAfterSecs)
		writeJSON(w, http.StatusServiceUnavailable, RunResponse{
			Outcome: OutcomeRejected, Error: ErrBusy.Error(),
		})
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	flusher, _ := w.(http.Flusher)
	// Drain the channel fully even if the client goes away mid-stream:
	// r.Context() cancels the remaining jobs, and the writes fail
	// harmlessly — but the producer goroutines must not be left blocked.
	for item := range s.RunBatch(r.Context(), req.Jobs) {
		if err := enc.Encode(item); err != nil {
			continue
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// decodeStatus distinguishes the two ways a request body can fail to
// decode: over the size limit is an invalid request (422, matching the
// documented oversized-request contract), anything else is malformed
// JSON (400).
func decodeStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

// retryAfterSecs is the Retry-After value sent with every 503: queue
// saturation clears in well under a second once any job finishes, so a
// one-second backoff is the smallest hint the header grammar can carry.
const retryAfterSecs = "1"

func statusFor(o Outcome, errMsg string) int {
	switch o {
	case OutcomeRejected:
		if errMsg == ErrBusy.Error() {
			return http.StatusServiceUnavailable
		}
		return http.StatusUnprocessableEntity
	case OutcomeParseError:
		return http.StatusUnprocessableEntity
	default:
		return http.StatusOK
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleBackends(w http.ResponseWriter, r *http.Request) {
	// Advertise exactly the set /v1/run accepts (core.ParseBackend), so
	// the two cannot drift from each other.
	writeJSON(w, http.StatusOK, map[string]any{"backends": core.BackendNames()})
}

// handleHealthz answers the liveness probe with enough identity to tell
// which build is serving: runtime and codegen versions plus uptime, and
// — when the native tier is on — its degradation state (breaker and
// sandbox level), so a fleet check can spot a server quietly running
// three-tiered. A plain `curl -f` still works — status stays 200 and
// "ok" is in the body; a tripped breaker is degradation, not death.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":       "ok",
		"go":           runtime.Version(),
		"gogen":        gogen.Version,
		"uptime_s":     time.Since(s.start).Seconds(),
		"native_tier":  s.native != nil,
		"result_cache": s.results != nil,
	}
	if s.native != nil {
		body["native_breaker"] = s.native.breaker.stateName()
		body["native_sandbox"] = s.native.sandboxState()
	}
	writeJSON(w, http.StatusOK, body)
}

// handleSlow serves the slowest recent requests (default 16, ?n= caps it)
// with their full stage breakdowns, slowest first.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	n := 16
	if q := r.URL.Query().Get("n"); q != "" {
		if v, err := strconv.Atoi(q); err == nil && v > 0 {
			n = v
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"requests": s.metrics.slow.Slowest(n)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the client is gone if this fails; nothing to do
}
