package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// Pinned lolserv pools. Every other server option keeps its default;
// serverMaxNP is the default MaxNP, the largest job the server accepts.
const (
	serverWorkers    = 2
	serverQueueDepth = 64
	serverMaxNP      = 64
)

// service is an in-process lolserv behind a loopback HTTP listener.
type service struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error // Serve's return value, once it has returned
}

// startService starts lolserv on 127.0.0.1 with a client that opens at
// most conns connections.
func startService(conns int) (*service, error) {
	srv := server.New(server.Options{Workers: serverWorkers, QueueDepth: serverQueueDepth})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close shuts the listener down, waits for Serve to return and stops the
// server's background work.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	s.srv.Close()
	return err
}

// sample is one request as the client saw it. It keeps the request's
// index in its stream rather than the request, which is regenerated when
// it is checked, and a hash of the output rather than the output.
type sample struct {
	Index           int
	Kind            string
	Job             string // kind, backend and NP: one entry of a closed loop's cycle
	Expect          expect
	Due, Sent, Done time.Time // Due == Sent in a closed loop
	Status          int
	Resp            server.RunResponse // Output, Errout and Stats cleared
	OutHash         [32]byte
	Err             error // transport or decoding failure
	Dropped         bool  // never sent: the generator fell too far behind
}

// latency is the request's latency from when it was due.
func (s *sample) latency() time.Duration { return s.Done.Sub(s.Due) }

// late is how far behind schedule the generator sent the request.
func (s *sample) late() time.Duration { return s.Sent.Sub(s.Due) }

func (s *service) send(r request, i int) sample {
	out := sample{Index: i, Kind: r.Kind, Job: fmt.Sprintf("%s %s np%d", r.Kind, r.Backend, r.NP), Expect: r.Expect}
	body, err := json.Marshal(server.RunRequest{Src: r.Src, NP: r.NP, Backend: r.Backend,
		Seed: r.Seed, TimeoutMS: r.TimeoutMS, MaxSteps: r.MaxSteps})
	if err != nil {
		out.Err = err
		return out
	}
	out.Sent = time.Now()
	resp, err := s.client.Post(s.url+"/v1/run", "application/json", bytes.NewReader(body))
	if err == nil {
		out.Status = resp.StatusCode
		err = json.NewDecoder(resp.Body).Decode(&out.Resp)
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		resp.Body.Close()
	}
	out.Done = time.Now()
	out.Err = err
	out.OutHash = sha256.Sum256([]byte(out.Resp.Output))
	out.Resp.Output, out.Resp.Errout, out.Resp.Stats = "", "", nil
	return out
}

// closedLoop runs conns clients that each send the next request of the
// stream as soon as their previous one is answered, until d has passed.
func (s *service) closedLoop(conns int, d time.Duration, gen func(i int) request, rec *recorder, phase string) []sample {
	var (
		next atomic.Int64
		mu   sync.Mutex
		out  []sample
		wg   sync.WaitGroup
	)
	end := time.Now().Add(d)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				i := int(next.Add(1) - 1)
				smp := s.traced(gen(i), i, rec, phase)
				smp.Due = smp.Sent
				mu.Lock()
				out = append(out, smp)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// poissonSchedule returns the send offsets of a Poisson arrival process
// at rate per second over d.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var at []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return at
		}
		at = append(at, off)
	}
}

// openLoop sends reqs[i] at offset sched[i] from now, over at most conns
// connections. A request whose connection frees up more than giveUp
// after it was due is dropped rather than sent, so an overloaded rate
// ends on time.
func (s *service) openLoop(conns int, sched []time.Duration, reqs []request, giveUp time.Duration,
	rec *recorder, phase string) []sample {
	out := make([]sample, len(sched))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i])
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				if time.Since(due) > giveUp {
					now := time.Now()
					out[i] = sample{Index: i, Kind: reqs[i].Kind, Expect: reqs[i].Expect,
						Due: due, Sent: now, Done: now, Dropped: true}
					continue
				}
				smp := s.traced(reqs[i], i, rec, phase)
				smp.Due = due
				out[i] = smp
			}
		}()
	}
	wg.Wait()
	return out
}

// traced sends r and, when tracing, records the client span and the
// server-reported queue and execution intervals under it.
func (s *service) traced(r request, i int, rec *recorder, phase string) sample {
	id := fmt.Sprintf("%s/%d", phase, i)
	sp := rec.begin("http.POST /v1/run", 0, id)
	smp := s.send(r, i)
	rec.end(sp)
	if rec != nil && smp.Err == nil {
		q := time.Duration(smp.Resp.QueueMS * float64(time.Millisecond))
		w := time.Duration(smp.Resp.WallMS * float64(time.Millisecond))
		// The server reports durations, not instants; the queue wait is
		// placed at the start of the request and execution at its end.
		rec.add("server.queue_wait", sp, id, smp.Sent, smp.Sent.Add(q))
		rec.add("server.execute", sp, id, smp.Done.Add(-w), smp.Done)
	}
	return smp
}

// checkSample reports why the answer to request r is wrong, or nil.
func (o *oracle) checkSample(s *sample, r request) error {
	switch {
	case s.Dropped:
		return fmt.Errorf("%s: not sent, generator more than its give-up time behind", r.Kind)
	case s.Err != nil:
		return fmt.Errorf("%s: %v", r.Kind, s.Err)
	case s.Status == http.StatusServiceUnavailable:
		return fmt.Errorf("%s: 503 from lolserv", r.Kind)
	}
	got := s.Resp.Outcome
	switch r.Expect {
	case expectOK:
		ref := o.reference(refKey{Src: r.Src, NP: r.NP, Seed: r.Seed})
		if ref.Err != nil {
			// A generated program can fail at run time (progen's float
			// expressions can overflow an index); the service must then
			// report the same kind of failure as the oracle.
			if isRuntimeError(ref.Err) && got == server.OutcomeRuntime {
				return nil
			}
			return fmt.Errorf("%s: reference run failed: %v; service answered %q", r.Kind, ref.Err, got)
		}
		if got != server.OutcomeOK || s.Status != http.StatusOK {
			return fmt.Errorf("%s: status %d outcome %q: %s", r.Kind, s.Status, got, s.Resp.Error)
		}
		if s.OutHash != sha256.Sum256([]byte(ref.Output)) {
			return fmt.Errorf("%s at NP %d on %q: output differs from the interp reference", r.Kind, r.NP, r.Backend)
		}
	case expectDeadlock:
		// Goroutine mode waits out the deadline; the worker scheduler
		// detects the deadlock at once. Both are right; finishing is not.
		if got != server.OutcomeTimeout && !(got == server.OutcomeRuntime && strings.Contains(s.Resp.Error, "deadlock")) {
			return fmt.Errorf("%s: outcome %q, want timeout or a deadlock runtime_error", r.Kind, got)
		}
	default:
		if string(got) != r.Expect.String() {
			return fmt.Errorf("%s: outcome %q, want %q", r.Kind, got, r.Expect)
		}
	}
	return nil
}

// latencies returns the latency in ms of each sample not marked bad.
func latencies(ss []sample, bad []bool) []float64 {
	out := make([]float64, 0, len(ss))
	for i := range ss {
		if !bad[i] {
			out = append(out, ms(ss[i].latency()))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
