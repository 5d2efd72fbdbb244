package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// ResultKey identifies one deterministic execution: the SHA-256 over the
// program hash plus every launch parameter that can influence the
// response bytes — engine, NP, seed, the clamped step budget and
// wall-clock budget, and the stdin bytes. Two requests with equal keys
// are the *same job*; for a program whose audit passes
// backend.Audit.DeterministicAt, executing both would produce identical
// responses, so the second can be answered from the first.
type ResultKey [sha256.Size]byte

// resultKeyOf derives the key. The clamped budgets are part of the key
// because they change outcomes at the margin: an OK run under a 500M
// step budget is not a valid answer for the same program asked to run
// under 100 steps (that run would have been budget-killed).
//
// tierSalt names the executing tier's version when the routing decision
// sends the job outside the in-process engines ("" for in-process,
// native.Cache.Salt() for promoted binaries). It is part of the key for
// two reasons: a gogen fix must invalidate results cached from binaries
// of the old codegen version, and the native tier's step budget is a
// wall-clock *approximation* — a result it produces near the budget
// margin is not interchangeable with a metered in-process result, so
// the two must never share a cache line.
//
// The scheduler mode is not part of the key: both modes produce the same
// output and the same outcome, deadlocks included. A cached response's
// stats describe the run that produced it, as its timing-dependent
// counters already do.
func resultKeyOf(prog Key, engine string, np int, seed int64,
	steps int64, timeout time.Duration, stdin string, tierSalt string) ResultKey {
	h := sha256.New()
	h.Write(prog[:])
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeU64(uint64(len(engine)))
	h.Write([]byte(engine))
	writeU64(uint64(len(tierSalt)))
	h.Write([]byte(tierSalt))
	writeU64(uint64(np))
	writeU64(uint64(seed))
	writeU64(uint64(steps))
	writeU64(uint64(timeout))
	writeU64(uint64(len(stdin)))
	h.Write([]byte(stdin))
	var k ResultKey
	h.Sum(k[:0])
	return k
}

// rcEntry is one key's state. Three shapes exist:
//
//   - in flight: done is open, el is nil — a leader is executing; equal
//     keys arriving now wait on done instead of executing (singleflight).
//   - stored: done closed, resp set, el on the LRU list — a completed
//     deterministic run; equal keys are answered from resp.
//   - bypass: done closed, resp nil, el on the LRU list — the program
//     was audited non-cacheable (or does not parse); equal keys skip the
//     result cache entirely and execute, paying only one map lookup.
type rcEntry struct {
	key  ResultKey
	done chan struct{}
	resp *RunResponse  // immutable once done is closed
	el   *list.Element // non-nil once stored or bypass-marked
}

// resultCache is the second caching layer behind the program cache:
// instead of amortizing the *frontend*, it eliminates re-*execution* of
// identical deterministic jobs, serving stored responses at lookup
// speed and coalescing identical in-flight jobs onto one execution.
// Entries (stored results and bypass markers alike) live on one LRU
// bounded by max.
type resultCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used; values are *rcEntry
	items map[ResultKey]*rcEntry

	hits      obs.Counter // answered from a stored result
	misses    obs.Counter // cacheable job that had to execute
	coalesced obs.Counter // answered by waiting on an in-flight leader
	bypassed  obs.Counter // audited non-cacheable; executed normally
	evicted   obs.Counter
}

func newResultCache(max int) *resultCache {
	if max < 1 {
		max = 1
	}
	return &resultCache{max: max, ll: list.New(), items: make(map[ResultKey]*rcEntry)}
}

// rcClaim is a leader's obligation: a claim is returned by acquire when
// the caller must execute the job itself, and the caller must resolve
// it on every path — fulfill, bypass, abandonMiss, or abandon — or
// every later equal-key request deadlocks waiting on done.
type rcClaim struct {
	c *resultCache
	e *rcEntry
}

// acquire resolves key against the cache. Exactly one of the returns is
// meaningful:
//
//   - resp non-nil: the job is answered (hit or coalesced); do not run.
//   - claim non-nil: the caller is the leader; execute and resolve.
//   - all nil: the key is bypass-marked; execute without caching.
//   - err non-nil: ctx ended while waiting on an in-flight leader.
func (c *resultCache) acquire(ctx context.Context, key ResultKey) (*RunResponse, *rcClaim, error) {
	for {
		c.mu.Lock()
		e, ok := c.items[key]
		if !ok {
			e = &rcEntry{key: key, done: make(chan struct{})}
			c.items[key] = e
			c.mu.Unlock()
			return nil, &rcClaim{c: c, e: e}, nil
		}
		select {
		case <-e.done:
			// Stored or bypass-marked; both shapes are LRU-listed.
			if e.resp == nil {
				c.ll.MoveToFront(e.el)
				c.bypassed.Add(1)
				c.mu.Unlock()
				return nil, nil, nil
			}
			c.ll.MoveToFront(e.el)
			resp := cloneResponse(e.resp)
			c.hits.Add(1)
			c.mu.Unlock()
			return resp, nil, nil
		default:
		}
		// A leader is executing this exact job right now. Wait for it
		// rather than duplicating the work.
		c.mu.Unlock()
		select {
		case <-e.done:
			if e.resp != nil {
				c.coalesced.Add(1)
				return cloneResponse(e.resp), nil, nil
			}
			// The leader abandoned (failed run) or bypass-marked the
			// key; loop to re-resolve — one waiter becomes the next
			// leader, or everyone sees the bypass marker.
			continue
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}

// fulfill stores the leader's response and wakes waiters with it. Only
// ok, untruncated runs of audited-deterministic jobs may be fulfilled;
// the caller guarantees that.
func (cl *rcClaim) fulfill(resp *RunResponse) {
	if faultinject.Fire("server.resultcache.dropfulfill") {
		// Chaos seam: the store is lost between execution and fulfilment
		// (as if the entry were evicted at the worst moment). Correctness
		// requires waiters to re-elect a leader and re-execute, never to
		// hang or to see a half-stored result.
		cl.abandonMiss()
		return
	}
	c := cl.c
	c.mu.Lock()
	cl.e.resp = cloneResponse(resp)
	cl.e.el = c.ll.PushFront(cl.e)
	c.trimLocked()
	c.misses.Add(1)
	close(cl.e.done)
	c.mu.Unlock()
}

// bypass marks the key non-cacheable (failed audit or parse failure):
// the entry stays on the LRU as a negative marker so later equal keys
// skip straight to execution — and, crucially, identical non-
// deterministic jobs are never serialized behind each other more than
// this once.
func (cl *rcClaim) bypass() {
	c := cl.c
	c.mu.Lock()
	cl.e.el = c.ll.PushFront(cl.e)
	c.trimLocked()
	c.bypassed.Add(1)
	close(cl.e.done)
	c.mu.Unlock()
}

// abandonMiss removes the entry after a cacheable job's run ended
// unstorable (runtime error, budget kill, timeout, truncated output):
// the lookup still counts as a miss, waiters retry, and the next equal
// key gets a fresh attempt.
func (cl *rcClaim) abandonMiss() {
	cl.c.misses.Add(1)
	cl.release()
}

// abandon removes the entry without counting anything: the job never
// really ran (queue-full rejection, client cancellation).
func (cl *rcClaim) abandon() { cl.release() }

func (cl *rcClaim) release() {
	c := cl.c
	c.mu.Lock()
	delete(c.items, cl.e.key)
	close(cl.e.done)
	c.mu.Unlock()
}

// trimLocked evicts LRU-listed entries beyond max. In-flight entries
// are not listed and therefore never evicted mid-run.
func (c *resultCache) trimLocked() {
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*rcEntry).key)
		c.evicted.Add(1)
	}
}

// Stats snapshots the result-cache counters.
func (c *resultCache) Stats() ResultCacheStats {
	c.mu.Lock()
	n := c.ll.Len()
	c.mu.Unlock()
	return ResultCacheStats{
		Enabled:   true,
		Size:      n,
		Max:       c.max,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Bypassed:  c.bypassed.Load(),
		Evicted:   c.evicted.Load(),
	}
}

// ResultCacheStats is the /v1/stats view of the result cache. For
// traffic that is entirely cacheable, Hits+Misses+Coalesced equals the
// number of served (non-rejected, non-cancelled) requests — the
// accounting invariant the server stress test asserts.
type ResultCacheStats struct {
	Enabled   bool  `json:"enabled"`
	Size      int   `json:"size"`
	Max       int   `json:"max"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Bypassed  int64 `json:"bypassed"`
	Evicted   int64 `json:"evicted"`
}

// HitRate counts both stored hits and coalesced joins as wins: neither
// paid for an execution.
func (s ResultCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(total)
}

// cloneResponse copies a response so cached state is never aliased by a
// caller that mutates its copy (the serve path stamps per-request
// timing fields onto it).
func cloneResponse(r *RunResponse) *RunResponse {
	out := *r
	if r.Stats != nil {
		st := *r.Stats
		out.Stats = &st
	}
	return &out
}
