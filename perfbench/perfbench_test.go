package main

import (
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/server"
)

// The workloads read the repository's corpus relative to the checkout
// root, one directory up from the package.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestSeedsDetermineInputs(t *testing.T) {
	for _, gen := range []func(int64) ([]jobSpec, error){kernelsSuite, syncSuite} {
		a, err := gen(1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := gen(1)
		c, _ := gen(2)
		if !reflect.DeepEqual(a, b) {
			t.Error("equal seeds generated different suites")
		}
		if reflect.DeepEqual(a, c) {
			t.Error("different seeds generated the same suite")
		}
	}

	c1, err := newClassroom(1)
	if err != nil {
		t.Fatal(err)
	}
	c1b, _ := newClassroom(1)
	c2, _ := newClassroom(2)
	var same, differ int
	for i := 0; i < 400; i++ {
		if !reflect.DeepEqual(c1.request(streamLight, i), c1b.request(streamLight, i)) {
			t.Fatalf("request %d differs between equal seeds", i)
		}
		if reflect.DeepEqual(c1.request(streamLight, i), c2.request(streamLight, i)) {
			same++
		} else {
			differ++
		}
	}
	if differ < 300 {
		t.Errorf("seeds 1 and 2 share %d of 400 requests", same)
	}
	if !reflect.DeepEqual(c1.suite(), c1b.suite()) || reflect.DeepEqual(c1.suite(), c2.suite()) {
		t.Error("classroom suite passes do not follow the seed")
	}

	s1 := poissonSchedule(rand.New(rand.NewSource(1)), 500, time.Second)
	s1b := poissonSchedule(rand.New(rand.NewSource(1)), 500, time.Second)
	s2 := poissonSchedule(rand.New(rand.NewSource(2)), 500, time.Second)
	if !reflect.DeepEqual(s1, s1b) || reflect.DeepEqual(s1, s2) {
		t.Error("arrival schedules do not follow the seed")
	}
}

func TestClassroomMixIsExactPerBlock(t *testing.T) {
	c, err := newClassroom(5)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 2*mixBlock; i++ {
		counts[c.kindOf(streamHeavy, i)]++
	}
	for _, m := range classMix {
		if counts[m.kind] != 2*m.count {
			t.Errorf("%s: %d in two blocks, want %d", m.kind, counts[m.kind], 2*m.count)
		}
	}
	perBlock := map[string]int{}
	for _, kind := range spacedKinds {
		perBlock[kind]++
	}
	for k, kind := range spacedKinds {
		if counts[kind] != 2*perBlock[kind] {
			t.Errorf("%s: %d in two blocks, want %d", kind, counts[kind], 2*perBlock[kind])
		}
		if got := c.kindOf(streamHeavy, mixBlock+k*mixBlock/len(spacedKinds)); got != kind {
			t.Errorf("slot of %s holds %s", kind, got)
		}
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..200
	}
	got := tailQuantile(xs, 0.99)
	if got.N != 200 {
		t.Errorf("N = %d, want 200", got.N)
	}
	if got.Q != 0.95 {
		t.Errorf("200 samples report p%.2f, want p95 (10 samples beyond)", 100*got.Q)
	}
	if beyond := 200 - int(got.Value); beyond != 10 {
		t.Errorf("value %v leaves %d samples beyond, want 10", got.Value, beyond)
	}

	big := make([]float64, 5000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if g := tailQuantile(big, 0.99); g.Q != 0.99 || g.Value != 4950 {
		t.Errorf("5000 samples: p%.2f = %v, want p99 = 4950", 100*g.Q, g.Value)
	}
	if g := tailQuantile(nil, 0.99); g.N != 0 || g.Value != 0 {
		t.Errorf("no samples: %+v", g)
	}
}

func TestGeoMeanOfMediansWeighsJobsEqually(t *testing.T) {
	// The slow job has most samples; each job still counts once.
	groups := map[string][]float64{
		"a": {1, 2, 3},
		"b": {7, 8, 9},
		"c": {30, 31, 32, 32, 32, 33, 34},
	}
	if got, want := geoMeanOfMedians(groups), 8.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("geoMeanOfMedians = %v, want %v (cube root of 2*8*32)", got, want)
	}
	if got := geoMeanOfMedians(nil); got != 0 {
		t.Errorf("no groups: %v, want 0", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "queue", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "execute", Start: ms(20), End: ms(50)},  // overlaps queue
		{ID: 4, Parent: 1, Name: "respond", Start: ms(90), End: ms(120)}, // runs past the parent
		{ID: 5, Parent: 3, Name: "engine", Start: ms(25), End: ms(45)},
		{ID: 6, Name: "open", Start: ms(5), End: -1}, // never closed: ignored
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: ms(100) - ms(40) - ms(10), // children cover 10..50 and 90..100
		2: ms(20),
		3: ms(30) - ms(20),
		4: ms(30),
		5: ms(20),
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
	if _, ok := self[6]; ok {
		t.Error("an open span got a self time")
	}

	sum := summarize(spans)
	if len(sum) != 5 || sum[0].Name != "request" || sum[0].Self != ms(50) {
		t.Errorf("summary = %+v", sum)
	}
}

func TestOpenLoopTimesFromDueAndReportsLateness(t *testing.T) {
	svc, err := startService(1)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.close()
	// One connection; the first request holds it for its 60 ms deadline,
	// so the second, due 1 ms later, is sent about 60 ms late.
	slow := request{Kind: "deadlock", NP: 2, TimeoutMS: 60, Expect: expectDeadlock,
		Src: "HAI 1.2\nBOTH SAEM ME AN 0, O RLY?\nYA RLY\n  HUGZ\nOIC\nKTHXBYE\n"}
	fast := request{Kind: "fast", NP: 1, Expect: expectOK, Src: "HAI 1.2\nVISIBLE 1\nKTHXBYE\n"}
	ss := svc.openLoop(1, []time.Duration{0, time.Millisecond}, []request{slow, fast}, time.Minute, nil, "test")

	o := newOracle()
	for i, r := range []request{slow, fast} {
		if err := o.checkSample(&ss[i], r); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if ss[0].Resp.Outcome != server.OutcomeTimeout {
		t.Fatalf("slow request outcome %q", ss[0].Resp.Outcome)
	}
	late := ss[1].late()
	if late < 50*time.Millisecond {
		t.Errorf("second request late by %v, want about the first request's 60 ms", late)
	}
	if got, service := ss[1].latency(), ss[1].Done.Sub(ss[1].Sent); got != late+service {
		t.Errorf("latency %v, want lateness %v + service time %v", got, late, service)
	}
	if lateMS(ss)[1] != ms(late) {
		t.Error("lateness is not reported per request")
	}
}

func TestCheckSampleAcceptsEitherDeadlockOutcome(t *testing.T) {
	o := newOracle()
	r := request{Kind: "deadlock", Expect: expectDeadlock}
	for _, c := range []struct {
		resp server.RunResponse
		ok   bool
	}{
		{server.RunResponse{Outcome: server.OutcomeTimeout}, true},
		{server.RunResponse{Outcome: server.OutcomeRuntime, Error: "shmem: deadlock: every unfinished PE is parked"}, true},
		{server.RunResponse{Outcome: server.OutcomeRuntime, Error: "index out of range"}, false},
		{server.RunResponse{Outcome: server.OutcomeOK}, false},
	} {
		s := sample{Status: 200, Resp: c.resp}
		if err := o.checkSample(&s, r); (err == nil) != c.ok {
			t.Errorf("%+v: err = %v, want ok %v", c.resp, err, c.ok)
		}
	}
	busy := sample{Status: 503, Resp: server.RunResponse{Outcome: server.OutcomeRejected}}
	if o.checkSample(&busy, r) == nil {
		t.Error("a 503 passed the check")
	}
}
