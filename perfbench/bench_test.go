package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestQuantileMatchesInclusiveInterpolation(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 3.25}, {0.5, 5.5}, {0.75, 7.75}, {0.9, 9.1}, {1, 10},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("quantile reordered its input")
	}
	if quantile(nil, 0.5) != 0 || median([]float64{4}) != 4 {
		t.Error("degenerate inputs")
	}
}

func TestGoodputTakesHighestRungWithAllLowerPassing(t *testing.T) {
	pass := func(rate, achieved float64) rungResult {
		r := rungResult{Rate: rate, Ops: 10, TailMs: 5, Achieved: achieved}
		judgeRung(&r, 25)
		return r
	}
	slow := rungResult{Rate: 300, Ops: 10, TailMs: 40, Achieved: 290}
	judgeRung(&slow, 25)
	if slow.Pass {
		t.Fatal("a rung over its tail limit passed")
	}
	for _, c := range []struct {
		rungs []rungResult
		want  float64
	}{
		{[]rungResult{pass(100, 101), pass(200, 199), pass(300, 298)}, 298},
		{[]rungResult{pass(100, 101), pass(200, 199), slow}, 199},
		// A pass above a failed rung does not count.
		{[]rungResult{pass(100, 101), slow, pass(300, 298)}, 101},
		{[]rungResult{slow, pass(200, 199)}, 0},
	} {
		if got := goodput(c.rungs); got != c.want {
			t.Errorf("goodput = %v, want %v", got, c.want)
		}
	}
	failed := rungResult{Rate: 100, Ops: 10, Failed: 1, TailMs: 1}
	judgeRung(&failed, 25)
	backlog := rungResult{Rate: 100, Ops: 10, TailMs: 1, LateEndMs: 30}
	judgeRung(&backlog, 25)
	if failed.Pass || backlog.Pass {
		t.Error("a rung with failures or a growing backlog passed")
	}
}

func TestLadderResultsJudgesEachRung(t *testing.T) {
	lad := ladder{Rates: []float64{10, 20}, Shares: []float64{0.5, 0.5}, Nominal: 1, TailQ: 0.9, LimitMs: 50}
	total := 2 * time.Second
	w := lad.windows(total)
	var recs []opRecord
	for i := 0; i < 10; i++ { // rung 0: on time, 5ms each
		due := w[0].from + time.Duration(i)*100*time.Millisecond
		recs = append(recs, opRecord{Rung: 0, Due: due, Start: due, End: due + 5*time.Millisecond, Early: true})
	}
	for i := 0; i < 20; i++ { // rung 1: sends slip further and further behind
		due := w[1].from + time.Duration(i)*50*time.Millisecond
		start := due + time.Duration(i)*10*time.Millisecond
		recs = append(recs, opRecord{Rung: 1, Due: due, Start: start, End: start + 5*time.Millisecond})
	}
	rungs := ladderResults(recs, lad, w)
	if !rungs[0].Pass || rungs[1].Pass {
		t.Fatalf("rungs = %+v, want the first to pass and the backlogged one to fail", rungs)
	}
	if rungs[0].P50ms != 5 || rungs[0].Ops != 10 {
		t.Errorf("rung 0 = %+v", rungs[0])
	}
	if got := goodput(rungs); math.Abs(got-rungs[0].Achieved) > 1e-9 || got < 9 || got > 12 {
		t.Errorf("goodput = %v, want rung 0's achieved rate ≈ 10/s", got)
	}
	if lags := genLagMs(recs); len(lags) != 10 {
		t.Errorf("generator lag counted %d early picks, want 10", len(lags))
	}
}

func TestCoverageUnionsOverlaps(t *testing.T) {
	ms := time.Millisecond
	got := coverage(0, 100*ms, []interval{{0, 10 * ms}, {5 * ms, 30 * ms}, {50 * ms, 120 * ms}, {-5 * ms, 0}})
	if math.Abs(got-0.8) > 1e-12 {
		t.Errorf("coverage = %v, want 0.8", got)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	l := &spanLog{}
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	l.add("client.op", "a", at(0), at(100))
	l.add("client.wait", "a", at(0), at(10))
	l.add("serve.runner", "a", at(10), at(90))
	l.add("worker.runner", "a", at(15), at(85))
	l.add("hadfl.first_round", "a", at(15), at(40))
	l.add("hadfl.round", "a", at(40), at(85))
	self := map[string]float64{}
	for _, r := range selfTimes(l.Drain()) {
		self[r.Stage] = r.SelfMs
	}
	want := map[string]float64{
		"client.op": 10, "client.wait": 10, "serve.runner": 10,
		"worker.runner": 0, "hadfl.first_round": 25, "hadfl.round": 45,
	}
	for k, v := range want {
		if math.Abs(self[k]-v) > 1e-9 {
			t.Errorf("self[%s] = %v, want %v", k, self[k], v)
		}
	}
}

func TestSchedulesAreDeterministicPerSeed(t *testing.T) {
	total := 4 * time.Second
	c1, s1, err := serveHitsSchedule(11, total, serveHitsSpec)
	if err != nil {
		t.Fatal(err)
	}
	c2, s2, _ := serveHitsSchedule(11, total, serveHitsSpec)
	_, s3, _ := serveHitsSchedule(12, total, serveHitsSpec)
	if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(s1, s2) {
		t.Fatal("serve-hits: the same seed gave different schedules")
	}
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("serve-hits: different seeds gave the same schedule")
	}
	for i := 1; i < len(s1); i++ {
		if s1[i].Due < s1[i-1].Due {
			t.Fatal("serve-hits: schedule not in due order")
		}
	}
	// Writes and cache-hit POSTs stay under the shipped 50/s limiter at
	// the top rung, so no refusal is part of the plan.
	posts := 0
	top := len(serveHitsSpec.Ladder.Rates) - 1
	for _, it := range s1 {
		if it.Method == "POST" && it.Rung == top {
			posts++
		}
	}
	topSeconds := serveHitsSpec.Ladder.Shares[top] * total.Seconds()
	if rate := float64(posts) / topSeconds; rate > 40 {
		t.Errorf("serve-hits top rung POSTs %.1f/s, too close to the 50/s limiter", rate)
	}

	d1, err := dispatchFreshSchedule(11, total, dispatchSpec)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := dispatchFreshSchedule(11, total, dispatchSpec)
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("dispatch-fresh: the same seed gave different schedules")
	}
	ids := map[string]bool{}
	for _, it := range d1 {
		if ids[it.Job.ID] {
			t.Fatalf("dispatch-fresh: job %s scheduled twice; every job must be fresh", it.Job.ID)
		}
		ids[it.Job.ID] = true
	}
	// Another seed reorders the same jobs: the nominal rung's job set
	// does not depend on the seed.
	other, _ := dispatchFreshSchedule(12, 30*time.Second, dispatchSpec)
	same, _ := dispatchFreshSchedule(11, 30*time.Second, dispatchSpec)
	if reflect.DeepEqual(other, same) || !sameSet(rungJobs(other, dispatchSpec.Ladder.Nominal), rungJobs(same, dispatchSpec.Ladder.Nominal)) {
		t.Fatal("dispatch-fresh: seeds should reorder one fixed nominal job set")
	}

	t1, _ := table1Schedule(11, 1, false)
	t2, _ := table1Schedule(11, 1, false)
	if len(t1) != 12 || !reflect.DeepEqual(t1, t2) {
		t.Fatalf("table1: %d configs or nondeterministic order", len(t1))
	}
}

// benchFile is the part of BENCHMARK.json the benchmark must agree with.
type benchFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	b := readBenchFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, defs []metricDef, got map[string]string) {
		if len(defs) != len(got) {
			t.Errorf("%s: catalog has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
		}
		for _, d := range defs {
			if !name.MatchString(d.Name) {
				t.Errorf("%s: bad metric name %q", kind, d.Name)
			}
			if u, ok := got[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s: %s unit %q in the catalog, %q in BENCHMARK.json", kind, d.Name, d.Unit, u)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	layers := map[string]string{}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layers)

	whys := map[string]string{}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
		whys[w.Name] = w.Why
	}
	if len(whys) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d runners", len(whys), len(workloads))
	}
	// The ladders and limits are recorded next to each workload's reason.
	for wl, desc := range map[string]string{
		"serve-hits":     strings.Replace(ladderDesc(serveHitsSpec.Ladder, "req/s"), "rungs ", "", 1),
		"dispatch-fresh": strings.Replace(ladderDesc(dispatchSpec.Ladder, "jobs/s"), "rungs ", "", 1),
	} {
		if !strings.Contains(whys[wl], desc) {
			t.Errorf("%s why %q does not record its ladder %q", wl, whys[wl], desc)
		}
	}
}

// TestSmoke runs every workload end to end in smoke mode, untraced and
// traced, and checks the result line carries exactly the metrics
// BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs train real models")
	}
	b := readBenchFile(t)
	want := map[string][]string{}
	for _, m := range b.EndToEnd {
		want["0"] = append(want["0"], m.Name)
	}
	for _, m := range b.PerLayer {
		want["1"] = append(want["1"], m.Name)
	}
	out := t.TempDir()
	for _, wl := range workloadNames() {
		for _, traced := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", wl, "--seed", "3", "--seconds", "2", "--trace", traced, "--smoke", "--out", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", wl, traced, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", wl, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace %s: %+v\n%s", wl, traced, res, stderr.String())
			}
			var got []string
			for k, v := range res.Metrics {
				got = append(got, k)
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s = %v", wl, k, v.Value)
				}
			}
			if !sameSet(got, want[traced]) {
				t.Errorf("%s trace %s: metrics %v, want %v", wl, traced, got, want[traced])
			}
		}
	}
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-hits", "--trace", "2"},
		{"--workload", "serve-hits", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func rungJobs(items []item, rung int) []string {
	var out []string
	for _, it := range items {
		if it.Rung == rung {
			out = append(out, it.Job.ID)
		}
	}
	return out
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[string]int{}
	for _, x := range a {
		seen[x]++
	}
	for _, x := range b {
		if seen[x] == 0 {
			return false
		}
		seen[x]--
	}
	return true
}
