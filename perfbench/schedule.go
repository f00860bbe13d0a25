package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"hadfl"
	"hadfl/internal/serve"
)

// ladder is an open-loop rate ladder: rung i offers Rates[i] operations
// per second for Shares[i] of the timed window. Latency metrics come
// from the Nominal rung; a rung passes when its TailQ latency quantile
// is within LimitMs (see judgeRung).
type ladder struct {
	Rates   []float64
	Shares  []float64
	Nominal int
	TailQ   float64
	LimitMs float64
}

// windows splits the timed window into the rungs' slices.
func (l ladder) windows(total time.Duration) []interval {
	out := make([]interval, len(l.Rates))
	var at time.Duration
	for i, share := range l.Shares {
		d := time.Duration(share * float64(total))
		out[i] = interval{at, at + d}
		at += d
	}
	return out
}

// arrivals spaces round(rate·len(w)) due times evenly over w, each
// jittered by up to ±40% of the spacing: the count is fixed for a
// rate, the exact times come from the seed.
func arrivals(rng *rand.Rand, w interval, rate float64) []time.Duration {
	n := int(rate*(w.to-w.from).Seconds() + 0.5)
	gap := float64(w.to-w.from) / float64(n)
	out := make([]time.Duration, n)
	for i := range out {
		off := (float64(i) + 0.5 + 0.8*(rng.Float64()-0.5)) * gap
		out[i] = w.from + time.Duration(off)
	}
	return out
}

// jobSpec is one training run as the client submits it.
type jobSpec struct {
	Scheme string
	Opts   hadfl.Options
	ID     string // hadfl.Fingerprint: the job id the service will assign
	Body   []byte // POST /runs body
}

func newJob(scheme string, opts hadfl.Options) (*jobSpec, error) {
	id, err := hadfl.Fingerprint(scheme, opts)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(serve.RunRequest{Scheme: scheme, Options: serve.RunOptions{
		Powers: opts.Powers, Model: opts.Model, Full: opts.Full,
		TargetEpochs: opts.TargetEpochs, Seed: opts.Seed,
	}})
	if err != nil {
		return nil, err
	}
	return &jobSpec{Scheme: scheme, Opts: opts, ID: id, Body: body}, nil
}

// item is one scheduled operation.
type item struct {
	Due    time.Duration
	Rung   int
	Class  string
	Method string
	Path   string
	Job    *jobSpec
}

// Het arrays of the paper's Table I.
var hets = [][]float64{{3, 3, 1, 1}, {4, 2, 2, 1}}

func hetName(p []float64) string {
	s := ""
	for _, v := range p {
		s += fmt.Sprint(v)
	}
	return s
}

// Training seeds. The benchmark seed decides the schedule — arrival
// times, order, request classes — but not what each job trains on: the
// set of jobs a run executes is the same for every benchmark seed, so
// run cost and final accuracy do not swing with it. Jobs differ within
// a run (every job is fresh to the cache) by drawing their training
// seed from a per-class counter.
const (
	table1TrainSeed = 1    // the paper's Table I is one seeded experiment
	corpusSeedBase  = 100  // serve-hits corpus: 100, 101, ...
	freshSeedBase   = 1000 // serve-hits fresh runs: 1000, 1001, ...
	jobSeedBase     = 5000 // dispatch-fresh: 5000 + 100·class + occurrence
)

// table1Schedule is the Table I matrix in a seeded order: every
// Table I scheme × model × het array on the convolutional profile.
func table1Schedule(seed int64, epochs float64, smoke bool) ([]*jobSpec, error) {
	schemes := []string{hadfl.SchemeHADFL, hadfl.SchemeFedAvg, hadfl.SchemeDistributed}
	models := []string{"resnet", "vgg"}
	if smoke {
		schemes, models = schemes[2:], models[1:]
	}
	var jobs []*jobSpec
	for _, s := range schemes {
		for _, m := range models {
			for _, p := range hets {
				j, err := newJob(s, hadfl.Options{Powers: p, Model: m, Full: true, TargetEpochs: epochs, Seed: table1TrainSeed})
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, j)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(jobs), func(i, k int) { jobs[i], jobs[k] = jobs[k], jobs[i] })
	return jobs, nil
}

// tinyJob is a fast-profile run of the given scheme, het array and
// training seed.
func tinyJob(scheme string, het []float64, epochs float64, seed int64) (*jobSpec, error) {
	return newJob(scheme, hadfl.Options{Powers: het, Model: "resnet", TargetEpochs: epochs, Seed: seed})
}

// serveHitsSchedule builds the serve-hits plan: the completed corpus the
// set-up submits, and the open-loop items. Reads (polls, curve reads,
// cache-hit POSTs of the corpus) follow the ladder; writes (fresh tiny
// runs plus duplicates that coalesce onto them) run at a fixed rate
// over the whole window.
func serveHitsSchedule(seed int64, total time.Duration, p serveHitsPlan) (corpus []*jobSpec, items []item, err error) {
	rng := rand.New(rand.NewSource(seed))
	schemes := hadfl.Schemes()
	for i := 0; i < p.Corpus; i++ {
		j, err := tinyJob(schemes[i%len(schemes)], hets[i/len(schemes)%2], p.Epochs, corpusSeedBase+int64(i))
		if err != nil {
			return nil, nil, err
		}
		corpus = append(corpus, j)
	}
	// One path string per corpus job and variant, shared by every item:
	// the schedule is live for the whole window, so it is kept small.
	paths := make([][2]string, len(corpus))
	for i, j := range corpus {
		paths[i] = [2]string{"/runs/" + j.ID, "/runs/" + j.ID + "?curve=1"}
	}
	for r, w := range p.Ladder.windows(total) {
		for _, due := range arrivals(rng, w, p.Ladder.Rates[r]) {
			k := rng.Intn(len(corpus))
			it := item{Due: due, Rung: r, Method: http.MethodGet, Path: paths[k][0], Job: corpus[k]}
			switch x := rng.Float64(); {
			case x < p.HitShare:
				it.Class, it.Method, it.Path = "hit", http.MethodPost, "/runs"
			case x < p.HitShare+p.CurveShare:
				it.Class, it.Path = "curve", paths[k][1]
			default:
				it.Class = "get"
			}
			items = append(items, it)
		}
	}
	all := interval{0, total}
	for i, due := range arrivals(rng, all, p.FreshRate) {
		j, err := tinyJob(schemes[i%len(schemes)], hets[i/len(schemes)%2], p.Epochs, freshSeedBase+int64(i))
		if err != nil {
			return nil, nil, err
		}
		items = append(items, item{Due: due, Rung: rungAt(p.Ladder, total, due), Class: "fresh", Method: http.MethodPost, Path: "/runs", Job: j})
		for d := 0; d < p.DupsPerFresh; d++ {
			dup := due + time.Duration((2+8*rng.Float64())*float64(time.Millisecond))
			items = append(items, item{Due: dup, Rung: rungAt(p.Ladder, total, dup), Class: "dup", Method: http.MethodPost, Path: "/runs", Job: j})
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].Due < items[j].Due })
	return corpus, items, nil
}

func rungAt(l ladder, total, at time.Duration) int {
	for i, w := range l.windows(total) {
		if at < w.to {
			return i
		}
	}
	return len(l.Rates) - 1
}

// dispatchFreshSchedule builds the dispatch-fresh plan: every registered
// scheme × both het arrays, dealt in seeded permutations restarted at
// each rung, so every full block of a rung holds every class once; each
// job trains on its own seed, so none can hit the cache.
func dispatchFreshSchedule(seed int64, total time.Duration, p dispatchPlan) ([]item, error) {
	rng := rand.New(rand.NewSource(seed))
	type class struct {
		scheme string
		het    []float64
	}
	var classes []class
	for _, s := range hadfl.Schemes() {
		for _, h := range hets {
			classes = append(classes, class{s, h})
		}
	}
	var items []item
	seen := make([]int64, len(classes))
	for r, w := range p.Ladder.windows(total) {
		var block []int
		for _, due := range arrivals(rng, w, p.Ladder.Rates[r]) {
			if len(block) == 0 {
				block = rng.Perm(len(classes))
			}
			k := block[0]
			block = block[1:]
			c := classes[k]
			j, err := tinyJob(c.scheme, c.het, p.Epochs, jobSeedBase+100*int64(k)+seen[k])
			if err != nil {
				return nil, err
			}
			seen[k]++
			items = append(items, item{Due: due, Rung: r, Class: c.scheme + "/" + hetName(c.het), Method: http.MethodPost, Path: "/runs", Job: j})
		}
	}
	return items, nil
}
