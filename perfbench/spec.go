package main

import (
	"fmt"
	"strings"
)

// The workloads' fixed shapes. BENCHMARK.json's "why" lines quote the
// ladders and limits (ladderDesc), and a test keeps the two in step.

// table1Plan: the convolutional Table I matrix at a small epoch budget
// (one pass of the 12 runs takes 14-19 s on a 2-core host).
type table1Plan struct {
	Epochs float64
}

var table1Spec = table1Plan{Epochs: 1}

// serveHitsPlan: reads on a ladder against a completed corpus, fresh
// and duplicate writes at a fixed rate below the 50/s POST limiter.
type serveHitsPlan struct {
	Ladder       ladder
	Corpus       int     // completed jobs built during set-up
	Epochs       float64 // epoch budget of every tiny run
	HitShare     float64 // share of reads that are cache-hit POSTs
	CurveShare   float64 // share of reads that are ?curve=1 polls
	FreshRate    float64 // fresh runs per second
	DupsPerFresh int     // duplicate POSTs following each fresh one
}

// The nominal rung is the top one, where both generators stay busy:
// lower down, idle vCPUs' wake-ups and the onset of queueing set the
// latency, and its median swung by up to 25% between runs at 4000/s
// against 5% at 6000/s. Fresh runs stay rare so training takes a few
// percent of the CPU; at 1-2/s the share of requests stalled behind a
// run sat near 10% and the p90 flipped between runs.
var serveHitsSpec = serveHitsPlan{
	Ladder: ladder{
		Rates:   []float64{2000, 4000, 6000},
		Shares:  []float64{0.25, 0.25, 0.5},
		Nominal: 2,
		TailQ:   0.99,
		LimitMs: 25,
	},
	Corpus:       16,
	Epochs:       1,
	HitShare:     0.005,
	CurveShare:   0.25,
	FreshRate:    0.2,
	DupsPerFresh: 2,
}

// dispatchPlan: fresh fast-profile jobs on a ladder, dispatched to
// loopback-TCP workers.
type dispatchPlan struct {
	Ladder  ladder
	Epochs  float64
	Workers int
}

// At the nominal rung (about 30% busy per worker) most jobs run without
// another job contending for the two CPUs, so latency is mostly the
// job's own run plus the dispatch path.
var dispatchSpec = dispatchPlan{
	Ladder: ladder{
		Rates: []float64{2, 3, 6},
		// 5 s, 20 s and 5 s of a 30 s window: whole blocks of the 10
		// job classes on every rung.
		Shares:  []float64{1.0 / 6, 2.0 / 3, 1.0 / 6},
		Nominal: 1,
		TailQ:   0.9,
		LimitMs: 1500,
	},
	Epochs:  3,
	Workers: 2,
}

// smokeSpecs shrink the workloads to a seconds-long sanity run.
func smokeSpecs() (table1Plan, serveHitsPlan, dispatchPlan) {
	t := table1Plan{Epochs: 0.25}
	s := serveHitsSpec
	s.Ladder = ladder{Rates: []float64{50, 100}, Shares: []float64{0.5, 0.5}, Nominal: 1, TailQ: 0.99, LimitMs: 1000}
	s.Corpus = 4
	d := dispatchSpec
	d.Ladder = ladder{Rates: []float64{2, 4}, Shares: []float64{0.5, 0.5}, Nominal: 1, TailQ: 0.9, LimitMs: 5000}
	d.Epochs = 1
	return t, s, d
}

// ladderDesc renders a ladder the way BENCHMARK.json records it, e.g.
// "rungs 2000/4000/6000 req/s, nominal 4000, p99 limit 25 ms".
func ladderDesc(l ladder, unit string) string {
	rates := make([]string, len(l.Rates))
	for i, r := range l.Rates {
		rates[i] = fmt.Sprint(r)
	}
	return fmt.Sprintf("rungs %s %s, nominal %v, p%d limit %v ms",
		strings.Join(rates, "/"), unit, l.Rates[l.Nominal], int(l.TailQ*100+0.5), l.LimitMs)
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are printed by every workload with --trace 0. "op" is the
// workload's unit of work: one Table I run (table1-conv), one HTTP
// request (serve-hits), one job from due time to its terminal SSE
// event (dispatch-fresh).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"goodput_per_s", "1/s"},
	{"train_samples_per_s", "1/s"},
	{"final_acc", "ratio"},
	{"success_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer are printed by every workload with --trace 1; a layer the
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"hadfl.run_ms_p50", "ms"},
	{"hadfl.first_round_ms_p50", "ms"},
	{"hadfl.round_ms_p50", "ms"},
	{"hadfl.rounds_per_run", "count"},
	{"eval.share", "ratio"},
	{"eval.batches_per_run", "count"},
	{"nn.step_us.resnet_conv", "us"},
	{"nn.step_us.vgg_conv", "us"},
	{"nn.step_us.resnet_mlp", "us"},
	{"nn.step_us.vgg_mlp", "us"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p90", "ms"},
	{"serve.job_self_ms_p50", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.resp_bytes_per_req", "bytes"},
	{"serve.refused", "count"},
	{"dispatch.overhead_ms_p50", "ms"},
	{"dispatch.overhead_ms_p90", "ms"},
	{"dispatch.attempts_per_job", "count"},
	{"dispatch.retries", "count"},
	{"dispatch.local_fallbacks", "count"},
	{"dispatch.result_bytes_per_job", "bytes"},
	{"p2p.encode_us", "us"},
	{"p2p.decode_us", "us"},
	{"gen.lag_ms_p99", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.stage_coverage", "ratio"},
}

// Output floors: a run or job below its accuracy floor fails the
// benchmark (chance level is 0.1 on the 10-class tasks).
const (
	convAccFloor = 0.25
	fastAccFloor = 0.15
)

// genLagLimitMs marks a run invalid: an idle generator that woke this
// late (p99) was starved, so the offered load was not what the
// schedule said.
const genLagLimitMs = 20

// setupReps is how many times each workload sets up per run; setup_s
// is their median.
const setupReps = 3
