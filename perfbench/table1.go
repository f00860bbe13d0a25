package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"hadfl"
	"hadfl/internal/experiments"
	"hadfl/internal/trace"
)

// runTable1 is the table1-conv workload: one caller runs the Table I
// matrix on the convolutional profile through hadfl.RunContext, pass
// after pass, until the window is spent (the first pass always
// completes). Per-config medians make the figures independent of where
// the window cuts a later pass.
func runTable1(c runConfig) (*measurement, error) {
	plan := table1Spec
	if c.smoke {
		plan, _, _ = smokeSpecs()
	}
	m := &measurement{detail: map[string]any{}}
	var jobs []*jobSpec
	var trainLen int
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		var err error
		jobs, err = table1Schedule(c.seed, plan.Epochs, c.smoke)
		if err != nil {
			return nil, err
		}
		for _, model := range []string{"resnet", "vgg"} {
			if _, err := hadfl.InitialParams(hadfl.Options{Model: model, Full: true, Seed: table1TrainSeed}); err != nil {
				return nil, err
			}
		}
		trainLen = experiments.ResNetWorkload(false, table1TrainSeed).Train.Len()
		// A short warm-up run brings the kernel pool and buffers up
		// before the window.
		if _, err := hadfl.RunContext(context.Background(), hadfl.SchemeDistributed, hadfl.Options{
			Powers: hets[0], Model: "vgg", Full: true, TargetEpochs: 0.25, Seed: 3,
		}); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	probe, err := newJob(hadfl.SchemeDistributed, hadfl.Options{Powers: hets[0], Model: "vgg", Full: true, TargetEpochs: 0.25, Seed: 7})
	if err != nil {
		return nil, err
	}
	if err := determinismProbe(probe, trainLen); err != nil {
		m.problem("%v", err)
	}

	var spans *spanLog
	if c.traced {
		spans = &spanLog{}
	}
	led := newLedger()
	byJob := map[string][]float64{}
	last := map[string]runRec{}
	hashes := map[string]string{}
	var recs []opRecord
	t0 := time.Now()
	for pass := 0; ; pass++ {
		stop := false
		for _, j := range jobs {
			if pass > 0 && time.Since(t0) >= c.window() {
				stop = true
				break
			}
			rec := opRecord{Class: j.Scheme + "/" + j.Opts.Model + "/" + hetName(j.Opts.Powers), Job: j.ID}
			rec.Due = time.Since(t0)
			rec.Start = rec.Due
			clock := &roundClock{start: time.Now()}
			opts := j.Opts
			opts.OnRound = clock.wrap(nil)
			ctx := context.Background()
			var span *trace.Span
			if spans != nil {
				ctx, span = trace.Start(ctx, spans, "hadfl.run")
				span.SetAttr("job", j.ID)
			}
			res, err := hadfl.RunContext(ctx, j.Scheme, opts)
			end := time.Now()
			span.SetError(err)
			span.End()
			rec.End = time.Since(t0)
			m.attempted++
			var rr runRec
			led.with(fmt.Sprintf("%s#%d", j.ID, pass), func(r *runRec) {
				r.WorkerStart, r.WorkerEnd = clock.start, end
				r.FirstRound, r.RoundGaps = clock.first, clock.gaps
				recordResult(r, res, err, trainLen)
				rr = *r
			})
			last[j.ID] = rr
			runSpans(spans, j.ID, clock)
			if spans != nil {
				spans.add("client.op", j.ID, t0.Add(rec.Due), t0.Add(rec.End))
			}
			switch {
			case err != nil:
				rec.Err = err.Error()
			case !rr.Finite:
				rec.Err = "non-finite FinalParams"
			case rr.Acc < convAccFloor:
				rec.Err = "accuracy below floor"
			}
			if err == nil {
				h := paramsHash(res.FinalParams)
				if prev, ok := hashes[j.ID]; ok && prev != h {
					m.problem("%s: repeated run gave different FinalParams", rec.Class)
				}
				hashes[j.ID] = h
			}
			if rec.failed() {
				m.failed++
				m.problem("%s: %s", rec.Class, rec.Err)
			} else {
				byJob[j.ID] = append(byJob[j.ID], ms(rec.latency()))
			}
			recs = append(recs, rec)
		}
		if stop || time.Since(t0) >= c.window() {
			break
		}
	}

	var medians, accs []float64
	sumMs, sumSamples := 0.0, 0.0
	for _, j := range jobs {
		d := byJob[j.ID]
		if len(d) == 0 {
			continue
		}
		rr := last[j.ID]
		med := median(d)
		medians = append(medians, med)
		accs = append(accs, rr.Acc)
		sumMs += med
		sumSamples += rr.Samples
	}
	m.e2e = map[string]float64{
		"setup_s":       median(setups),
		"op_ms_p50":     median(medians),
		"op_ms_p90":     quantile(medians, 0.9),
		"final_acc":     mean(accs),
		"success_ratio": float64(m.attempted-m.failed) / float64(m.attempted),
		"peak_rss_mb":   peakRSSMB(),
	}
	if sumMs > 0 {
		m.e2e["goodput_per_s"] = float64(len(medians)) / (sumMs / 1000)
		m.e2e["train_samples_per_s"] = sumSamples / (sumMs / 1000)
	}
	m.detail["ops"] = recs
	m.detail["setup_s"] = setups

	if c.traced {
		m.spans = spans.Drain()
		m.layers = trainingLayers(runRecs(led))
		addMicroLayers(m.layers, c.seed, 10250)
		fillAbsentLayers(m.layers)
		m.layers["trace.stage_coverage"] = runCoverage(led)
		stages := selfTimes(m.spans)
		printStages(os.Stderr, stages)
		m.detail["stages"] = stages
	}
	return m, nil
}

// runCoverage is the median share of a run's wall time that its
// first-round and round spans account for.
func runCoverage(l *ledger) float64 {
	var cov []float64
	for _, r := range runRecs(l) {
		if r.FirstRound.IsZero() {
			continue
		}
		spent := r.FirstRound.Sub(r.WorkerStart)
		for _, g := range r.RoundGaps {
			spent += g
		}
		if total := r.WorkerEnd.Sub(r.WorkerStart); total > 0 {
			cov = append(cov, float64(spent)/float64(total))
		}
	}
	return median(cov)
}
