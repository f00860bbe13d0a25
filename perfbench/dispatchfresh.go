package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"time"

	"hadfl"
)

// runDispatchFresh is the dispatch-fresh workload: fresh fast-profile
// jobs on a rate ladder, POSTed to hadfl-serve whose runner is a
// dispatcher over loopback TCP; the client reads each job's completion
// from its SSE stream.
func runDispatchFresh(c runConfig) (*measurement, error) {
	plan := dispatchSpec
	if c.smoke {
		_, _, plan = smokeSpecs()
	}
	m := &measurement{detail: map[string]any{}}
	trainLen := fastTrainLen()
	var spans *spanLog
	if c.traced {
		spans = &spanLog{}
	}
	var items []item
	// Set-up ends with one warm-up job through the whole path, so the
	// dispatcher's worker connections are dialed before the window.
	warm, err := tinyJob(hadfl.SchemeFedAvg, hets[0], plan.Epochs, 5)
	if err != nil {
		return nil, err
	}
	st, setups, err := bootRepeatedly(plan.Workers, trainLen, spans, func(st *stack) error {
		var err error
		if items, err = dispatchFreshSchedule(c.seed, c.window(), plan); err != nil {
			return err
		}
		cl := newClient(st.base)
		defer cl.close()
		if code, body, err := cl.do(http.MethodPost, "/runs", warm.Body, ""); err != nil || code != http.StatusAccepted {
			return fmt.Errorf("warm-up POST: HTTP %d %s: %v", code, body, err)
		}
		if state, _, err := cl.awaitTerminal(warm.ID); err != nil || state != "done" {
			return fmt.Errorf("warm-up job ended %q: %v", state, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	probe, err := tinyJob(hadfl.SchemeHADFL, hets[1], plan.Epochs, 7)
	if err != nil {
		return nil, err
	}
	if err := determinismProbe(probe, trainLen); err != nil {
		m.problem("%v", err)
	}

	cs := clients(st.base)
	defer closeClients(cs)
	st.markWindow()
	t0 := time.Now()
	recs := openLoop(items, cs, t0, func(cl *httpClient, _ int, it *item, rec *opRecord) {
		code, body, err := cl.do(http.MethodPost, "/runs", it.Job.Body, it.Job.ID)
		rec.Post = time.Since(t0)
		switch {
		case err != nil:
			rec.Err = err.Error()
			return
		case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
			rec.Refused, rec.Err = true, "refused: HTTP "+strconv.Itoa(code)
			return
		case code != http.StatusAccepted:
			rec.Err = "POST: unexpected HTTP " + http.StatusText(code)
			return
		}
		var sub submitted
		if err := json.Unmarshal(body, &sub); err != nil || sub.ID != it.Job.ID || sub.Cache != "miss" {
			rec.Err = "POST: a fresh job was not a fresh cache miss under its fingerprint"
			return
		}
		state, at, err := cl.awaitTerminal(it.Job.ID)
		rec.End = at.Sub(t0)
		if err != nil {
			rec.Err = err.Error()
		} else if state != "done" {
			rec.Err = "job ended " + state
		}
	})
	respBytes := st.counter("http_response_bytes_total")

	// Output checks: every job done over HTTP with the accuracy the
	// worker computed, finite parameters above the floor, and the
	// served parameters byte-identical to the worker's.
	var accs []float64
	samples := 0.0
	var windowEnd time.Duration
	check := cs[0]
	for i := range recs {
		r := &recs[i]
		m.attempted++
		if r.End > windowEnd {
			windowEnd = r.End
		}
		if !r.failed() {
			rr, _ := st.led.get(r.Job)
			stat, err := check.waitDone(r.Job, time.Now().Add(time.Minute))
			switch {
			case err != nil:
				r.Err = err.Error()
			case stat.Result == nil || stat.Result.Accuracy != rr.Acc:
				r.Err = "served accuracy differs from the worker's"
			case !rr.Finite || math.IsNaN(rr.Acc):
				r.Err = "non-finite FinalParams"
			case rr.Acc < fastAccFloor:
				r.Err = "accuracy below floor"
			case rr.WorkerHash == "" || rr.WorkerHash != rr.ServeHash:
				r.Err = "served FinalParams differ from the worker's"
			default:
				accs = append(accs, rr.Acc)
				samples += rr.Samples
			}
		}
		if r.failed() {
			m.failed++
			m.problem("%s job %.12s: %s", r.Class, r.Job, r.Err)
		}
	}
	openLoopE2E(m, recs, plan.Ladder, c.window(), setups)
	m.e2e["final_acc"] = mean(accs)
	if windowEnd > 0 {
		m.e2e["train_samples_per_s"] = samples / windowEnd.Seconds()
	}
	if !c.traced {
		return m, nil
	}

	// Per-layer figures from the traced run.
	m.layers = trainingLayers(runRecs(st.led))
	addMicroLayers(m.layers, c.seed, paramCount(st.led))
	all := spans.Drain()
	postEnd := spanEnds(all, "http.post")
	var queue, self, overhead, cover, runnerMs, workerMs []float64
	for _, r := range recs {
		if r.failed() {
			continue
		}
		rr, _ := st.led.get(r.Job)
		serveStart, serveEnd := rr.ServeStart.Sub(t0), rr.ServeEnd.Sub(t0)
		qFrom := postEnd[r.Job].Sub(t0)
		if qFrom > serveStart {
			qFrom = serveStart
		}
		q := serveStart - qFrom
		runner := serveEnd - serveStart
		queue = append(queue, ms(q))
		self = append(self, ms(r.latency()-q-runner))
		overhead = append(overhead, ms(runner-rr.WorkerEnd.Sub(rr.WorkerStart)))
		runnerMs = append(runnerMs, ms(runner))
		workerMs = append(workerMs, ms(rr.WorkerEnd.Sub(rr.WorkerStart)))
		cover = append(cover, coverage(r.from(), r.End, []interval{
			{r.from(), r.Start}, {r.Start, r.Post}, {qFrom, serveStart}, {serveStart, serveEnd},
		}))
		job := r.Job
		spans.add("client.op", job, t0.Add(r.from()), t0.Add(r.End))
		if !r.Early {
			spans.add("client.wait", job, t0.Add(r.Due), t0.Add(r.Start))
		}
		spans.add("client.post", job, t0.Add(r.Start), t0.Add(r.Post))
		spans.add("serve.queue", job, t0.Add(qFrom), t0.Add(serveStart))
	}
	m.spans = append(all, spans.Drain()...)
	jobs := float64(len(runnerMs))
	m.layers["serve.queue_wait_ms_p50"] = quantile(queue, 0.5)
	m.layers["serve.queue_wait_ms_p90"] = quantile(queue, 0.9)
	m.layers["serve.job_self_ms_p50"] = median(self)
	m.layers["serve.hit_ratio"] = 0
	m.layers["serve.coalesced_ratio"] = 0
	m.layers["serve.resp_bytes_per_req"] = float64(respBytes) / float64(2*len(recs))
	m.layers["serve.refused"] = float64(countRefused(recs))
	m.layers["dispatch.overhead_ms_p50"] = quantile(overhead, 0.5)
	m.layers["dispatch.overhead_ms_p90"] = quantile(overhead, 0.9)
	if jobs > 0 {
		m.layers["dispatch.attempts_per_job"] = float64(st.counter("dispatch_requests_total")) / jobs
	}
	m.layers["dispatch.retries"] = float64(st.counter("dispatch_retries_total"))
	m.layers["dispatch.local_fallbacks"] = float64(st.counter("dispatch_local_fallback_total"))
	if h, ok := st.histogram("dispatch_result_frame_bytes"); ok && h.Count > 0 {
		m.layers["dispatch.result_bytes_per_job"] = h.Sum / float64(h.Count)
	}
	m.layers["gen.lag_ms_p99"] = quantile(genLagMs(recs), 0.99)
	m.layers["trace.stage_coverage"] = median(cover)
	fillAbsentLayers(m.layers)

	stages := selfTimes(m.spans)
	checks := []crossCheck{
		histCheck(st, "serve.queue", "queue_wait_seconds", queue),
		histCheck(st, "serve.runner", "dispatch_rtt_seconds", runnerMs),
		histCheck(st, "worker.runner", "worker_run_seconds", workerMs),
	}
	printStages(os.Stderr, stages)
	printCrossChecks(os.Stderr, checks)
	m.detail["stages"], m.detail["cross_checks"] = stages, checks
	return m, nil
}
