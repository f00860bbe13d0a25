package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"hadfl"
)

// runServeHits is the serve-hits workload: reads on a rate ladder
// against a corpus of completed jobs, beside fresh tiny runs and their
// coalescing duplicates at a fixed rate, on the local pool with the
// real serve.DefaultRunner.
func runServeHits(c runConfig) (*measurement, error) {
	plan := serveHitsSpec
	if c.smoke {
		_, plan, _ = smokeSpecs()
	}
	m := &measurement{detail: map[string]any{}}
	trainLen := fastTrainLen()
	var spans *spanLog
	if c.traced {
		spans = &spanLog{}
	}
	var items []item
	// want holds the exact bytes every read must return: terminal job
	// statuses are pre-encoded once and served verbatim, so any
	// difference is a wrong answer.
	want := map[string][]byte{}
	st, setups, err := bootRepeatedly(0, trainLen, spans, func(st *stack) error {
		corpus, its, err := serveHitsSchedule(c.seed, c.window(), plan)
		if err != nil {
			return err
		}
		items = its
		cl := newClient(st.base)
		defer cl.close()
		for _, j := range corpus {
			if code, body, err := cl.do(http.MethodPost, "/runs", j.Body, ""); err != nil || code != http.StatusAccepted {
				return fmt.Errorf("corpus POST: HTTP %d %s: %v", code, body, err)
			}
		}
		for _, j := range corpus {
			stat, err := cl.waitDone(j.ID, time.Now().Add(2*time.Minute))
			if err != nil {
				return err
			}
			if stat.State != "done" {
				return fmt.Errorf("corpus job %.12s ended %s: %s", j.ID, stat.State, stat.Error)
			}
			for _, path := range []string{"/runs/" + j.ID, "/runs/" + j.ID + "?curve=1"} {
				code, body, err := cl.do(http.MethodGet, path, nil, "")
				if err != nil || code != http.StatusOK {
					return fmt.Errorf("corpus GET %s: HTTP %d: %v", path, code, err)
				}
				want[path] = append([]byte(nil), body...)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	probe, err := tinyJob(hadfl.SchemeHADFL, hets[1], 3, 7)
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
	recs := openLoop(items, cs, t0, func(cl *httpClient, i int, it *item, rec *opRecord) {
		key := "" // handler spans are keyed only in the traced run
		if c.traced {
			key = opKey(i, it.Class, it.Job.ID)
		}
		var body []byte
		if it.Method == http.MethodPost {
			body = it.Job.Body
		}
		code, resp, err := cl.do(it.Method, it.Path, body, key)
		switch {
		case err != nil:
			rec.Err = err.Error()
		case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
			rec.Refused, rec.Err = true, "refused: HTTP "+strconv.Itoa(code)
		case it.Class == "get" || it.Class == "curve":
			if code != http.StatusOK || !bytes.Equal(resp, want[it.Path]) {
				rec.Err = "read returned other bytes than the completed job's status"
			}
		case it.Class == "hit":
			if code != http.StatusOK || !bytes.Equal(resp, want["/runs/"+it.Job.ID]) {
				rec.Err = "cache-hit POST returned other bytes than the completed job's status"
			}
		default: // fresh or dup
			var sub submitted
			if err := json.Unmarshal(resp, &sub); err != nil || sub.ID != it.Job.ID {
				rec.Err = "write answered under another id"
				return
			}
			rec.Post = time.Since(t0)
			rec.Cache = sub.Cache
			if !validWrite(code, sub.Cache) {
				rec.Err = fmt.Sprintf("write answered HTTP %d cache %q", code, sub.Cache)
			}
		}
	})
	respBytes := st.counter("http_response_bytes_total")

	// Output checks: every fresh run done, with the accuracy and finite
	// parameters the runner wrapper saw, above the floor.
	var accs []float64
	samples := 0.0
	var windowEnd time.Duration
	posts, hits, coalesced := 0, 0, 0
	for i := range recs {
		r := &recs[i]
		m.attempted++
		if r.End > windowEnd {
			windowEnd = r.End
		}
		switch r.Class {
		case "hit", "fresh", "dup":
			posts++
			if r.Class == "hit" || r.Cache == "hit" {
				hits++
			}
			if r.Cache == "coalesced" {
				coalesced++
			}
		}
		if r.Class == "fresh" && !r.failed() {
			stat, err := cs[0].waitDone(r.Job, time.Now().Add(time.Minute))
			rr, _ := st.led.get(r.Job)
			switch {
			case err != nil:
				r.Err = err.Error()
			case stat.State != "done":
				r.Err = "fresh run ended " + stat.State
			case stat.Result == nil || stat.Result.Accuracy != rr.Acc:
				r.Err = "served accuracy differs from the run's"
			case !rr.Finite:
				r.Err = "non-finite FinalParams"
			case rr.Acc < fastAccFloor:
				r.Err = "accuracy below floor"
			default:
				accs = append(accs, rr.Acc)
				samples += rr.Samples
			}
		}
		if r.failed() {
			m.failed++
			m.problem("%s %.12s: %s", r.Class, r.Job, r.Err)
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

	m.layers = trainingLayers(runRecs(st.led))
	addMicroLayers(m.layers, c.seed, paramCount(st.led))
	all := spans.Drain()
	postEnd := spanEnds(all, "http.post")
	handled := map[string]time.Duration{}
	for _, s := range all {
		if s.Name == "http.get" || s.Name == "http.post" {
			handled[s.Attrs["job"]] = s.Duration()
		}
	}
	var queue, cover, getMs []float64
	for i, r := range recs {
		if r.failed() {
			continue
		}
		key := opKey(i, r.Class, r.Job)
		if r.Class == "fresh" {
			rr, _ := st.led.get(r.Job)
			q := rr.ServeStart.Sub(postEnd[key])
			if q < 0 {
				q = 0
			}
			queue = append(queue, ms(q))
			spans.add("serve.queue", key, rr.ServeStart.Add(-q), rr.ServeStart)
		}
		if r.Class == "get" {
			getMs = append(getMs, ms(handled[key]))
		}
		// The handler span sits inside the request, so the covered share
		// is the generator wait plus the handler time.
		cover = append(cover, ms(r.Start-r.from()+handled[key])/ms(r.latency()))
		spans.add("client.op", key, t0.Add(r.from()), t0.Add(r.End))
		if !r.Early {
			spans.add("client.wait", key, t0.Add(r.Due), t0.Add(r.Start))
		}
	}
	m.spans = append(all, spans.Drain()...)
	m.layers["serve.queue_wait_ms_p50"] = quantile(queue, 0.5)
	m.layers["serve.queue_wait_ms_p90"] = quantile(queue, 0.9)
	if posts > 0 {
		m.layers["serve.hit_ratio"] = float64(hits) / float64(posts)
		m.layers["serve.coalesced_ratio"] = float64(coalesced) / float64(posts)
	}
	m.layers["serve.resp_bytes_per_req"] = float64(respBytes) / float64(len(recs))
	m.layers["serve.refused"] = float64(countRefused(recs))
	m.layers["gen.lag_ms_p99"] = quantile(genLagMs(recs), 0.99)
	m.layers["trace.stage_coverage"] = median(cover)
	fillAbsentLayers(m.layers)

	stages := selfTimes(m.spans)
	checks := []crossCheck{
		histCheck(st, "serve.queue", "queue_wait_seconds", queue),
		histCheck(st, "http.get", "http_request_seconds_get_runs_id", getMs),
	}
	printStages(os.Stderr, stages)
	printCrossChecks(os.Stderr, checks)
	m.detail["stages"], m.detail["cross_checks"] = stages, checks
	return m, nil
}

// opKey joins a request's spans: fresh writes by job id, so the queue
// stage can be matched to the runner's, everything else by position.
func opKey(i int, class, job string) string {
	if class == "fresh" {
		return job
	}
	return "op-" + strconv.Itoa(i)
}

// validWrite reports whether a write got a legitimate answer: a fresh
// run is a 202 miss, a duplicate a 200 that coalesced onto it or hit
// its finished result.
func validWrite(code int, cache string) bool {
	return (code == http.StatusAccepted && cache == "miss") ||
		(code == http.StatusOK && (cache == "coalesced" || cache == "hit"))
}
