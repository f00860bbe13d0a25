package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// httpClient is one generator's connection to the service: its own
// transport capped at one connection, so the number of generators is
// the number of client connections.
type httpClient struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
	gets map[string]*http.Request // reusable bodiless, headerless GETs by path
}

func newClient(base string) *httpClient {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &httpClient{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, base: base, gets: map[string]*http.Request{}}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response body into c.buf.
// Plain GETs reuse their request (safe once the previous response body
// is closed), so the generator adds as little garbage as it can to the
// process it measures.
func (c *httpClient) do(method, path string, body []byte, job string) (int, []byte, error) {
	req := c.gets[path]
	if req == nil || method != http.MethodGet || job != "" {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		var err error
		if req, err = http.NewRequest(method, c.base+path, rd); err != nil {
			return 0, nil, err
		}
		if job != "" {
			req.Header.Set(jobHeader, job)
		} else if method == http.MethodGet {
			c.gets[path] = req
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// submitted is the part of a POST /runs response the benchmark checks.
type submitted struct {
	ID    string `json:"id"`
	Cache string `json:"cache"`
}

// status is the part of GET /runs/{id} the benchmark checks.
type status struct {
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		Accuracy float64 `json:"accuracy"`
	} `json:"result"`
}

// awaitTerminal follows GET /runs/{id}/events until a terminal state
// event and returns that state; it drains the stream so the connection
// is reused. The returned time is when the terminal event was read.
func (c *httpClient) awaitTerminal(id string) (string, time.Time, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/runs/"+id+"/events", nil)
	if err != nil {
		return "", time.Time{}, err
	}
	req.Header.Set(jobHeader, id)
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", time.Time{}, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var ev struct {
		Type  string `json:"type"`
		State string `json:"state"`
	}
	for sc.Scan() {
		data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		if !bytes.Contains(data, []byte(`"type":"state"`)) {
			continue
		}
		if err := json.Unmarshal(data, &ev); err != nil {
			return "", time.Time{}, err
		}
		switch ev.State {
		case "done", "failed", "canceled":
			at := time.Now()
			_, _ = io.Copy(io.Discard, resp.Body) // the stream ends with the job; drain it for reuse
			return ev.State, at, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", time.Time{}, err
	}
	return "", time.Time{}, errors.New("events: stream ended before a terminal state")
}

// waitDone polls GET /runs/{id} until the job is terminal or the
// deadline passes, returning the final status.
func (c *httpClient) waitDone(id string, deadline time.Time) (status, error) {
	for {
		code, body, err := c.do(http.MethodGet, "/runs/"+id, nil, "")
		if err != nil {
			return status{}, err
		}
		if code != http.StatusOK {
			return status{}, fmt.Errorf("GET /runs/%s: HTTP %d: %s", id[:12], code, strings.TrimSpace(string(body)))
		}
		var st status
		if err := json.Unmarshal(body, &st); err != nil {
			return status{}, err
		}
		switch st.State {
		case "done", "failed", "canceled":
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s still %s at deadline", id[:12], st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// opRecord is one scheduled operation as it happened. Times are offsets
// from the start of the timed window.
type opRecord struct {
	Rung  int           `json:"rung"`
	Class string        `json:"class"`
	Job   string        `json:"job,omitempty"`
	Due   time.Duration `json:"due"`
	Start time.Duration `json:"start"`
	Post  time.Duration `json:"post,omitempty"` // end of the submission, for jobs
	End   time.Duration `json:"end"`
	// Early is set when the generator was idle and slept until Due, so
	// Start-Due is the generator's own lateness rather than backlog.
	Early   bool   `json:"early"`
	Refused bool   `json:"refused,omitempty"`
	Cache   string `json:"cache,omitempty"` // a write's cache disposition
	Err     string `json:"err,omitempty"`
}

// from is when the operation's latency starts: its due time, so that
// waiting for a busy generator counts (no coordinated omission) — but
// an idle generator's own wake-up lateness does not; that is reported
// as gen.lag instead.
func (r *opRecord) from() time.Duration {
	if r.Early {
		return r.Start
	}
	return r.Due
}

func (r *opRecord) latency() time.Duration { return r.End - r.from() }

func (r *opRecord) failed() bool { return r.Err != "" || r.Refused }

// openLoop plays items on their due times from len(clients) generator
// goroutines, each owning one client connection. An item waits for a
// free generator, so when the system falls behind the wait shows in
// latency, which runs from the due time (no coordinated omission).
func openLoop(items []item, clients []*httpClient, t0 time.Time, do func(c *httpClient, i int, it *item, rec *opRecord)) []opRecord {
	recs := make([]opRecord, len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *httpClient) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				it, rec := &items[i], &recs[i]
				rec.Rung, rec.Class, rec.Due = it.Rung, it.Class, it.Due
				if it.Job != nil {
					rec.Job = it.Job.ID
				}
				if wait := it.Due - time.Since(t0); wait > 0 {
					time.Sleep(wait)
					rec.Early = true
				}
				rec.Start = time.Since(t0)
				do(c, i, it, rec)
				if rec.End == 0 {
					rec.End = time.Since(t0)
				}
			}
		}(c)
	}
	wg.Wait()
	return recs
}

// genLagMs is the generator's own lateness: how far past its due time
// an idle generator woke to send (only early picks count; late picks
// are backlog, which is the system's latency, not the generator's).
func genLagMs(recs []opRecord) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Early {
			out = append(out, ms(r.Start-r.Due))
		}
	}
	return out
}

// ladderResults judges each rung of an open-loop run.
func ladderResults(recs []opRecord, lad ladder, windows []interval) []rungResult {
	out := make([]rungResult, len(lad.Rates))
	for i := range out {
		w := windows[i]
		var lats, lateEnd []float64
		r := &out[i]
		r.Rate = lad.Rates[i]
		var lastEnd time.Duration
		for _, rec := range recs {
			if rec.Rung != i {
				continue
			}
			r.Ops++
			if rec.failed() {
				r.Failed++
				continue
			}
			lats = append(lats, ms(rec.latency()))
			if rec.Due >= w.from+3*(w.to-w.from)/4 {
				lateEnd = append(lateEnd, ms(rec.Start-rec.from()))
			}
			if rec.End > lastEnd {
				lastEnd = rec.End
			}
		}
		r.P50ms, r.P90ms, r.P99ms = quantile(lats, 0.5), quantile(lats, 0.9), quantile(lats, 0.99)
		r.TailMs = quantile(lats, lad.TailQ)
		r.LateEndMs = quantile(lateEnd, 0.99)
		if span := lastEnd - w.from; span > 0 {
			r.Achieved = float64(r.Ops-r.Failed) / span.Seconds()
		}
		judgeRung(r, lad.LimitMs)
	}
	return out
}

// clients opens one generator connection per CPU.
func clients(base string) []*httpClient {
	out := make([]*httpClient, runtime.NumCPU())
	for i := range out {
		out[i] = newClient(base)
	}
	return out
}

func closeClients(cs []*httpClient) {
	for _, c := range cs {
		c.close()
	}
}

// openLoopE2E fills the end-to-end metrics every open-loop workload
// shares: latency at the nominal rung, ladder goodput, success ratio,
// set-up time and memory, and the generator validity guard.
func openLoopE2E(m *measurement, recs []opRecord, lad ladder, total time.Duration, setups []float64) {
	rungs := ladderResults(recs, lad, lad.windows(total))
	var lats []float64
	for _, r := range recs {
		if r.Rung == lad.Nominal && !r.failed() {
			lats = append(lats, ms(r.latency()))
		}
	}
	m.e2e = map[string]float64{
		"setup_s":       median(setups),
		"op_ms_p50":     quantile(lats, 0.5),
		"op_ms_p90":     quantile(lats, 0.9),
		"goodput_per_s": goodput(rungs),
		"success_ratio": float64(m.attempted-m.failed) / float64(m.attempted),
		"peak_rss_mb":   peakRSSMB(),
	}
	if lag := quantile(genLagMs(recs), 0.99); lag > genLagLimitMs {
		m.invalid = fmt.Sprintf("generator fell behind its schedule: p99 wake-up lag %.1f ms", lag)
	}
	m.detail["ladder"] = rungs
	m.detail["setup_s"] = setups
	m.detail["gen_lag_ms_p99"] = quantile(genLagMs(recs), 0.99)
	m.detail["ops"] = len(recs)
}

func countRefused(recs []opRecord) int {
	n := 0
	for _, r := range recs {
		if r.Refused {
			n++
		}
	}
	return n
}
