package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"hadfl"
	"hadfl/internal/experiments"
	"hadfl/internal/metrics"
	"hadfl/internal/p2p"
	"hadfl/internal/serve"
	"hadfl/internal/serve/dispatch"
	"hadfl/internal/trace"
)

// jobHeader carries the client's job id to the benchmark's HTTP
// handler wrapper so handler spans can be keyed by job; the service
// itself ignores it.
const jobHeader = "X-Bench-Job"

// runRec is everything the benchmark's runner wrappers learn about one
// job: when each layer ran it and what it produced. Serve-side fields
// come from the serve.Config.Runner wrapper, worker-side ones from the
// dispatch.WorkerConfig.Runner wrapper (or from the serve wrapper when
// the run executes in-process).
type runRec struct {
	ServeStart, ServeEnd   time.Time
	WorkerStart, WorkerEnd time.Time
	FirstRound             time.Time
	RoundGaps              []time.Duration
	Err                    string
	Acc                    float64
	Rounds                 int
	Samples                float64
	EvalSeconds            float64
	EvalBatches            int64
	Params                 int
	Finite                 bool
	ServeHash, WorkerHash  string
}

// ledger collects runRecs across the wrappers of one stack.
type ledger struct {
	mu   sync.Mutex
	runs map[string]*runRec
}

func newLedger() *ledger { return &ledger{runs: map[string]*runRec{}} }

func (l *ledger) with(id string, f func(r *runRec)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.runs[id]
	if r == nil {
		r = &runRec{}
		l.runs[id] = r
	}
	f(r)
}

func (l *ledger) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.runs = map[string]*runRec{}
}

func (l *ledger) get(id string) (runRec, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.runs[id]
	if !ok {
		return runRec{}, false
	}
	return *r, true
}

// paramsHash is the SHA-256 of the parameter vector's IEEE-754 bits:
// equal hashes mean byte-identical FinalParams.
func paramsHash(p []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range p {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func finite(p []float64) bool {
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return len(p) > 0
}

// samplesTrained is the number of training samples a run processed:
// its final global epoch count times the training-set size.
func samplesTrained(res *hadfl.Result, trainLen int) float64 {
	if res == nil || res.Series == nil || len(res.Series.Points) == 0 {
		return 0
	}
	return res.Series.Points[len(res.Series.Points)-1].Epoch * float64(trainLen)
}

// roundClock observes OnRound: the time of the first report and the
// gaps between later ones.
type roundClock struct {
	start time.Time
	last  time.Time
	first time.Time
	gaps  []time.Duration
}

func (c *roundClock) wrap(next func(hadfl.RoundUpdate)) func(hadfl.RoundUpdate) {
	return func(u hadfl.RoundUpdate) {
		now := time.Now()
		if c.first.IsZero() {
			c.first = now
		} else {
			c.gaps = append(c.gaps, now.Sub(c.last))
		}
		c.last = now
		if next != nil {
			next(u)
		}
	}
}

// recordResult stores a finished run's outcome under the training-side
// fields of its ledger entry.
func recordResult(r *runRec, res *hadfl.Result, err error, trainLen int) {
	if err != nil {
		r.Err = err.Error()
		return
	}
	r.Acc = res.Accuracy
	r.Rounds = res.Rounds
	r.Samples = samplesTrained(res, trainLen)
	r.EvalSeconds = res.EvalSeconds
	r.EvalBatches = res.EvalBatches
	r.Params = len(res.FinalParams)
	r.Finite = finite(res.FinalParams)
}

// runSpans records the hadfl-layer spans of one run observed through
// OnRound: the span to the first report (cluster build, warm-up and the
// initial evaluation) and one span per later round.
func runSpans(spans *spanLog, id string, c *roundClock) {
	if spans == nil || c.first.IsZero() {
		return
	}
	spans.add("hadfl.first_round", id, c.start, c.first)
	t := c.first
	for _, g := range c.gaps {
		spans.add("hadfl.round", id, t, t.Add(g))
		t = t.Add(g)
	}
}

// stack is one in-process deployment: hadfl-serve's server and pool at
// the shipped flag defaults behind a loopback HTTP listener, optionally
// dispatching to loopback-TCP workers the way hadfl-serve -dispatch
// does.
type stack struct {
	srv     *serve.Server
	httpSrv *http.Server
	base    string
	reg     *metrics.Registry
	disp    *dispatch.Dispatcher
	workers []*metrics.Registry
	stopW   context.CancelFunc
	wdone   sync.WaitGroup
	wnodes  []*p2p.TCPNode
	led     *ledger
	spans   *spanLog
	served  chan error

	baseCounters map[string]int64
	baseHists    map[string]metrics.HistogramSnapshot
}

// startStack boots a stack. workers == 0 runs jobs on the local pool
// through serve.DefaultRunner; otherwise a dispatch.Dispatcher over
// p2p.ListenTCP drives that many workers (capacity 1 each, the
// hadfl-worker default). trainLen is the training-set size of the
// workload profile the jobs use, for sample accounting.
func startStack(workers, trainLen int, led *ledger, spans *spanLog) (*stack, error) {
	s := &stack{reg: metrics.NewRegistry(), led: led, spans: spans}
	runner := serve.Runner(serve.DefaultRunner)
	localRuns := workers == 0
	if workers > 0 {
		wctx, stop := context.WithCancel(context.Background())
		s.stopW = stop
		var ids []int
		addrs := map[int]string{}
		for i := 1; i <= workers; i++ {
			node, err := p2p.ListenTCP(i, "127.0.0.1:0")
			if err != nil {
				s.close()
				return nil, err
			}
			s.wnodes = append(s.wnodes, node)
			wreg := metrics.NewRegistry()
			s.workers = append(s.workers, wreg)
			w, err := dispatch.NewWorker(dispatch.WorkerConfig{
				Transport: node,
				AddPeer:   node.AddPeer,
				Runner:    s.workerRunner(trainLen),
				Metrics:   wreg,
				Tracer:    trace.NewTracer(0),
			})
			if err != nil {
				s.close()
				return nil, err
			}
			s.wdone.Add(1)
			go func() {
				defer s.wdone.Done()
				_ = w.Serve(wctx)
			}()
			ids = append(ids, i)
			addrs[i] = node.Addr()
		}
		node, err := p2p.ListenTCP(0, "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		for _, id := range ids {
			node.AddPeer(id, addrs[id])
		}
		// hadfl-serve's flag defaults: breaker threshold 5, cooldown 5s,
		// retry backoff 50ms, hedging off, raw64 codec.
		s.disp, err = dispatch.New(dispatch.Config{
			Transport:        node,
			Workers:          ids,
			ReplyAddr:        node.Addr(),
			BreakerThreshold: 5,
			BreakerCooldown:  5 * time.Second,
			RetryBackoff:     50 * time.Millisecond,
			Metrics:          s.reg,
			Tracer:           trace.NewTracer(0),
		})
		if err != nil {
			node.Close()
			s.close()
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = s.disp.WaitReady(ctx, len(ids))
		cancel()
		if err != nil {
			s.close()
			return nil, err
		}
		runner = s.disp.Run
	}
	// hadfl-serve's flag defaults: workers = GOMAXPROCS, queue 64,
	// job timeout 10m, 50 POST/s with burst 100, 1024 cached results,
	// sequential runs.
	srv, err := serve.New(serve.Config{
		QueueDepth:      64,
		JobTimeout:      10 * time.Minute,
		RatePerSec:      50,
		Burst:           100,
		CacheMaxEntries: 1024,
		Runner:          s.serveRunner(runner, localRuns, trainLen),
		Metrics:         s.reg,
		Tracer:          trace.NewTracer(0),
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.httpSrv = &http.Server{Handler: s.handler(srv.Handler())}
	s.served = make(chan error, 1)
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	return s, nil
}

// handler wraps the service's handler with the traced run's
// http.get / http.post spans, keyed by the client's job header.
func (s *stack) handler(h http.Handler) http.Handler {
	if s.spans == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			h.ServeHTTP(w, r) // a stream lasts the job; its span would only overlap the runner's
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		s.spans.add("http."+strings.ToLower(r.Method), r.Header.Get(jobHeader), start, time.Now())
	})
}

// serveRunner wraps the pool's runner (the dispatcher, or
// serve.DefaultRunner for local runs): it checks and hashes every
// result and, in the traced run, records the serve.runner span. For
// local runs it is also where the training layer is observed.
func (s *stack) serveRunner(inner serve.Runner, local bool, trainLen int) serve.Runner {
	return func(ctx context.Context, scheme string, opts hadfl.Options, onRound func(hadfl.RoundUpdate)) (*hadfl.Result, error) {
		id, ferr := hadfl.Fingerprint(scheme, opts)
		if ferr != nil {
			return nil, ferr
		}
		var span *trace.Span
		if s.spans != nil {
			ctx, span = trace.Start(ctx, s.spans, "serve.runner")
			span.SetAttr("job", id)
		}
		clock := &roundClock{start: time.Now()}
		if local {
			onRound = clock.wrap(onRound)
		}
		res, err := inner(ctx, scheme, opts, onRound)
		end := time.Now()
		span.SetError(err)
		span.End()
		s.led.with(id, func(r *runRec) {
			r.ServeStart, r.ServeEnd = clock.start, end
			if err == nil {
				r.ServeHash = paramsHash(res.FinalParams)
			}
			if local {
				r.WorkerStart, r.WorkerEnd = clock.start, end
				r.FirstRound, r.RoundGaps = clock.first, clock.gaps
				recordResult(r, res, err, trainLen)
				r.WorkerHash = r.ServeHash
			} else if err != nil {
				r.Err = err.Error()
			}
		})
		if local {
			runSpans(s.spans, id, clock)
		}
		return res, err
	}
}

// workerRunner is the dispatch.WorkerConfig.Runner wrapper: the run as
// the worker executes it, hashed before its parameters hit the wire.
func (s *stack) workerRunner(trainLen int) dispatch.Runner {
	return func(ctx context.Context, scheme string, opts hadfl.Options, onRound func(hadfl.RoundUpdate)) (*hadfl.Result, error) {
		id, ferr := hadfl.Fingerprint(scheme, opts)
		if ferr != nil {
			return nil, ferr
		}
		var span *trace.Span
		if s.spans != nil {
			ctx, span = trace.Start(ctx, s.spans, "worker.runner")
			span.SetAttr("job", id)
		}
		clock := &roundClock{start: time.Now()}
		opts.OnRound = clock.wrap(onRound)
		res, err := hadfl.RunContext(ctx, scheme, opts)
		end := time.Now()
		span.SetError(err)
		span.End()
		s.led.with(id, func(r *runRec) {
			r.WorkerStart, r.WorkerEnd = clock.start, end
			r.FirstRound, r.RoundGaps = clock.first, clock.gaps
			recordResult(r, res, err, trainLen)
			if err == nil {
				r.WorkerHash = paramsHash(res.FinalParams)
			}
		})
		runSpans(s.spans, id, clock)
		return res, err
	}
}

// close shuts the stack down in hadfl-serve's order — pool, then
// dispatcher, then HTTP — and stops the workers, waiting for every
// goroutine it started.
func (s *stack) close() error {
	var errs []error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		errs = append(errs, s.srv.Close(ctx))
		cancel()
	}
	if s.disp != nil {
		errs = append(errs, s.disp.Close())
	}
	if s.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, s.httpSrv.Shutdown(ctx))
		cancel()
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if s.stopW != nil {
		s.stopW()
		s.wdone.Wait()
	}
	for _, n := range s.wnodes {
		errs = append(errs, n.Close())
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("closing stack: %w", err)
	}
	return nil
}

// markWindow records the registries' state at the start of the timed
// window; counter and histogram reads after it cover only the window,
// not set-up.
func (s *stack) markWindow() {
	s.baseCounters = s.sumCounters()
	s.baseHists = map[string]metrics.HistogramSnapshot{}
	for _, r := range s.registries() {
		for name := range r.Snapshot().Histograms {
			s.baseHists[name], _ = s.mergedHistogram(name)
		}
	}
}

// counter reads a counter summed over the serve registry and every
// worker registry, since the window mark.
func (s *stack) counter(name string) int64 { return s.sumCounters()[name] - s.baseCounters[name] }

func (s *stack) sumCounters() map[string]int64 {
	out := map[string]int64{}
	for _, r := range s.registries() {
		for k, v := range r.Snapshot().Counters {
			out[k] += v
		}
	}
	return out
}

func (s *stack) registries() []*metrics.Registry {
	return append([]*metrics.Registry{s.reg}, s.workers...)
}

// histogram is one histogram merged across the serve and worker
// registries, minus what it held at the window mark.
func (s *stack) histogram(name string) (metrics.HistogramSnapshot, bool) {
	h, ok := s.mergedHistogram(name)
	if !ok {
		return h, false
	}
	if b, ok := s.baseHists[name]; ok {
		h.Count -= b.Count
		h.Sum -= b.Sum
		for i := range h.Counts {
			h.Counts[i] -= b.Counts[i]
		}
	}
	h.P50 = h.Quantile(0.5)
	h.P95 = h.Quantile(0.95)
	h.P99 = h.Quantile(0.99)
	return h, true
}

// mergedHistogram adds one histogram's snapshots across the registries
// (identical bucket bounds by construction).
func (s *stack) mergedHistogram(name string) (metrics.HistogramSnapshot, bool) {
	var out metrics.HistogramSnapshot
	found := false
	for _, r := range s.registries() {
		h, ok := r.Snapshot().Histograms[name]
		if !ok {
			continue
		}
		if !found {
			out, found = h, true
			continue
		}
		out.Count += h.Count
		out.Sum += h.Sum
		for i := range out.Counts {
			out.Counts[i] += h.Counts[i]
		}
	}
	return out, found
}

// fastTrainLen is the training-set size of the fast (MLP) profile.
func fastTrainLen() int { return experiments.ResNetWorkload(true, 1).Train.Len() }

func runRecs(l *ledger) []runRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]runRec, 0, len(l.runs))
	for _, r := range l.runs {
		out = append(out, *r)
	}
	return out
}

// paramCount is the parameter-vector length of the ledger's runs.
func paramCount(l *ledger) int {
	for _, r := range runRecs(l) {
		if r.Params > 0 {
			return r.Params
		}
	}
	return 0
}

// bootRepeatedly sets a stack up setupReps times, keeping the last one,
// and returns it with every set-up time. prepare runs inside each timed
// set-up after the stack is up.
func bootRepeatedly(workers, trainLen int, spans *spanLog, prepare func(st *stack) error) (*stack, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		t := time.Now()
		var rec *spanLog
		if i == setupReps-1 {
			rec = spans
		}
		st, err := startStack(workers, trainLen, newLedger(), rec)
		if err != nil {
			return nil, nil, err
		}
		if err := prepare(st); err != nil {
			st.close()
			return nil, nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if i == setupReps-1 {
			// What set-up ran is not part of the window.
			if spans != nil {
				spans.Drain()
			}
			st.led.reset()
			return st, setups, nil
		}
		if err := st.close(); err != nil {
			return nil, nil, err
		}
	}
}
