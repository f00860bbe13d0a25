package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"hadfl"
	"hadfl/internal/metrics"
	"hadfl/internal/serve/dispatch"
	"hadfl/internal/trace"
)

// Runner executes one training run, honoring ctx for timeout and
// cancellation and reporting per-round progress through onRound. The
// pool takes it as a seam so tests can substitute instrumented or
// failing runs.
type Runner func(ctx context.Context, scheme string, opts hadfl.Options, onRound func(hadfl.RoundUpdate)) (*hadfl.Result, error)

// DefaultRunner runs hadfl.RunContext: every registered scheme checks
// ctx at its round and device-step boundaries, so a canceled or
// timed-out job aborts within about one device step and returns
// ctx.Err(). The pool's goroutine-abandonment path remains only as a
// backstop for custom runners that ignore ctx.
func DefaultRunner(ctx context.Context, scheme string, opts hadfl.Options, onRound func(hadfl.RoundUpdate)) (*hadfl.Result, error) {
	opts.OnRound = onRound
	return hadfl.RunContext(ctx, scheme, opts)
}

// PoolConfig sizes a Pool.
type PoolConfig struct {
	// Workers bounds concurrent runs. Default: GOMAXPROCS.
	Workers int
	// QueueDepth bounds jobs waiting beyond the running ones; Enqueue
	// returns ErrQueueFull past it. Default 64.
	QueueDepth int
	// JobTimeout bounds each run's execution time. 0 = unlimited.
	JobTimeout time.Duration
	// Runner executes runs. Default DefaultRunner.
	Runner Runner
	// Metrics receives queue/run telemetry. Default: private registry.
	Metrics *metrics.Registry
	// Tracer receives the per-job root spans ("serve.job"); the run
	// context carries the span, so a dispatch-backed runner stitches
	// its remote spans under the same trace. Default: none.
	Tracer *trace.Tracer
	// Logger receives job lifecycle events. Default: discard.
	Logger *slog.Logger
}

// Pool is a bounded job queue drained by a fixed set of workers. Jobs
// enter via Enqueue, run under a per-job context, and reach a terminal
// state exactly once; Close stops intake, cancels queued work, grants
// running jobs a grace period, then cuts their contexts.
type Pool struct {
	cfg     PoolConfig
	reg     *metrics.Registry
	tracer  *trace.Tracer
	log     *slog.Logger
	queue   chan *Job
	stop    chan struct{} // closed once: workers stop picking up work
	base    context.Context
	cut     context.CancelFunc // cancels every job context
	cutDone chan struct{}      // closed alongside cut: shutdown hard deadline
	cutOnce sync.Once
	wg      sync.WaitGroup

	mu      sync.Mutex
	closing bool
}

// NewPool starts cfg.Workers workers and returns the running pool.
func NewPool(cfg PoolConfig) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Runner == nil {
		cfg.Runner = DefaultRunner
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = trace.NopLogger()
	}
	//lint:ignore ctxbg the pool owns the process-lifetime root ctx; Close cuts it
	base, cut := context.WithCancel(context.Background())
	p := &Pool{
		cfg:     cfg,
		reg:     cfg.Metrics,
		tracer:  cfg.Tracer,
		log:     cfg.Logger,
		queue:   make(chan *Job, cfg.QueueDepth),
		stop:    make(chan struct{}),
		base:    base,
		cut:     cut,
		cutDone: make(chan struct{}),
	}
	p.reg.SetGauge("pool_workers", float64(cfg.Workers))
	for i := 0; i < cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker(i)
	}
	return p
}

// Enqueue admits a job to the queue. It fails fast with ErrQueueFull
// at the bound and ErrShuttingDown after Close has begun.
func (p *Pool) Enqueue(j *Job) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closing {
		return ErrShuttingDown
	}
	select {
	case p.queue <- j:
		p.reg.Inc("runs_submitted_total")
		p.reg.SetGauge("queue_depth", float64(len(p.queue)))
		return nil
	default:
		p.reg.Inc("queue_rejections_total")
		return ErrQueueFull
	}
}

// QueueDepth returns the number of jobs waiting (not running).
func (p *Pool) QueueDepth() int { return len(p.queue) }

// Close shuts the pool down: intake stops, queued jobs are canceled
// immediately, and running jobs may finish until ctx expires, after
// which their contexts are cut (every registered scheme aborts within
// about one device step; custom runners that ignore ctx are
// abandoned). Returns ctx.Err() when the grace period was exhausted,
// nil on a clean drain.
func (p *Pool) Close(ctx context.Context) error {
	p.mu.Lock()
	already := p.closing
	p.closing = true
	p.mu.Unlock()
	if !already {
		close(p.stop)
	drain:
		for {
			select {
			case j := <-p.queue:
				j.Cancel(ErrShuttingDown)
			default:
				break drain
			}
		}
		p.reg.SetGauge("queue_depth", 0)
	}

	idle := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		p.cutAll()
		<-idle
		return ctx.Err()
	}
}

// cutAll cancels every job context and marks the shutdown hard
// deadline, so workers abandon uncooperative runners immediately
// instead of granting the per-job abandonGrace.
func (p *Pool) cutAll() {
	p.cutOnce.Do(func() {
		close(p.cutDone)
		p.cut()
	})
}

func (p *Pool) worker(i int) {
	defer p.wg.Done()
	name := fmt.Sprintf("worker-%d", i)
	for {
		// Prefer stopping over racing the queue once Close has begun.
		select {
		case <-p.stop:
			return
		default:
		}
		select {
		case <-p.stop:
			return
		case j := <-p.queue:
			p.reg.SetGauge("queue_depth", float64(len(p.queue)))
			p.runJob(name, j)
		}
	}
}

// runJob executes one job under its own context and records the
// outcome. If the context dies before the runner returns (a scheme
// that never reports rounds, or a hard wall), the job is finished as
// timed-out/canceled and the runner goroutine is abandoned — its late
// result is discarded by Job.finish's first-writer-wins rule.
func (p *Pool) runJob(worker string, j *Job) {
	ctx := p.base
	var cancel context.CancelFunc
	if p.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, p.cfg.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	if !j.start(cancel) {
		return // canceled while queued
	}
	queueWait := time.Since(j.Created)
	p.reg.Observe("queue_wait_seconds", queueWait.Seconds())
	p.reg.AddGauge("jobs_running", 1)
	defer p.reg.AddGauge("jobs_running", -1)
	p.reg.Inc("runs_started_total")
	p.reg.Inc("runs_scheme_" + metrics.SanitizeName(j.Scheme))

	// The job's root span: every span the runner opens under ctx —
	// including the dispatcher's remote attempts and the worker-side
	// spans they ship back — stitches under this trace.
	ctx, span := trace.Start(ctx, p.tracer, "serve.job")
	defer span.End()
	span.SetAttr("jobID", j.ID)
	span.SetAttr("scheme", j.Scheme)
	log := p.log.With("jobID", j.ID, "scheme", j.Scheme, "traceID", span.Context().TraceID)
	log.Info("job started", "worker", worker, "queueWaitSec", queueWait.Seconds())

	type outcome struct {
		res *hadfl.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := p.cfg.Runner(ctx, j.Scheme, j.Options, j.publishRound)
		ch <- outcome{res, err}
	}()

	// Both finishers record telemetry before j.finish publishes the
	// terminal state, so anyone woken by Done sees the job's counters.
	finishErr := func(cause error, path ...string) {
		jerr := &JobError{
			JobID: j.ID, Scheme: j.Scheme, Options: j.Options,
			Path:     append([]string{"pool", worker}, path...),
			Err:      cause,
			Duration: j.RunningFor(),
			Timeout:  errors.Is(cause, context.DeadlineExceeded),
			Canceled: errors.Is(cause, context.Canceled),
		}
		defer j.finish(nil, jerr)
		p.reg.Observe("run_duration_seconds", jerr.Duration.Seconds())
		span.SetError(cause)
		log := log
		// A dispatched failure logs its journey, not just the flat cause:
		// which workers were tried (hedges included), how many attempts,
		// and how far the round stream got.
		var derr *dispatch.DispatchError
		if errors.As(cause, &derr) {
			log = log.With("dispatcher", derr.Dispatcher, "dispatchWorkers", derr.Workers(),
				"dispatchAttempts", len(derr.Attempts), "lastRound", derr.LastRound,
				"localFallback", derr.Fallback)
		}
		switch {
		case jerr.Timeout:
			p.reg.Inc("runs_timeout_total")
			log.Warn("job timed out", "durationSec", jerr.Duration.Seconds(), "path", jerr.Path)
		case jerr.Canceled:
			p.reg.Inc("runs_canceled_total")
			log.Info("job canceled", "durationSec", jerr.Duration.Seconds())
		default:
			p.reg.Inc("runs_failed_total")
			log.Error("job failed", "err", cause, "durationSec", jerr.Duration.Seconds())
		}
	}
	finishOK := func(res *hadfl.Result) {
		defer j.finish(res, nil)
		dur := j.RunningFor()
		p.reg.Inc("runs_completed_total")
		p.reg.Observe("run_duration_seconds", dur.Seconds())
		p.recordEval(res)
		rounds := 0
		if res != nil {
			rounds = res.Rounds
		}
		log.Info("job completed", "durationSec", dur.Seconds(), "rounds", rounds)
	}

	select {
	case o := <-ch:
		if o.err != nil {
			finishErr(o.err, "run")
			return
		}
		finishOK(o.res)
	case <-ctx.Done():
		// Registered schemes honor ctx within one device step, so the
		// runner's own ctx.Err() arrives almost immediately — wait
		// briefly for it and record a clean cooperative abort. Only a
		// custom runner that ignores ctx is abandoned — immediately
		// when the pool is past its shutdown grace (cutDone), so Close
		// never overruns its caller's deadline by the abandon wait.
		select {
		case o := <-ch:
			if o.err == nil {
				// Finished despite the cut — a photo-finish; keep it.
				finishOK(o.res)
				return
			}
			finishErr(o.err, "run")
		case <-time.After(abandonGrace):
			finishErr(ctx.Err(), "run", "abandoned")
		case <-p.cutDone:
			finishErr(ctx.Err(), "run", "abandoned")
		}
	}
}

// recordEval accumulates a completed run's evaluation-engine telemetry:
// how many scoring batches its evaluations forwarded and the wall-clock
// seconds they took. Cache hits re-run nothing, so they add nothing.
func (p *Pool) recordEval(res *hadfl.Result) {
	if res == nil {
		return
	}
	p.reg.Add("eval_batches_total", res.EvalBatches)
	p.reg.AddGauge("eval_seconds_total", res.EvalSeconds)
	p.reg.Observe("run_eval_seconds", res.EvalSeconds)
}

// abandonGrace is how long a worker waits, after a job's context dies,
// for the runner to return cooperatively before abandoning its
// goroutine. One device step is milliseconds; a second is generous.
const abandonGrace = time.Second
