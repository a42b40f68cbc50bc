package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
)

// JobState is the lifecycle of an async job.
type JobState string

const (
	// JobQueued: accepted, waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning: a worker is executing it.
	JobRunning JobState = "running"
	// JobDone: finished successfully; the result is available.
	JobDone JobState = "done"
	// JobFailed: finished with a non-cancellation error.
	JobFailed JobState = "failed"
	// JobCancelled: cancelled before or during execution.
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// ErrQueueFull reports a Submit rejected because the job queue is at
// capacity (the HTTP layer maps it to 429 with a Retry-After).
var ErrQueueFull = errors.New("service: job queue full")

// ErrQueueWait reports a job that waited in the queue past the pool's
// queue-wait deadline and was failed without running — by the time a
// worker would have picked it up, the submitter has long stopped caring.
var ErrQueueWait = errors.New("service: job exceeded queue-wait deadline")

// ErrClosed reports a Submit after Close.
var ErrClosed = errors.New("service: job pool closed")

// siteJobsRun is the failpoint fired at the top of every job execution;
// the chaos suite arms it to inject panics and transient errors into the
// worker pool.
const siteJobsRun = "service/jobs/run"

func init() {
	chaos.RegisterSites(siteJobsRun, siteRegistryBuild, siteSchedule)
}

// Job is one asynchronous unit of work. All state is guarded by the owning
// pool's mutex; read it through Snapshot.
type Job struct {
	id      string
	kind    string
	state   JobState // guarded by Jobs.mu
	result  any      // guarded by Jobs.mu
	err     error    // guarded by Jobs.mu
	trace   string   // guarded by Jobs.mu; trace ID once the job ran
	created time.Time
	started time.Time // guarded by Jobs.mu
	ended   time.Time // guarded by Jobs.mu
	cancel  context.CancelFunc
	ctx     context.Context
	run     func(context.Context) (any, error)
	done    chan struct{} // closed when the job reaches a terminal state
	expiry  *time.Timer   // fails the job if still queued at the deadline
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobStatus is a copyable snapshot of a job.
type JobStatus struct {
	ID       string    `json:"id"`
	Kind     string    `json:"kind"`
	State    JobState  `json:"state"`
	Error    string    `json:"error,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Ended    time.Time `json:"ended,omitzero"`
	Duration string    `json:"duration,omitempty"`
	// TraceID names the job's execution trace (GET /v1/traces/{id}),
	// present once the job has started on a pool with tracing enabled.
	TraceID string `json:"traceId,omitempty"`
}

// Jobs is a bounded asynchronous job pool: a fixed set of workers drains a
// bounded queue, every job carries a cancellable context, and finished
// jobs are retained (bounded) so clients can poll results. All methods are
// safe for concurrent use.
type Jobs struct {
	mu        sync.Mutex
	jobs      map[string]*Job // guarded by mu
	order     []string        // guarded by mu; creation order, for retention pruning
	queue     chan *Job
	seq       int64 // guarded by mu
	retained  int
	queueWait time.Duration // immutable after NewJobs; 0 = unbounded
	qTimeouts int64         // guarded by mu; jobs failed by the queue-wait deadline
	closed    bool          // guarded by mu
	tracer    *obs.Tracer   // immutable after SetTracer; nil = tracing off
	baseCtx   context.Context
	stopAll   context.CancelFunc
	wg        sync.WaitGroup
}

// Queue, retention, and queue-wait bounds applied by NewJobs when Config
// leaves them unset.
const (
	DefaultJobQueue     = 64
	DefaultJobRetained  = 256
	DefaultJobQueueWait = 30 * time.Second
)

// NewJobs starts a pool of workers (<= 0 means 1) with a bounded queue
// (queue <= 0 means DefaultJobQueue) retaining at most retained finished
// jobs (<= 0 means DefaultJobRetained). A job still queued after queueWait
// fails with ErrQueueWait instead of running long after its submitter gave
// up (0 means DefaultJobQueueWait; negative disables the deadline).
func NewJobs(workers, queue, retained int, queueWait time.Duration) *Jobs {
	if workers <= 0 {
		workers = 1
	}
	if queue <= 0 {
		queue = DefaultJobQueue
	}
	if retained <= 0 {
		retained = DefaultJobRetained
	}
	if queueWait == 0 {
		queueWait = DefaultJobQueueWait
	} else if queueWait < 0 {
		queueWait = 0
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &Jobs{
		jobs:      make(map[string]*Job),
		queue:     make(chan *Job, queue),
		retained:  retained,
		queueWait: queueWait,
		baseCtx:   ctx,
		stopAll:   cancel,
	}
	for i := 0; i < workers; i++ {
		j.wg.Add(1)
		go j.worker()
	}
	return j
}

// SetTracer enables per-job execution traces. Call it before the pool
// receives work (the server does, right after New); a nil tracer leaves
// tracing off.
func (j *Jobs) SetTracer(t *obs.Tracer) { j.tracer = t }

// Submit enqueues a job. run receives a context cancelled by Cancel (or by
// Close) and should return promptly once it is done; returning the
// context's error marks the job cancelled rather than failed.
func (j *Jobs) Submit(kind string, run func(context.Context) (any, error)) (*Job, error) {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil, ErrClosed
	}
	j.seq++
	ctx, cancel := context.WithCancel(j.baseCtx)
	jb := &Job{
		id:      fmt.Sprintf("job-%06d", j.seq),
		kind:    kind,
		state:   JobQueued,
		created: time.Now(),
		cancel:  cancel,
		ctx:     ctx,
		run:     run,
		done:    make(chan struct{}),
	}
	select {
	case j.queue <- jb:
	default:
		j.mu.Unlock()
		cancel()
		return nil, ErrQueueFull
	}
	j.jobs[jb.id] = jb
	j.order = append(j.order, jb.id)
	if j.queueWait > 0 {
		jb.expiry = time.AfterFunc(j.queueWait, func() { j.expireQueued(jb) })
	}
	j.pruneLocked()
	j.mu.Unlock()
	return jb, nil
}

// expireQueued fails a job that is still waiting for a worker when its
// queue-wait deadline fires; the worker skips it like a cancelled job.
func (j *Jobs) expireQueued(jb *Job) {
	j.mu.Lock()
	if jb.state != JobQueued {
		j.mu.Unlock()
		return
	}
	jb.state = JobFailed
	jb.err = ErrQueueWait
	jb.ended = time.Now()
	j.qTimeouts++
	close(jb.done)
	j.mu.Unlock()
	jb.cancel()
}

// pruneLocked drops the oldest terminal jobs beyond the retention bound.
// j.mu must be held.
func (j *Jobs) pruneLocked() {
	if len(j.jobs) <= j.retained {
		return
	}
	kept := j.order[:0]
	for _, id := range j.order {
		jb := j.jobs[id]
		if jb != nil && len(j.jobs) > j.retained && jb.state.Terminal() {
			delete(j.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	j.order = kept
}

// Get returns a job by ID.
func (j *Jobs) Get(id string) (*Job, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	jb, ok := j.jobs[id]
	return jb, ok
}

// Snapshot returns the job's current status.
func (j *Jobs) Snapshot(jb *Job) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:      jb.id,
		Kind:    jb.kind,
		State:   jb.state,
		Created: jb.created,
		Started: jb.started,
		Ended:   jb.ended,
	}
	if jb.err != nil {
		st.Error = jb.err.Error()
	}
	if !jb.started.IsZero() && !jb.ended.IsZero() {
		st.Duration = jb.ended.Sub(jb.started).String()
	}
	st.TraceID = jb.trace
	return st
}

// Result returns a terminal job's result and error. ok is false while the
// job is still queued or running.
func (j *Jobs) Result(jb *Job) (result any, err error, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !jb.state.Terminal() {
		return nil, nil, false
	}
	return jb.result, jb.err, true
}

// Cancel requests cancellation of a job. A queued job is marked cancelled
// immediately (the worker will skip it); a running job has its context
// cancelled and reaches the cancelled state once its workers unwind.
// Cancelling a terminal job is a no-op.
func (j *Jobs) Cancel(id string) (*Job, bool) {
	j.mu.Lock()
	jb, ok := j.jobs[id]
	if !ok {
		j.mu.Unlock()
		return nil, false
	}
	if jb.state == JobQueued {
		jb.state = JobCancelled
		jb.err = context.Canceled
		jb.ended = time.Now()
		close(jb.done)
	}
	j.mu.Unlock()
	jb.cancel() // outside the lock: may synchronously wake run()
	return jb, true
}

// worker drains the queue until Close.
func (j *Jobs) worker() {
	defer j.wg.Done()
	for jb := range j.queue {
		j.mu.Lock()
		if jb.state != JobQueued { // cancelled while queued
			j.mu.Unlock()
			continue
		}
		if jb.ctx.Err() != nil { // pool shutting down
			jb.state = JobCancelled
			jb.err = jb.ctx.Err()
			jb.ended = time.Now()
			close(jb.done)
			j.mu.Unlock()
			continue
		}
		jb.state = JobRunning
		jb.started = time.Now()
		if jb.expiry != nil {
			jb.expiry.Stop()
		}
		run, ctx := jb.run, jb.ctx
		j.mu.Unlock()

		result, err := j.runTraced(jb, run, ctx)

		j.mu.Lock()
		jb.ended = time.Now()
		switch {
		case err == nil:
			jb.state, jb.result = JobDone, result
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil:
			jb.state, jb.err = JobCancelled, err
		default:
			jb.state, jb.err = JobFailed, err
		}
		close(jb.done)
		j.mu.Unlock()
		jb.cancel() // release the context's resources
	}
}

// runTraced runs one job under its own trace, recording the trace ID on
// the job. Every job's root span is "job/run", with the job's kind as an
// attribute: the kind names the request's SOC, and a span name is a
// latency series. With no tracer set it is exactly runJob.
func (j *Jobs) runTraced(jb *Job, run func(context.Context) (any, error), ctx context.Context) (any, error) {
	tctx, span := j.tracer.StartTrace(ctx, "job/run")
	defer span.End()
	span.SetAttr("kind", jb.kind)
	if span != nil {
		j.mu.Lock()
		jb.trace = span.TraceID()
		j.mu.Unlock()
	}
	result, err := runJob(run, tctx)
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	return result, err
}

// runJob executes one job body, converting a panic into a failed-job
// error so a misbehaving job cannot take down the worker (and with it the
// whole process) — the async counterpart of the HTTP middleware's recover.
func runJob(run func(context.Context) (any, error), ctx context.Context) (result any, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			result, err = nil, fmt.Errorf("service: job panicked: %v", rec)
		}
	}()
	if err := chaos.InjectContext(ctx, siteJobsRun); err != nil {
		return nil, err
	}
	return run(ctx)
}

// JobsStats counts jobs by state, plus queue health: Depth is the number
// of jobs sitting in the queue channel right now and QueueTimeouts counts
// jobs failed by the queue-wait deadline since the pool started.
type JobsStats struct {
	Queued        int   `json:"queued"`
	Running       int   `json:"running"`
	Done          int   `json:"done"`
	Failed        int   `json:"failed"`
	Cancelled     int   `json:"cancelled"`
	Depth         int   `json:"queueDepth"`
	QueueTimeouts int64 `json:"queueTimeouts"`
}

// Stats snapshots the per-state job counts over the retained window.
func (j *Jobs) Stats() JobsStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobsStats{Depth: len(j.queue), QueueTimeouts: j.qTimeouts}
	for _, jb := range j.jobs {
		switch jb.state {
		case JobQueued:
			st.Queued++
		case JobRunning:
			st.Running++
		case JobDone:
			st.Done++
		case JobFailed:
			st.Failed++
		case JobCancelled:
			st.Cancelled++
		}
	}
	return st
}

// Close cancels every job context, stops accepting submissions, and waits
// for the workers to drain.
func (j *Jobs) Close() {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		j.wg.Wait()
		return
	}
	j.closed = true
	j.mu.Unlock()
	j.stopAll()
	close(j.queue)
	j.wg.Wait()
}
