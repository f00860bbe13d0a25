// Package dispatch is the serve layer's remote-execution backend: it
// ships canonicalized run requests from a dispatcher (embedded in
// hadfl-serve) to worker nodes (cmd/hadfl-worker) over any
// p2p.Transport, streams per-round telemetry back, and propagates
// context cancellation and deadlines across the wire.
//
// # Wire protocol
//
// Every exchange is a p2p dispatch frame (p2p.NewDispatchFrame): a
// Message stamped with p2p.DispatchVersion whose raw byte Body carries
// the protocol body and whose Round field carries the
// dispatcher-assigned sequence number identifying the in-flight run.
// The frames:
//
//	hello    dispatcher → worker   registration probe; body carries (on
//	                               TCP) the dispatcher's dial-back
//	                               address
//	hello    worker → dispatcher   registration ack; body carries the
//	                               worker's capacity and the parameter
//	                               codecs it encodes
//	request  dispatcher → worker   a run: job fingerprint, scheme,
//	                               options, remaining deadline, the
//	                               negotiated parameter codec, and the
//	                               dispatcher's random instance token
//	                               (workers key runs by sender + token +
//	                               sequence, so serve restarts cannot
//	                               collide with their predecessor's runs)
//	round    worker → dispatcher   per-round telemetry (RoundUpdate)
//	chunk    worker → dispatcher   one slice of a chunk-streamed terminal
//	                               body (p2p.KindDispatchChunk); the
//	                               closing result/error frame carries the
//	                               stream's length + checksum trailer
//	result   worker → dispatcher   terminal success: a split body — the
//	                               summary and curve as JSON, the final
//	                               parameter vector as the codec's binary
//	                               section (see encodeSplitBody)
//	error    worker → dispatcher   terminal failure: message + flags
//	                               (canceled / timeout / busy)
//	cancel   dispatcher → worker   abort the sequence's run; the worker
//	                               cancels its RunContext, which aborts
//	                               cooperatively within about one device
//	                               step and reports back an error frame
//
// Bodies are JSON except the result's split body. Plain p2p
// heartbeat/ack messages (KindHeartbeat/KindAck) probe worker liveness
// between runs; any frame from a worker refreshes it.
//
// There is one protocol version, the frame's. A frame stamped with any
// other fails p2p.DispatchBody with p2p.ErrDispatchVersion: the
// dispatcher counts such a hello ack on dispatch_bad_hellos_total and
// never marks its sender live, and the worker answers such a hello or
// request with an error frame.
//
// # Determinism contract
//
// Runs are deterministic given scheme + canonical options (see
// hadfl.Fingerprint), so executing remotely must not change results.
// The worker re-derives the fingerprint from the request and rejects
// mismatches, and every float64 crosses the wire exactly: summary and
// curve values through Go's JSON shortest-round-trip encoding, the
// final parameter vector through the negotiated p2p.ParamCodec — raw64
// (the default) and delta are bit-exact, and every result body stamps
// the codec's exactness bit so a deliberately lossy choice (f32, topk)
// is visible, never silent. A dispatched run's summary, curve and
// final parameter vector are byte-identical to a local run of the same
// request under any exact codec (pinned by the simnet e2e suite).
//
// # Failure and fallback semantics
//
// Transient failures — a send that errors, a worker that dies or goes
// silent mid-run, a busy rejection — move the run to another live
// worker (each worker is tried at most once per run; reruns are safe
// because runs are deterministic). When no live worker remains, the
// dispatcher falls back to executing locally, so `hadfl-serve` with no
// reachable workers degrades to exactly the single-process behavior.
// Run errors reported by the worker (bad options, cancellation) are
// not transient: they surface to the caller unchanged.
package dispatch

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"hadfl"
	"hadfl/internal/metrics"
	"hadfl/internal/p2p"
	"hadfl/internal/trace"
)

// helloBody rides registration probes (dispatcher → worker) and acks
// (worker → dispatcher).
type helloBody struct {
	// ReplyAddr is the dispatcher's transport address for dial-back
	// replies; empty on transports with id-based routing (ChanHub).
	ReplyAddr string `json:"replyAddr,omitempty"`
	// Capacity is the worker's concurrent-run budget (ack direction).
	Capacity int `json:"capacity,omitempty"`
	// Codecs advertises the parameter wire codecs the worker can encode
	// (ack direction), in its order of preference. Every worker encodes
	// raw64, advertised or not.
	Codecs []string `json:"codecs,omitempty"`
}

// reqOptions is hadfl.Options on the wire, minus the callback field
// (round telemetry flows back as round frames). It mirrors the serve
// layer's RunOptions JSON shape but cannot reuse it: serve's in-package
// tests import this package, so dispatch importing serve would be a
// test import cycle. TestWireOptionsCoverEveryOptionsField pins the
// mirror field-for-field (as serve's own guard pins RunOptions), so a
// new Options field missing here fails at unit-test time.
type reqOptions struct {
	Powers       []float64       `json:"powers,omitempty"`
	Model        string          `json:"model,omitempty"`
	Full         bool            `json:"full,omitempty"`
	TargetEpochs float64         `json:"targetEpochs,omitempty"`
	NonIIDAlpha  float64         `json:"nonIIDAlpha,omitempty"`
	Seed         int64           `json:"seed,omitempty"`
	FailAt       map[int]float64 `json:"failAt,omitempty"`
	GroupSize    int             `json:"groupSize,omitempty"`
	InterEvery   int             `json:"interEvery,omitempty"`
	Parallelism  int             `json:"parallelism,omitempty"`
}

func toWire(o hadfl.Options) reqOptions {
	return reqOptions{
		Powers:       o.Powers,
		Model:        o.Model,
		Full:         o.Full,
		TargetEpochs: o.TargetEpochs,
		NonIIDAlpha:  o.NonIIDAlpha,
		Seed:         o.Seed,
		FailAt:       o.FailAt,
		GroupSize:    o.GroupSize,
		InterEvery:   o.InterEvery,
		Parallelism:  o.Parallelism,
	}
}

func (o reqOptions) toOptions() hadfl.Options {
	return hadfl.Options{
		Powers:       o.Powers,
		Model:        o.Model,
		Full:         o.Full,
		TargetEpochs: o.TargetEpochs,
		NonIIDAlpha:  o.NonIIDAlpha,
		Seed:         o.Seed,
		FailAt:       o.FailAt,
		GroupSize:    o.GroupSize,
		InterEvery:   o.InterEvery,
		Parallelism:  o.Parallelism,
	}
}

// requestBody asks a worker to execute one run.
type requestBody struct {
	// Token is the dispatcher instance's random identity. Workers key
	// in-flight runs by (sender, token, sequence), so a restarted or
	// second serve process — whose sequence numbers restart at 1 and
	// whose transport may reuse node id 0 — can neither collide with
	// nor cancel another instance's runs.
	Token  string `json:"token"`
	JobID  string `json:"jobID"` // hadfl.Fingerprint(scheme, options); the worker re-derives and verifies it
	Scheme string `json:"scheme"`
	// DeadlineSec, when > 0, is the remaining wall budget at send time.
	// The worker applies it as its own context deadline, so a run whose
	// dispatcher vanishes still stops on schedule (a relative duration
	// survives clock skew; the cancel frame remains the primary path).
	DeadlineSec float64    `json:"deadlineSec,omitempty"`
	Options     reqOptions `json:"options"`
	// Codec names the parameter wire codec the worker should encode the
	// final parameter vector with (chosen from the worker's advertised
	// list). A worker that does not recognize the name encodes with
	// raw64.
	Codec string `json:"codec,omitempty"`
	// Trace carries the dispatcher's span context so the worker's spans
	// join the same trace (see wireTrace). Tracing is passive: this field
	// never influences execution, and the byte-determinism oracle ignores
	// it.
	Trace *wireTrace `json:"trace,omitempty"`
}

// wireTrace propagates trace context across the dispatch protocol. On a
// request it carries the dispatcher-side parent span (TraceID + SpanID);
// on a terminal result/error frame it carries the spans the worker
// recorded for the run, so the dispatcher can stitch them into its own
// ring and GET /debug/traces shows one trace spanning both processes.
type wireTrace struct {
	TraceID string           `json:"traceID,omitempty"`
	SpanID  string           `json:"spanID,omitempty"`
	Spans   []trace.SpanData `json:"spans,omitempty"`
}

// spanContext rebuilds the propagated parent span context (zero when t
// is nil or carries no IDs — trace.Start then mints a fresh root).
func (t *wireTrace) spanContext() trace.SpanContext {
	if t == nil {
		return trace.SpanContext{}
	}
	return trace.SpanContext{TraceID: t.TraceID, SpanID: t.SpanID}
}

// cancelBody aborts one in-flight run; Token must match the request
// that started it (see requestBody.Token).
type cancelBody struct {
	Token string `json:"token"`
}

// roundBody is per-round telemetry streamed back while a run executes.
// Token echoes the originating request's instance token (as on every
// worker → dispatcher frame about a run): the dispatcher drops frames
// whose token is not its own, so it can never adopt a round — or a
// result — belonging to a predecessor instance's orphaned run whose
// (worker, sequence) pair collides with one of its own.
type roundBody struct {
	Token    string  `json:"token,omitempty"`
	Round    int     `json:"round"`
	Time     float64 `json:"time"`
	Loss     float64 `json:"loss"`
	Accuracy float64 `json:"accuracy"`
	Selected []int   `json:"selected,omitempty"`
	Bypassed int     `json:"bypassed,omitempty"`
}

// paramRefInit is the ParamRef value naming the run's deterministic
// initial parameter vector — both ends derive it independently with
// hadfl.InitialParams, so reference-based codecs never ship it.
const paramRefInit = "init"

// resultBody is the JSON section of a terminal success: with the
// binary parameter section beside it (see encodeSplitBody), everything
// needed to rebuild the hadfl.Result the run would have produced
// locally.
type resultBody struct {
	Token       string          `json:"token,omitempty"` // echoes requestBody.Token, see roundBody
	Scheme      string          `json:"scheme"`
	Accuracy    float64         `json:"accuracy"`
	Time        float64         `json:"time"`
	Rounds      int             `json:"rounds"`
	DeviceBytes int64           `json:"deviceBytes"`
	ServerBytes int64           `json:"serverBytes"`
	EvalBatches int64           `json:"evalBatches,omitempty"`
	EvalSeconds float64         `json:"evalSeconds,omitempty"`
	CurveName   string          `json:"curveName,omitempty"`
	Curve       []metrics.Point `json:"curve,omitempty"`
	// ParamCodec names the codec that encoded the binary parameter
	// section.
	ParamCodec string `json:"paramCodec"`
	// ParamCount is the encoded vector's length; the receiver validates
	// it before allocating. 0 means no parameters (decoded as nil).
	ParamCount int `json:"paramCount,omitempty"`
	// ParamExact reports the codec's exactness bit for this encode: true
	// means the decoded vector is bit-identical to the worker's.
	ParamExact bool `json:"paramExact,omitempty"`
	// ParamRef names the reference vector the codec encoded against:
	// paramRefInit for the run's deterministic initial model (the
	// receiver re-derives it from the job options), empty for none.
	ParamRef string `json:"paramRef,omitempty"`
	// Trace ships the worker-side spans home (see wireTrace). Excluded
	// from the byte-determinism oracle, which compares rebuilt
	// hadfl.Result values, never raw frames.
	Trace *wireTrace `json:"trace,omitempty"`
}

func toResultBody(res *hadfl.Result) resultBody {
	b := resultBody{
		Scheme:      res.Scheme,
		Accuracy:    res.Accuracy,
		Time:        res.Time,
		Rounds:      res.Rounds,
		DeviceBytes: res.DeviceBytes,
		ServerBytes: res.ServerBytes,
		EvalBatches: res.EvalBatches,
		EvalSeconds: res.EvalSeconds,
	}
	if res.Series != nil {
		b.CurveName = res.Series.Name
		b.Curve = res.Series.Points
	}
	return b
}

// toResult rebuilds the run's result around its decoded parameters.
func (b resultBody) toResult(params []float64) *hadfl.Result {
	return &hadfl.Result{
		Scheme:      b.Scheme,
		Accuracy:    b.Accuracy,
		Time:        b.Time,
		Rounds:      b.Rounds,
		DeviceBytes: b.DeviceBytes,
		ServerBytes: b.ServerBytes,
		EvalBatches: b.EvalBatches,
		EvalSeconds: b.EvalSeconds,
		Series:      &metrics.Series{Name: b.CurveName, Points: b.Curve},
		FinalParams: params,
	}
}

// errorBody is a terminal failure. Busy marks a capacity rejection
// (retryable elsewhere); Canceled/Timeout mirror the context error the
// worker's run returned, so the dispatcher can rebuild an errors.Is-
// compatible error on its side of the wire. Token echoes the request's
// instance token; it is empty only when the worker could not decode
// the request at all (the dispatcher treats such unattributable
// rejections of a pending sequence as transient).
type errorBody struct {
	Token    string `json:"token,omitempty"`
	Message  string `json:"message"`
	Canceled bool   `json:"canceled,omitempty"`
	Timeout  bool   `json:"timeout,omitempty"`
	Busy     bool   `json:"busy,omitempty"`
	// Trace ships the worker-side spans home even on failure, so an
	// errored run's trace still shows where the time went.
	Trace *wireTrace `json:"trace,omitempty"`
}

// sendFrame JSON-encodes body into a dispatch frame and sends it. A
// frame that cannot be built (oversized body) or sent surfaces as an
// error; transports treat unreachable peers as timeouts, not errors,
// so an error here means a local/structural problem.
func sendFrame(t p2p.Transport, kind p2p.Kind, to, seq int, body any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("dispatch: encode %v: %w", kind, err)
	}
	m, err := p2p.NewDispatchFrame(kind, to, seq, data)
	if err != nil {
		return fmt.Errorf("dispatch: frame %v: %w", kind, err)
	}
	return t.Send(m)
}

// decodeBody validates a dispatch frame and unmarshals its JSON body.
func decodeBody(m p2p.Message, into any) error {
	data, err := p2p.DispatchBody(m)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("dispatch: decode %v body: %w", m.Kind, err)
	}
	return nil
}

// Split bodies: a terminal result body is not plain JSON but a
// two-section container —
//
//	uint32 jsonLen (LE) | jsonLen bytes of JSON | param section
//
// so the multi-megabyte parameter vector ships as the codec's compact
// binary section instead of base-10 JSON text. Every result body is
// split and every other body is plain JSON: receivers decode by frame
// kind.

// encodeSplitBody frames a JSON section and a binary parameter section
// into one split body.
func encodeSplitBody(jsonData, paramData []byte) []byte {
	out := make([]byte, 0, 4+len(jsonData)+len(paramData))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(jsonData)))
	out = append(out, jsonData...)
	return append(out, paramData...)
}

// decodeSplitBody separates a result body into its JSON and parameter
// sections.
func decodeSplitBody(body []byte) (jsonData, paramData []byte, err error) {
	if len(body) < 4 {
		return nil, nil, fmt.Errorf("dispatch: split body is %d bytes, shorter than its length prefix", len(body))
	}
	n := uint64(binary.LittleEndian.Uint32(body))
	rest := body[4:]
	if n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("dispatch: split body claims %d JSON bytes, has %d", n, len(rest))
	}
	return rest[:n], rest[n:], nil
}
