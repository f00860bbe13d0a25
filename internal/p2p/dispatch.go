package p2p

import "fmt"

// Dispatch frames: the serve layer's remote-execution plane rides on
// the same Transport and Message codec as the training data plane, so
// every existing transport (ChanHub for in-process simulated networks,
// TCPNode for real deployments) carries dispatch traffic unchanged.
//
// A dispatch frame is a Message whose Kind is one of the KindDispatch*
// values and whose opaque body (JSON, or a result's split body, at the
// protocol layer above) travels as the Message's raw byte Body:
//
//	Version — DispatchVersion, the one dispatch protocol version
//	          (receivers reject any other rather than guessing at
//	          layouts)
//	Round   — the dispatcher-assigned sequence number identifying the
//	          in-flight run the frame belongs to
//	Chunk   — 0, or the chunk index / count of a chunk stream (chunk.go)
//	Payload — empty
//	Body    — the protocol body, at most MaxDispatchBody bytes
//
// DispatchBody is the single validating decoder: malformed, truncated
// or oversized frames return errors, never panic — the fuzz targets in
// fuzz_test.go pin that contract.

// DispatchVersion is the dispatch protocol version stamped on every
// frame. Bump it on any incompatible body or layout change; receivers
// reject other versions with ErrDispatchVersion.
const DispatchVersion = 2

// MaxDispatchBody bounds the body of a single dispatch frame (16 MiB).
// It is a per-frame (equivalently per-chunk) bound, not a ceiling on a
// logical body: result bodies run to 8 bytes per model parameter under
// raw64, and bodies larger than one frame travel as a chunk stream (see chunk.go),
// so model size is not capped here. The bound exists so a corrupt
// length field in any one frame cannot demand an absurd allocation.
const MaxDispatchBody = 16 << 20

// ErrDispatchVersion reports a frame from an incompatible protocol
// version.
var ErrDispatchVersion = fmt.Errorf("p2p: dispatch protocol version mismatch (want %d)", DispatchVersion)

// IsDispatchKind reports whether k belongs to the dispatch plane.
func IsDispatchKind(k Kind) bool {
	switch k {
	case KindDispatchHello, KindDispatchRequest, KindDispatchRound,
		KindDispatchResult, KindDispatchError, KindDispatchCancel,
		KindDispatchChunk:
		return true
	}
	return false
}

// NewDispatchFrame builds a dispatch-plane message: kind must be a
// KindDispatch* value, seq identifies the in-flight run, and body is
// the opaque protocol payload (the sender's transport fills From).
func NewDispatchFrame(kind Kind, to, seq int, body []byte) (Message, error) {
	if !IsDispatchKind(kind) {
		return Message{}, fmt.Errorf("p2p: %v is not a dispatch kind", kind)
	}
	if len(body) > MaxDispatchBody {
		return Message{}, fmt.Errorf("p2p: dispatch body %d bytes exceeds cap %d", len(body), MaxDispatchBody)
	}
	return Message{
		Kind:    kind,
		To:      to,
		Round:   seq,
		Version: DispatchVersion,
		Body:    body,
	}, nil
}

// DispatchBody validates a dispatch frame and returns its body bytes.
// It errors on non-dispatch kinds, protocol version mismatches, a
// float64 payload (dispatch frames carry bytes only) and bodies past
// MaxDispatchBody; it never panics, whatever the frame contents
// (fuzzed in fuzz_test.go). The returned body aliases m.Body.
func DispatchBody(m Message) ([]byte, error) {
	if !IsDispatchKind(m.Kind) {
		return nil, fmt.Errorf("p2p: %v is not a dispatch kind", m.Kind)
	}
	if m.Version != DispatchVersion {
		return nil, fmt.Errorf("%w, frame has %v", ErrDispatchVersion, m.Version)
	}
	if len(m.Payload) != 0 {
		return nil, fmt.Errorf("p2p: dispatch frame carries %d payload words", len(m.Payload))
	}
	if len(m.Body) > MaxDispatchBody {
		return nil, fmt.Errorf("p2p: dispatch body %d bytes exceeds cap %d", len(m.Body), MaxDispatchBody)
	}
	return m.Body, nil
}
