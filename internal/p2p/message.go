// Package p2p implements HADFL's decentralized data plane: the wire
// message format, the α–β communication cost model the simulated
// schemes charge to virtual time, an in-process and a real TCP
// transport for live deployments, the gossip-style ring
// scatter-gather all-reduce with the paper's fault-tolerant bypass
// protocol (§III-D), and the dispatch frames and parameter codecs the
// serve layer's remote-execution plane rides on.
package p2p

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Kind discriminates message types on the wire.
type Kind uint8

// Message kinds.
const (
	KindParams    Kind = iota + 1 // model parameter vector (or chunk)
	KindGradient                  // gradient vector (distributed baseline)
	KindBroadcast                 // aggregated model broadcast to unselected devices
	KindHeartbeat                 // liveness probe
	KindHandshake                 // §III-D: downstream confirms a suspected-dead peer
	KindAck                       // reply to heartbeat/handshake
	KindWarning                   // §III-D: notify upstream to bypass a dead peer
	KindReform                    // ring reformation announcement after a bypass
	KindReport                    // device → coordinator runtime report (version, timing)
	KindConfig                    // coordinator → device training configuration

	// Dispatch-plane kinds (serve → worker job shipping; see dispatch.go
	// for the frame layout and internal/serve/dispatch for the protocol).
	KindDispatchHello   // dispatcher ⇄ worker registration (body: helloBody)
	KindDispatchRequest // dispatcher → worker: execute a run (body: requestBody)
	KindDispatchRound   // worker → dispatcher: per-round telemetry
	KindDispatchResult  // worker → dispatcher: terminal success + result
	KindDispatchError   // worker → dispatcher: terminal failure
	KindDispatchCancel  // dispatcher → worker: abort the run for a sequence
	KindDispatchChunk   // one slice of a chunk-streamed dispatch body (see chunk.go)
)

func (k Kind) String() string {
	switch k {
	case KindParams:
		return "params"
	case KindGradient:
		return "gradient"
	case KindBroadcast:
		return "broadcast"
	case KindHeartbeat:
		return "heartbeat"
	case KindHandshake:
		return "handshake"
	case KindAck:
		return "ack"
	case KindWarning:
		return "warning"
	case KindReform:
		return "reform"
	case KindReport:
		return "report"
	case KindConfig:
		return "config"
	case KindDispatchHello:
		return "dispatch-hello"
	case KindDispatchRequest:
		return "dispatch-request"
	case KindDispatchRound:
		return "dispatch-round"
	case KindDispatchResult:
		return "dispatch-result"
	case KindDispatchError:
		return "dispatch-error"
	case KindDispatchCancel:
		return "dispatch-cancel"
	case KindDispatchChunk:
		return "dispatch-chunk"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Message is the unit of communication between devices (and between
// devices and the coordinator). Payload carries parameter/gradient data;
// Body carries opaque bytes (the dispatch plane's protocol bodies); Meta
// carries small integer fields whose meaning depends on Kind (e.g.
// chunk index for ring all-reduce, dead-device id for warnings).
//
// The wire encoding, little-endian:
//
//	kind u8 | from, to, round, chunk, meta i32 | version f64 |
//	payload len u32 | body len u32 | payload f64s | body bytes
type Message struct {
	Kind    Kind
	From    int
	To      int
	Round   int
	Chunk   int // chunk index within a ring all-reduce step
	Meta    int // kind-specific small field
	Version float64
	Payload []float64
	Body    []byte
}

const headerBytes = 1 + 4*5 + 8 + 4 + 4 // kind + 5 int32 + version + payload len + body len

// WireSize returns the encoded size in bytes.
func (m Message) WireSize() int {
	return headerBytes + 8*len(m.Payload) + len(m.Body)
}

// Marshal encodes the message into a self-delimiting byte slice.
func (m Message) Marshal() []byte {
	buf := make([]byte, m.WireSize())
	buf[0] = byte(m.Kind)
	off := 1
	for _, v := range []int{m.From, m.To, m.Round, m.Chunk, m.Meta} {
		binary.LittleEndian.PutUint32(buf[off:], uint32(int32(v)))
		off += 4
	}
	binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(m.Version))
	off += 8
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(m.Payload)))
	binary.LittleEndian.PutUint32(buf[off+4:], uint32(len(m.Body)))
	off += 8
	for _, v := range m.Payload {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	copy(buf[off:], m.Body)
	return buf
}

// Unmarshal decodes a message previously produced by Marshal. The
// decoded Body aliases buf; Payload is a fresh slice.
func Unmarshal(buf []byte) (Message, error) {
	if len(buf) < headerBytes {
		return Message{}, fmt.Errorf("p2p: message too short: %d bytes", len(buf))
	}
	var m Message
	m.Kind = Kind(buf[0])
	off := 1
	ints := make([]int, 5)
	for i := range ints {
		ints[i] = int(int32(binary.LittleEndian.Uint32(buf[off:])))
		off += 4
	}
	m.From, m.To, m.Round, m.Chunk, m.Meta = ints[0], ints[1], ints[2], ints[3], ints[4]
	m.Version = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
	off += 8
	n := uint64(binary.LittleEndian.Uint32(buf[off:]))
	nb := uint64(binary.LittleEndian.Uint32(buf[off+4:]))
	off += 8
	if uint64(len(buf)) != uint64(off)+8*n+nb {
		return Message{}, fmt.Errorf("p2p: payload %d words + body %d bytes do not match buffer %d", n, nb, len(buf))
	}
	if n > 0 {
		m.Payload = make([]float64, n)
		for i := range m.Payload {
			m.Payload[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
	}
	if nb > 0 {
		m.Body = buf[off:]
	}
	return m, nil
}
