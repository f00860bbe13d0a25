package p2p

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMessageRoundTrip(t *testing.T) {
	m := Message{
		Kind: KindParams, From: 3, To: 7, Round: 42, Chunk: 2, Meta: -1,
		Version: 13.5, Payload: []float64{1.5, -2.25, math.Pi}, Body: []byte("raw bytes"),
	}
	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != m.Kind || got.From != m.From || got.To != m.To ||
		got.Round != m.Round || got.Chunk != m.Chunk || got.Meta != m.Meta ||
		got.Version != m.Version {
		t.Fatalf("header mismatch: %+v vs %+v", got, m)
	}
	for i := range m.Payload {
		if got.Payload[i] != m.Payload[i] {
			t.Fatalf("payload mismatch at %d", i)
		}
	}
	if !bytes.Equal(got.Body, m.Body) {
		t.Fatalf("body %q, want %q", got.Body, m.Body)
	}
}

func TestMessageEmptyPayload(t *testing.T) {
	m := Message{Kind: KindHeartbeat, From: 1, To: 2}
	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Payload != nil || got.Body != nil {
		t.Fatalf("payload %v body %v, want both nil", got.Payload, got.Body)
	}
}

func TestUnmarshalRejectsTruncated(t *testing.T) {
	m := Message{Kind: KindParams, Payload: []float64{1, 2, 3}, Body: []byte("tail")}
	buf := m.Marshal()
	for _, cut := range []int{0, 5, headerBytes - 1, headerBytes + 8, len(buf) - 1} {
		if _, err := Unmarshal(buf[:cut]); err == nil {
			t.Errorf("truncation to %d bytes did not error", cut)
		}
	}
	// Extra bytes also rejected.
	if _, err := Unmarshal(append(buf, 0)); err == nil {
		t.Error("trailing garbage did not error")
	}
}

// TestUnmarshalRejectsBodyLengthMismatch forges the body-length field:
// a claim that overruns the buffer, one that underruns it, and one far
// past any frame bound must all be rejected before any allocation.
func TestUnmarshalRejectsBodyLengthMismatch(t *testing.T) {
	buf := Message{Kind: KindDispatchResult, Body: []byte("0123456789")}.Marshal()
	for _, claim := range []uint32{11, 9, 0, MaxDispatchBody + 1, math.MaxUint32} {
		if _, err := Unmarshal(withBodyLen(buf, claim)); err == nil {
			t.Errorf("body length %d over a 10-byte body accepted", claim)
		}
	}
}

func TestWireSizeMatchesMarshal(t *testing.T) {
	m := Message{Kind: KindParams, Payload: make([]float64, 17), Body: make([]byte, 5)}
	if m.WireSize() != len(m.Marshal()) {
		t.Fatalf("WireSize %d vs Marshal %d", m.WireSize(), len(m.Marshal()))
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{KindParams, KindGradient, KindBroadcast, KindHeartbeat,
		KindHandshake, KindAck, KindWarning, KindReform, KindReport, KindConfig, Kind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatalf("empty String for kind %d", k)
		}
	}
}

// Property: Marshal/Unmarshal is the identity for random messages,
// including negative ints and special floats.
func TestPropertyMessageRoundTrip(t *testing.T) {
	f := func(seed int64, kRaw uint8, from, to, round, chunk, meta int32, version float64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		if math.IsNaN(version) {
			version = 0
		}
		m := Message{
			Kind: Kind(kRaw%10 + 1), From: int(from), To: int(to),
			Round: int(round), Chunk: int(chunk), Meta: int(meta), Version: version,
			Payload: make([]float64, int(nRaw%64)),
			Body:    make([]byte, int(nRaw%13)),
		}
		rng.Read(m.Body)
		for i := range m.Payload {
			m.Payload[i] = rng.NormFloat64() * 1e6
		}
		got, err := Unmarshal(m.Marshal())
		if err != nil {
			return false
		}
		if got.Kind != m.Kind || got.From != m.From || got.To != m.To ||
			got.Round != m.Round || got.Chunk != m.Chunk || got.Meta != m.Meta ||
			got.Version != m.Version || len(got.Payload) != len(m.Payload) ||
			!bytes.Equal(got.Body, m.Body) {
			return false
		}
		for i := range m.Payload {
			if got.Payload[i] != m.Payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
