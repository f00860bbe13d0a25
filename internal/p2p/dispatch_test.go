package p2p

import (
	"bytes"
	"errors"
	"testing"
)

func TestDispatchFrameRoundTrip(t *testing.T) {
	bodies := [][]byte{
		nil,
		{},
		[]byte("x"),
		[]byte("seven77"),
		[]byte("eight888"),
		[]byte(`{"jobID":"abc","scheme":"hadfl"}`),
		bytes.Repeat([]byte{0xA5}, 1023),
	}
	for _, body := range bodies {
		m, err := NewDispatchFrame(KindDispatchRequest, 3, 42, body)
		if err != nil {
			t.Fatalf("NewDispatchFrame(%d bytes): %v", len(body), err)
		}
		if m.Round != 42 || m.To != 3 || m.Version != DispatchVersion || len(m.Payload) != 0 {
			t.Fatalf("frame header mangled: %+v", m)
		}
		// Through the wire codec, as every transport sends it.
		decoded, err := Unmarshal(m.Marshal())
		if err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		got, err := DispatchBody(decoded)
		if err != nil {
			t.Fatalf("DispatchBody(%d bytes): %v", len(body), err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("body round trip: got %q want %q", got, body)
		}
	}
}

func TestDispatchBodyRejects(t *testing.T) {
	good, err := NewDispatchFrame(KindDispatchResult, 1, 7, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}

	notDispatch := good
	notDispatch.Kind = KindParams
	if _, err := DispatchBody(notDispatch); err == nil {
		t.Error("non-dispatch kind accepted")
	}

	// Version 1 is the retired generation; any other version is refused
	// the same way.
	for _, v := range []float64{1, DispatchVersion + 1} {
		wrongVersion := good
		wrongVersion.Version = v
		if _, err := DispatchBody(wrongVersion); !errors.Is(err, ErrDispatchVersion) {
			t.Errorf("version %v: got %v, want ErrDispatchVersion", v, err)
		}
	}

	// Bytes smuggled into the float64 payload are a forged frame.
	words := good
	words.Payload = []float64{1}
	if _, err := DispatchBody(words); err == nil {
		t.Error("dispatch frame with payload words accepted")
	}

	oversized := good
	oversized.Body = make([]byte, MaxDispatchBody+1)
	if _, err := DispatchBody(oversized); err == nil {
		t.Error("oversized body accepted")
	}
}

func TestNewDispatchFrameRejects(t *testing.T) {
	if _, err := NewDispatchFrame(KindHeartbeat, 1, 1, nil); err == nil {
		t.Error("non-dispatch kind accepted")
	}
	if _, err := NewDispatchFrame(KindDispatchRound, 1, 1, make([]byte, MaxDispatchBody+1)); err == nil {
		t.Error("oversized body accepted")
	}
}

func TestIsDispatchKind(t *testing.T) {
	for _, k := range []Kind{KindDispatchHello, KindDispatchRequest, KindDispatchRound, KindDispatchResult, KindDispatchError, KindDispatchCancel} {
		if !IsDispatchKind(k) {
			t.Errorf("IsDispatchKind(%v) = false", k)
		}
	}
	for _, k := range []Kind{KindParams, KindHeartbeat, KindAck, Kind(0), Kind(255)} {
		if IsDispatchKind(k) {
			t.Errorf("IsDispatchKind(%v) = true", k)
		}
	}
}
