package p2p

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDispatchBody feeds arbitrary wire bytes through the message
// decoder into the dispatch-frame validator: malformed, truncated and
// oversized frames must be rejected with an error, never a panic, and
// an accepted body must survive a re-encode round trip.
func FuzzDispatchBody(f *testing.F) {
	seed, _ := NewDispatchFrame(KindDispatchRequest, 2, 9, []byte(`{"scheme":"hadfl"}`))
	f.Add(seed.Marshal())
	empty, _ := NewDispatchFrame(KindDispatchCancel, 1, 3, nil)
	f.Add(empty.Marshal())
	f.Add([]byte{byte(KindDispatchResult), 0, 1})
	// Body-length fields that overrun the buffer, underrun it, and
	// exceed the per-frame cap.
	for _, claim := range []uint32{4096, 3, MaxDispatchBody + 1} {
		f.Add(withBodyLen(seed.Marshal(), claim))
	}
	// A version-1 frame.
	old := seed
	old.Version = 1
	f.Add(old.Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		body, err := DispatchBody(m)
		if err != nil {
			return // rejected frames are fine; panics are not
		}
		if len(body) > MaxDispatchBody {
			t.Fatalf("accepted body of %d bytes past the %d cap", len(body), MaxDispatchBody)
		}
		re, err := NewDispatchFrame(m.Kind, m.To, m.Round, body)
		if err != nil {
			t.Fatalf("accepted body does not re-encode: %v", err)
		}
		back, err := DispatchBody(re)
		if err != nil || !bytes.Equal(back, body) {
			t.Fatalf("body round trip broke: %v", err)
		}
	})
}

// FuzzChunkReassembly drives the chunk-stream reassembler two ways:
// frames carrying arbitrary bodies must never panic it, and a stream
// legitimately split from the fuzzed body must reassemble to exactly
// that body — with any single-bit corruption of a chunk body caught by
// the trailer checksum.
func FuzzChunkReassembly(f *testing.F) {
	big := make([]byte, DispatchChunkBytes+99)
	for i := range big {
		big[i] = byte(i * 7)
	}
	f.Add(big[:300], uint16(0), byte(0))
	f.Add(big[:0], uint16(1), byte(1))
	f.Add([]byte("hello chunked world"), uint16(9), byte(3))
	// A real two-chunk stream, so the bit-flip property runs on seeds.
	f.Add(big, uint16(5), byte(3))
	f.Fuzz(func(t *testing.T, body []byte, flip uint16, arbitrary byte) {
		// Property 1: a legitimate split round-trips.
		frames, err := SplitChunks(KindDispatchResult, 1, 2, body)
		if err != nil {
			t.Fatalf("SplitChunks on a legal body: %v", err)
		}
		var s ChunkStream
		for _, m := range frames[:len(frames)-1] {
			if err := s.Add(m); err != nil {
				t.Fatalf("Add: %v", err)
			}
		}
		term := frames[len(frames)-1]
		var got []byte
		if term.Chunk == 0 {
			got, err = DispatchBody(term)
		} else {
			got, err = s.Finish(term)
		}
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("round trip broke: %v", err)
		}
		// Property 2: arbitrary frames never panic the reassembler.
		// Flip one bit of one chunk body at a fuzz-chosen position and
		// replay.
		if len(frames) > 1 {
			i := int(flip) % (len(frames) - 1)
			corrupt := frames[i]
			flipped := append([]byte(nil), corrupt.Body...)
			flipped[int(flip)%len(flipped)] ^= 1 << (arbitrary % 8)
			corrupt.Body = flipped
			var cs ChunkStream
			ok := true
			for j, m := range frames[:len(frames)-1] {
				if j == i {
					m = corrupt
				}
				if err := cs.Add(m); err != nil {
					ok = false
					break
				}
			}
			if ok {
				if _, err := cs.Finish(term); err == nil {
					t.Fatal("flipped body bit slipped past the checksum")
				}
			}
		}
		// Property 3: a hostile frame stream (fuzz bytes as chunk and
		// trailer bodies, fuzz-chosen chunk numbers) errors instead of
		// panicking.
		var hs ChunkStream
		_ = hs.Add(Message{Kind: KindDispatchChunk, Chunk: int(flip) % 2, Version: DispatchVersion, Body: body})
		_, _ = hs.Finish(Message{Kind: KindDispatchResult, Chunk: int(arbitrary), Version: DispatchVersion, Body: body})
	})
}

// FuzzCodecDecode feeds every registered parameter codec arbitrary
// section bytes, references and counts: malformed, truncated and
// oversized input must error, never panic — and the exactness bit must
// be honored: when Encode reports exact, Decode must reproduce the
// input vector bit for bit.
func FuzzCodecDecode(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{0, 0, 0, 0, 0, 0, 0, 64}, 1)
	f.Add([]byte{}, []byte{}, 0)
	f.Add(make([]byte, 64), make([]byte, 16), 8)
	f.Fuzz(func(t *testing.T, data []byte, refBytes []byte, count int) {
		ref := make([]float64, len(refBytes)/8)
		for i := range ref {
			ref[i] = math.Float64frombits(binary.LittleEndian.Uint64(refBytes[i*8:]))
		}
		for _, name := range ParamCodecNames() {
			codec, _ := ParamCodecByName(name)
			// Hostile decode: must not panic, must bound its output.
			if out, err := codec.Decode(data, ref, count); err == nil {
				if len(out) != count {
					t.Fatalf("%s: decoded %d params for count %d", name, len(out), count)
				}
			}
			// Encode → decode: the exactness contract. The fuzzed data
			// doubles as the input vector.
			params := make([]float64, len(data)/8)
			for i := range params {
				params[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
			}
			section, exact := codec.Encode(params, ref)
			out, err := codec.Decode(section, ref, len(params))
			if err != nil {
				t.Fatalf("%s: decode of own encoding failed: %v", name, err)
			}
			if exact {
				for i := range out {
					if math.Float64bits(out[i]) != math.Float64bits(params[i]) {
						t.Fatalf("%s: exactness bit set but [%d] %x != %x",
							name, i, math.Float64bits(out[i]), math.Float64bits(params[i]))
					}
				}
			}
		}
	})
}

// FuzzUnmarshal ensures the wire decoder never panics and that every
// successfully decoded message re-encodes to the same bytes (canonical
// round trip).
func FuzzUnmarshal(f *testing.F) {
	f.Add(Message{Kind: KindParams, From: 1, To: 2, Round: 3, Payload: []float64{1, 2}}.Marshal())
	f.Add(Message{Kind: KindHeartbeat}.Marshal())
	f.Add(Message{Kind: KindDispatchResult, Round: 4, Version: DispatchVersion, Body: []byte(`{"token":"t"}`)}.Marshal())
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	// Body-length fields that overrun the buffer, underrun it, and
	// exceed the per-frame cap.
	withBody := Message{Kind: KindParams, Payload: []float64{1}, Body: []byte("body")}.Marshal()
	for _, claim := range []uint32{5, 3, MaxDispatchBody + 1} {
		f.Add(withBodyLen(withBody, claim))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		re := m.Marshal()
		if !bytes.Equal(re, data) {
			t.Fatalf("decoded message re-encodes differently:\n in  %x\n out %x", data, re)
		}
	})
}

// withBodyLen returns a copy of an encoded message with its body-length
// field forged to claim.
func withBodyLen(wire []byte, claim uint32) []byte {
	forged := append([]byte(nil), wire...)
	binary.LittleEndian.PutUint32(forged[headerBytes-4:], claim)
	return forged
}
