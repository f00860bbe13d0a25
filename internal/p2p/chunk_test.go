package p2p

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// reassemble routes a SplitChunks frame sequence through a ChunkStream
// the way a receiver would: chunks through Add, the terminal through
// Finish (or DispatchBody when the stream is monolithic).
func reassemble(t *testing.T, frames []Message) []byte {
	t.Helper()
	var s ChunkStream
	for _, m := range frames[:len(frames)-1] {
		if err := s.Add(m); err != nil {
			t.Fatalf("Add chunk %d: %v", m.Chunk, err)
		}
	}
	term := frames[len(frames)-1]
	if term.Chunk == 0 {
		body, err := DispatchBody(term)
		if err != nil {
			t.Fatalf("monolithic body: %v", err)
		}
		return body
	}
	body, err := s.Finish(term)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return body
}

func TestSplitChunksRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 11, DispatchChunkBytes, DispatchChunkBytes + 1,
		2*DispatchChunkBytes + 12345} {
		body := make([]byte, n)
		rng.Read(body)
		frames, err := SplitChunks(KindDispatchResult, 3, 7, body)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		wantChunks := ChunkCount(n)
		if len(frames) != wantChunks+1 && !(wantChunks == 0 && len(frames) == 1) {
			t.Fatalf("n=%d: %d frames, want %d chunks + terminal", n, len(frames), wantChunks)
		}
		for _, m := range frames {
			if m.Round != 7 || m.To != 3 {
				t.Fatalf("n=%d: frame routing fields %+v", n, m)
			}
			if len(m.Body) > MaxDispatchBody || len(m.Payload) != 0 {
				t.Fatalf("n=%d: frame breaches the per-frame body bound", n)
			}
		}
		if got := reassemble(t, frames); !bytes.Equal(got, body) {
			t.Fatalf("n=%d: reassembled body differs", n)
		}
	}
}

func TestSplitChunksSingleAllocation(t *testing.T) {
	body := make([]byte, 3*DispatchChunkBytes/2)
	frames, err := SplitChunks(KindDispatchResult, 1, 1, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 { // 2 chunks + terminal
		t.Fatalf("%d frames, want 3", len(frames))
	}
	// Chunk bodies are sub-slices of the body itself — splitting copies
	// no body bytes — and capped so no chunk can append into the next.
	a, b := frames[0].Body, frames[1].Body
	if &a[0] != &body[0] || &b[0] != &body[DispatchChunkBytes] || cap(a) != len(a) {
		t.Fatal("chunk bodies do not alias the body")
	}
}

func TestChunkStreamRejectsCorruption(t *testing.T) {
	body := make([]byte, DispatchChunkBytes+100)
	for i := range body {
		body[i] = byte(i)
	}
	fresh := func() []Message {
		frames, err := SplitChunks(KindDispatchError, 1, 5, body)
		if err != nil {
			t.Fatal(err)
		}
		return frames
	}

	t.Run("out of order", func(t *testing.T) {
		frames := fresh()
		var s ChunkStream
		if err := s.Add(frames[1]); err == nil || !strings.Contains(err.Error(), "out of order") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("wrong count", func(t *testing.T) {
		frames := fresh()
		var s ChunkStream
		if err := s.Add(frames[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Finish(frames[2]); err == nil {
			t.Fatal("terminal accepted with a missing chunk")
		}
	})
	t.Run("flipped byte", func(t *testing.T) {
		frames := fresh()
		var s ChunkStream
		corrupt := frames[0]
		flipped := append([]byte(nil), corrupt.Body...)
		flipped[0] ^= 0xFF
		corrupt.Body = flipped
		if err := s.Add(corrupt); err != nil {
			t.Fatal(err) // per-chunk framing is still valid
		}
		if err := s.Add(frames[1]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Finish(frames[2]); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("corrupted stream passed Finish: %v", err)
		}
	})
	t.Run("monolithic terminal never finishes", func(t *testing.T) {
		var s ChunkStream
		m, err := NewDispatchFrame(KindDispatchResult, 1, 5, make([]byte, chunkTrailerLen))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Finish(m); err == nil {
			t.Fatal("Chunk=0 terminal accepted as a stream trailer")
		}
	})
}

func TestSplitChunksRejectsOversizedStream(t *testing.T) {
	// Fabricate the length without allocating a gigabyte: SplitChunks
	// checks len(body) first.
	defer func() {
		if recover() != nil {
			t.Fatal("oversized body panicked")
		}
	}()
	if _, err := SplitChunks(KindDispatchResult, 1, 1, make([]byte, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := SplitChunks(KindDispatchChunk, 1, 1, []byte("x")); err == nil {
		t.Fatal("chunk kind accepted as stream terminal")
	}
}
