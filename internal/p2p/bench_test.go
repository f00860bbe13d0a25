package p2p

import (
	"sync"
	"testing"
	"time"
)

func BenchmarkMessageMarshal(b *testing.B) {
	m := Message{Kind: KindParams, From: 1, To: 2, Round: 3, Payload: make([]float64, 4096)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := m.Marshal()
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(m.WireSize()))
}

// BenchmarkSplitChunks pins the no-copy contract for chunk encoding:
// chunk bodies are sub-slices of the body, so a multi-chunk body costs
// one frame-slice allocation (plus the trailer), however many frames it
// spans.
func BenchmarkSplitChunks(b *testing.B) {
	body := make([]byte, 3*DispatchChunkBytes+12345)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SplitChunks(KindDispatchResult, 1, i, body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChunkRoundTrip measures the full split → reassemble → verify
// path a dispatched result body takes through the chunk layer.
func BenchmarkChunkRoundTrip(b *testing.B) {
	body := make([]byte, 2*DispatchChunkBytes+999)
	for i := range body {
		body[i] = byte(i)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frames, err := SplitChunks(KindDispatchResult, 1, i, body)
		if err != nil {
			b.Fatal(err)
		}
		var s ChunkStream
		for _, m := range frames[:len(frames)-1] {
			if err := s.Add(m); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Finish(frames[len(frames)-1]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRingAllReduce4(b *testing.B) {
	const n = 4
	vec := make([]float64, 4096)
	for i := range vec {
		vec[i] = float64(i)
	}
	opt := RingOptions{DataTimeout: 5 * time.Second, HandshakeTimeout: time.Second, MaxReforms: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hub := NewChanHub()
		ring := []int{0, 1, 2, 3}
		var wg sync.WaitGroup
		for _, id := range ring {
			id := id
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := RingAllReduce(hub.Node(id), ring, i, vec, opt); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	b.SetBytes(int64(8 * len(vec) * n))
}
