package hadfl

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// TestGoldenHADFLRun pins one short seeded run to exact values: its
// virtual time, its round count and a SHA-256 over the bits of its final
// parameters. Virtual time includes the α–β communication charges
// (ring all-reduce and broadcast), so a change to the cost model — or
// to anything it reads, such as a wire header size — fails here even
// when every "> 0" check elsewhere still passes.
func TestGoldenHADFLRun(t *testing.T) {
	res, err := RunContext(context.Background(), SchemeHADFL, Options{Powers: []float64{4, 2, 2, 1}, TargetEpochs: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := 36.040269544000004; math.Float64bits(res.Time) != math.Float64bits(want) {
		t.Errorf("Time = %v, want exactly %v", res.Time, want)
	}
	if res.Rounds != 2 {
		t.Errorf("Rounds = %d, want 2", res.Rounds)
	}
	h := sha256.New()
	var b [8]byte
	for _, v := range res.FinalParams {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	const want = "9462b8db83529041f1d757b8a82833b1d0189cbc0fcdf2b550823635592db1c0"
	if got := hex.EncodeToString(h.Sum(nil)); got != want || len(res.FinalParams) != 5610 {
		t.Errorf("FinalParams (%d values) hash %s, want 5610 values hashing to %s", len(res.FinalParams), got, want)
	}
}
