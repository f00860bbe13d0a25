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
	const want = "9462b8db83529041f1d757b8a82833b1d0189cbc0fcdf2b550823635592db1c0"
	if got := paramsHash(res.FinalParams); got != want || len(res.FinalParams) != 5610 {
		t.Errorf("FinalParams (%d values) hash %s, want 5610 values hashing to %s", len(res.FinalParams), got, want)
	}
}

// TestGoldenConvRun pins one short seeded run per conv-profile model to
// its round count and a SHA-256 over the bits of its final parameters.
// These runs go through the im2col/col2im and GEMM kernels of the
// convolutional path, which TestGoldenHADFLRun (MLP profile) never
// reaches, so a kernel change that moves any trained value fails here.
// TargetEpochs 1 is the shortest target that completes a round.
func TestGoldenConvRun(t *testing.T) {
	for _, tc := range []struct {
		model  string
		rounds int
		n      int
		hash   string
	}{
		{"resnet", 1, 10250, "01ef3f4ceb05a92c5413f0058a00a60747c32690d6569d5898d96728f01fdf62"},
		{"vgg", 1, 9298, "293c802e1e2a4cc7d6e20bd76b698a6de7348ca14d02b19399a733bec4fa82c8"},
	} {
		t.Run(tc.model, func(t *testing.T) {
			res, err := RunContext(context.Background(), SchemeHADFL, Options{
				Powers: []float64{4, 2, 2, 1}, Model: tc.model, Full: true, TargetEpochs: 1, Seed: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rounds != tc.rounds {
				t.Errorf("Rounds = %d, want %d", res.Rounds, tc.rounds)
			}
			if got := paramsHash(res.FinalParams); got != tc.hash || len(res.FinalParams) != tc.n {
				t.Errorf("FinalParams (%d values) hash %s, want %d values hashing to %s", len(res.FinalParams), got, tc.n, tc.hash)
			}
		})
	}
}

// paramsHash returns the hex SHA-256 over the little-endian bits of p.
func paramsHash(p []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range p {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
