package p2p

import (
	"math"
	"testing"
)

// TestCommModel pins the cost model's exact outputs, per-message header
// charge included, so a change to Message's wire encoding cannot move
// the virtual time every simulated scheme charges.
func TestCommModel(t *testing.T) {
	c := CommModel{Link: Link{Latency: 0.01, Bandwidth: 1e6}}
	for _, tc := range []struct {
		name      string
		got, want float64
	}{
		{"allreduce n=1 (free)", c.RingAllReduceTime(1, 1000), 0},
		{"allreduce n=4 80000B", c.RingAllReduceTime(4, 80000), 0.18019799999999997},
		{"allreduce n=2 80000B", c.RingAllReduceTime(2, 80000), 0.100066},
		{"allreduce n=5 3B (1-byte chunk floor)", c.RingAllReduceTime(5, 3), 0.080272},
		{"broadcast 0 targets (free)", c.BroadcastTime(0, 1000), 0},
		{"broadcast 1×80000B", c.BroadcastTime(1, 80000), 0.090033},
		{"broadcast 3×80000B", c.BroadcastTime(3, 80000), 0.270099},
	} {
		if math.Float64bits(tc.got) != math.Float64bits(tc.want) {
			t.Errorf("%s = %v, want exactly %v", tc.name, tc.got, tc.want)
		}
	}
}
