package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs (q in [0,1]) by linear
// interpolation between closest ranks, the same estimator as numpy's
// default and Python's statistics.quantiles(method="inclusive"). xs is
// not modified; an empty slice reports 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// rungResult is one step of a rate ladder as measured: the offered
// rate, the latencies of the operations scheduled in it, and the
// evidence for whether the system kept up.
type rungResult struct {
	Rate      float64 `json:"rate"`
	Ops       int     `json:"ops"`
	Failed    int     `json:"failed"`
	P50ms     float64 `json:"p50_ms"`
	P90ms     float64 `json:"p90_ms"`
	P99ms     float64 `json:"p99_ms"`
	TailMs    float64 `json:"tail_ms"`     // the quantile the limit applies to
	LateEndMs float64 `json:"late_end_ms"` // p99 send lateness over the rung's last quarter
	Achieved  float64 `json:"achieved"`    // completed ops per second
	Pass      bool    `json:"pass"`
}

// judgeRung decides whether a rung passed: no failed operations, the
// tail latency within limit, and no growing backlog — operations due in
// the rung's last quarter were still being sent within the limit of
// their due time, so queued work was not piling up.
func judgeRung(r *rungResult, limitMs float64) {
	r.Pass = r.Ops > 0 && r.Failed == 0 && r.TailMs <= limitMs && r.LateEndMs <= limitMs
}

// goodput is the achieved rate of the highest rung that passed with
// every rung below it passing too; 0 when the first rung already
// failed.
func goodput(rungs []rungResult) float64 {
	best := 0.0
	for _, r := range rungs {
		if !r.Pass {
			break
		}
		best = r.Achieved
	}
	return best
}
