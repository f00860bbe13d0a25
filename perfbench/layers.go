package main

import (
	"math/rand"
	"time"

	"hadfl/internal/experiments"
	"hadfl/internal/nn"
	"hadfl/internal/p2p"
	"hadfl/internal/tensor"
)

// timeEach reports the median per-call time of f over reps batches of
// calls, each batch at least minBatch long.
func timeEach(reps int, minBatch time.Duration, f func()) time.Duration {
	f() // warm buffers
	n := 1
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(t) >= minBatch {
			break
		}
		n *= 2
	}
	var per []float64
	for r := 0; r < reps; r++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per = append(per, float64(time.Since(t))/float64(n))
	}
	return time.Duration(median(per))
}

// nnStepUs times one training step — Model.Forward, the fused softmax
// cross-entropy gradient and Model.Backward — of each workload
// architecture at its batch size, in microseconds.
func nnStepUs(seed int64) map[string]float64 {
	out := map[string]float64{}
	for _, a := range []struct {
		name string
		w    experiments.Workload
	}{
		{"nn.step_us.resnet_conv", experiments.ResNetWorkload(false, seed)},
		{"nn.step_us.vgg_conv", experiments.VGGWorkload(false, seed)},
		{"nn.step_us.resnet_mlp", experiments.ResNetWorkload(true, seed)},
		{"nn.step_us.vgg_mlp", experiments.VGGWorkload(true, seed)},
	} {
		rng := rand.New(rand.NewSource(seed))
		m := a.w.Arch(rng)
		idx := make([]int, a.w.BatchSize)
		for i := range idx {
			idx[i] = i
		}
		x, y := a.w.Train.Batch(idx)
		var grad *tensor.Tensor
		step := func() {
			logits := m.Forward(x, true)
			grad = tensor.Ensure(grad, logits.Dim(0), logits.Dim(1))
			nn.SoftmaxCrossEntropyInto(grad, logits, y)
			m.Backward(grad)
		}
		out[a.name] = us(timeEach(5, 20*time.Millisecond, step))
	}
	return out
}

// codecUs times the default dispatch parameter codec (raw64, what a
// worker negotiates unless configured otherwise) encoding and decoding
// a vector of n parameters, in microseconds.
func codecUs(n int, seed int64) (enc, dec float64) {
	c, ok := p2p.ParamCodecByName(p2p.ParamCodecRaw64)
	if !ok {
		return 0, 0
	}
	rng := rand.New(rand.NewSource(seed))
	params := make([]float64, n)
	for i := range params {
		params[i] = rng.NormFloat64()
	}
	data, _ := c.Encode(params, nil)
	enc = us(timeEach(5, 10*time.Millisecond, func() { c.Encode(params, nil) }))
	dec = us(timeEach(5, 10*time.Millisecond, func() { _, _ = c.Decode(data, nil, n) }))
	return enc, dec
}

// trainingLayers derives the hadfl- and eval-layer metrics from the
// runs the wrappers observed.
func trainingLayers(runs []runRec) map[string]float64 {
	var runMs, firstMs, roundMs, rounds, batches []float64
	var evalS, wallS float64
	for _, r := range runs {
		if r.Err != "" || r.WorkerEnd.IsZero() {
			continue
		}
		wall := r.WorkerEnd.Sub(r.WorkerStart)
		runMs = append(runMs, ms(wall))
		if !r.FirstRound.IsZero() {
			firstMs = append(firstMs, ms(r.FirstRound.Sub(r.WorkerStart)))
		}
		for _, g := range r.RoundGaps {
			roundMs = append(roundMs, ms(g))
		}
		rounds = append(rounds, float64(r.Rounds))
		batches = append(batches, float64(r.EvalBatches))
		evalS += r.EvalSeconds
		wallS += wall.Seconds()
	}
	out := map[string]float64{
		"hadfl.run_ms_p50":         median(runMs),
		"hadfl.first_round_ms_p50": median(firstMs),
		"hadfl.round_ms_p50":       median(roundMs),
		"hadfl.rounds_per_run":     mean(rounds),
		"eval.batches_per_run":     mean(batches),
	}
	if wallS > 0 {
		out["eval.share"] = evalS / wallS
	}
	return out
}

// addMicroLayers adds the layer micro-measurements: one nn training
// step per workload architecture and the wire codec at the workload's
// parameter count.
func addMicroLayers(layers map[string]float64, seed int64, params int) {
	for k, v := range nnStepUs(seed) {
		layers[k] = v
	}
	layers["p2p.encode_us"], layers["p2p.decode_us"] = codecUs(params, seed)
}

// fillAbsentLayers reports 0 for every per-layer metric the workload
// does not exercise.
func fillAbsentLayers(layers map[string]float64) {
	for _, d := range perLayer {
		if _, ok := layers[d.Name]; !ok {
			layers[d.Name] = 0
		}
	}
}
