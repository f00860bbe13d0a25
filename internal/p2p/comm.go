package p2p

// Link models one directed connection's latency and bandwidth.
type Link struct {
	Latency   float64 // seconds added to every message
	Bandwidth float64 // bytes/second; 0 = infinite
}

// TransferTime returns how long a message of size bytes occupies the link.
func (l Link) TransferTime(bytes int) float64 {
	t := l.Latency
	if l.Bandwidth > 0 {
		t += float64(bytes) / l.Bandwidth
	}
	return t
}

// commHeaderBytes is the per-message overhead the cost model charges
// on top of the vector bytes. It is a constant of the model, not the
// size of Message's wire header: virtual time, rounds and curves must
// not move when the encoding does.
const commHeaderBytes = 33

// CommModel provides the analytic communication-time formulas the
// simulation engine charges for collective operations. They follow the
// standard α–β cost model on a ring.
type CommModel struct {
	Link Link
}

// RingAllReduceTime returns the duration of a Horovod-style ring
// all-reduce of vecBytes bytes across n nodes: 2(n−1) steps, each moving
// vecBytes/n per node.
func (c CommModel) RingAllReduceTime(n, vecBytes int) float64 {
	if n <= 1 {
		return 0
	}
	chunk := vecBytes / n
	if chunk < 1 {
		chunk = 1
	}
	per := c.Link.TransferTime(chunk + commHeaderBytes)
	return float64(2*(n-1)) * per
}

// BroadcastTime returns the duration for one node to send vecBytes to
// each of targets receivers sequentially (the paper's non-blocking
// broadcast overlaps with compute on the receiving side, but the sender
// still serializes onto its NIC).
func (c CommModel) BroadcastTime(targets, vecBytes int) float64 {
	if targets <= 0 {
		return 0
	}
	return float64(targets) * c.Link.TransferTime(vecBytes+commHeaderBytes)
}
