package main

import (
	"sync/atomic"
	"time"
)

// tracker is the state the generator and the sink share: which
// sequence numbers arrived, what was wrong with the rest, and — during
// an open-loop phase — when each packet arrived. The sink may run on
// any goroutine, so everything it writes is atomic.
type tracker struct {
	tr   traffic
	base time.Time

	delivered []uint64 // bitmap over sequence numbers

	arrivals  atomic.Uint64 // every datagram the sink saw
	good      atomic.Uint64 // first correct delivery of a sequence number
	dup       atomic.Uint64
	corrupt   atomic.Uint64
	misrouted atomic.Uint64
	stray     atomic.Uint64 // sequence number outside the bitmap
	probes    atomic.Uint64 // set-up probes delivered

	// open is the open-loop phase in progress, nil outside one.
	open atomic.Pointer[openPhase]
	// st holds per-packet stage stamps in the traced phase, nil
	// otherwise.
	st atomic.Pointer[stamps]
}

func newTracker(tr traffic, seqCap uint64) *tracker {
	return &tracker{
		tr: tr, base: time.Now(), delivered: make([]uint64, (seqCap+63)/64),
	}
}

// now is nanoseconds since the tracker's base on the monotonic clock.
func (t *tracker) now() int64 { return int64(time.Since(t.base)) }

func (t *tracker) capacity() uint64 { return uint64(len(t.delivered)) * 64 }

func (t *tracker) isDelivered(seq uint64) bool {
	return atomic.LoadUint64(&t.delivered[seq/64])&(1<<(seq%64)) != 0
}

// deliver records one datagram leaving the router on interface egress.
func (t *tracker) deliver(b []byte, egress int32) {
	at := t.now()
	outcome, seq := verify(b, t.tr, egress)
	if outcome == pktGood && seq == probeSeq {
		t.probes.Add(1)
		return
	}
	t.arrivals.Add(1)
	switch {
	case outcome == pktCorrupt:
		t.corrupt.Add(1)
		return
	case outcome == pktMisrouted:
		t.misrouted.Add(1)
		return
	case seq >= t.capacity():
		t.stray.Add(1)
		return
	}
	bit := uint64(1) << (seq % 64)
	if atomic.OrUint64(&t.delivered[seq/64], bit)&bit != 0 {
		t.dup.Add(1)
		return
	}
	t.good.Add(1)
	if ph := t.open.Load(); ph != nil && seq >= ph.start && seq < ph.start+uint64(len(ph.arrive)) {
		atomic.StoreInt64(&ph.arrive[seq-ph.start], at)
	}
	if st := t.st.Load(); st != nil {
		st.mark(seq, stSinkIn, at)
		st.mark(seq, stSinkOut, t.now())
	}
}

// openPhase is one open-loop measurement: packet start+i is due at
// t0 + i*period and arrive[i] is its arrival time (0 = not arrived).
type openPhase struct {
	start  uint64
	t0     int64
	period float64
	arrive []int64
}

func (ph *openPhase) due(i int) int64 { return ph.t0 + int64(float64(i)*ph.period) }

// Stage stamps of one traced packet, in path order.
const (
	stInjectIn  = iota // generator calls Inject (or the socket write)
	stInjectOut        // the call returned
	stGateIn           // the sched-gate wrapper is entered
	stGateOut          // the wrapped instance returned
	stSinkIn           // the sink saw the datagram
	stSinkOut          // the sink finished verifying it
	numStages
)

// stamps holds stage times for packets start..start+n-1.
type stamps struct {
	start uint64
	t     [numStages][]int64
}

func newStamps(start uint64, n int) *stamps {
	s := &stamps{start: start}
	for i := range s.t {
		s.t[i] = make([]int64, n)
	}
	return s
}

func (s *stamps) mark(seq uint64, stage int, at int64) {
	if seq < s.start || seq-s.start >= uint64(len(s.t[stage])) {
		return
	}
	atomic.StoreInt64(&s.t[stage][seq-s.start], at)
}
