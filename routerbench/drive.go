package main

import (
	"runtime"
	"syscall"
	"time"
)

// lossTimeout is how long the closed loop waits for a packet before it
// stops holding a window slot for it. The packet still counts as lost
// only if it has not arrived by the end-of-phase drain deadline.
const lossTimeout = 200 * time.Millisecond

// closedPoll is how long the closed loop pauses with its window full.
const closedPoll = 20 * time.Microsecond

// drainTimeout is the drain deadline after each phase.
const drainTimeout = 250 * time.Millisecond

// driver is the single generator goroutine: it builds each datagram,
// sends it, and issues route changes on their fixed schedule.
type driver struct {
	in   *inputs
	t    *tracker
	g    *rig
	send func([]byte) error
	buf  [dgramLen]byte

	start, seq uint64 // first and next sequence number
	sendErrs   uint64

	// Route churn: operation k is due at churnT0 + k*churnPeriod while
	// churnOn is set.
	churnOn     bool
	churnT0     int64
	churnK      int64
	churnPeriod int64
	churnLat    []int64 // ns per route-change call
	churnWin    []int   // the latency window each call fell in
	// window numbers the open-loop latency windows across segments: the
	// current one while a segment runs, the next one's between them.
	// winSteal is the CPU steal, in jiffies, counted during each.
	window    int
	winSteal  []uint64
	routeOps  uint64
	routeErrs uint64

	// Sampled by the traced run.
	ringMax, backlogMax int
}

func newDriver(in *inputs, t *tracker, g *rig, send func([]byte) error) *driver {
	return &driver{in: in, t: t, g: g, send: send, churnPeriod: int64(time.Second / churnHz)}
}

func (d *driver) maybeChurn(now int64) {
	if !d.churnOn || now < d.churnT0+d.churnK*d.churnPeriod {
		return
	}
	d.churnK++
	lat, err := d.g.churn()
	d.routeOps++
	if err != nil {
		d.routeErrs++
		return
	}
	d.churnLat = append(d.churnLat, int64(lat))
	d.churnWin = append(d.churnWin, d.window)
}

// sendOne sends the next packet; false once the sequence space of the
// run is used up.
func (d *driver) sendOne() bool {
	seq := d.seq
	if seq >= d.t.capacity() {
		return false
	}
	d.seq++
	f := d.in.traffic.flowOf(seq)
	b := writeDatagram(d.buf[:], d.in.traffic.key(f), seq, f)
	st := d.t.st.Load()
	if st != nil {
		st.mark(seq, stInjectIn, d.t.now())
	}
	err := d.send(b)
	if st != nil {
		st.mark(seq, stInjectOut, d.t.now())
		if n := d.g.ingress.RxLen(); n > d.ringMax {
			d.ringMax = n
		}
		if seq%64 == 0 {
			if n := d.g.drr.Backlog(); n > d.backlogMax {
				d.backlogMax = n
			}
		}
	}
	if err != nil {
		d.sendErrs++
	}
	return true
}

// closedResult is one closed-loop phase.
type closedResult struct {
	good       uint64
	kpps       []float64 // correct deliveries per sub-window
	allocBytes uint64
}

// closedLoop keeps window packets in flight for dur and returns
// deliveries per sub-window. With the window full the generator pauses
// in the kernel, as the open loop does, and looks again: parking on a
// signal from the sink would run the Go scheduler at every arrival,
// which fires the router's idle-sleep timer early and makes throughput
// follow the host's wake-up latency.
func (d *driver) closedLoop(dur time.Duration, windows int) closedResult {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start, errs0 := d.seq, d.sendErrs
	arr0, good0 := d.t.arrivals.Load(), d.t.good.Load()
	// cursor is the oldest packet of the phase not yet delivered. When
	// it has not moved for lossTimeout, that packet has been out at
	// least that long and stops holding a window slot.
	cursor, cursorAt := start, d.t.now()
	var timedOut uint64
	var res closedResult
	t0 := d.t.now()
	sub := int64(dur) / int64(windows)
	lastT, lastGood := t0, good0
	for {
		now := d.t.now()
		if now >= lastT+sub {
			g := d.t.good.Load()
			res.kpps = append(res.kpps, float64(g-lastGood)/float64(now-lastT)*1e6)
			lastT, lastGood = now, g
			if len(res.kpps) == windows {
				break
			}
		}
		inflight := int64(d.seq-start) - int64(d.t.arrivals.Load()-arr0) - int64(d.sendErrs-errs0) - int64(timedOut)
		if inflight < closedWindow {
			if !d.sendOne() {
				break
			}
			continue
		}
		moved := false
		for cursor < d.seq && d.t.isDelivered(cursor) {
			cursor++
			moved = true
		}
		if moved {
			cursorAt = now
		} else if cursor < d.seq && now-cursorAt > int64(lossTimeout) {
			timedOut++
			cursor++
			cursorAt = now
			continue
		}
		pause(int64(closedPoll))
	}
	res.good = d.t.good.Load() - good0
	runtime.ReadMemStats(&ms)
	res.allocBytes = ms.TotalAlloc - alloc0
	d.drain(start, arr0, errs0)
	return res
}

// openResult is one open-loop phase.
type openResult struct {
	lat    []int64 // ns from due time to arrival, delivered packets only
	latWin []int   // the latency window each of lat was sent in
	late   []int64 // ns the generator sent each packet after its due time
}

// openLoop offers packets at the fixed rate for dur. Each packet is due
// at a fixed time and is timed from then, so a stall in the router
// delays arrivals, not sends. Between packets the generator pauses in
// the kernel (see pause); how late it still ran is reported. With churn
// set, route changes run on their own fixed schedule meanwhile. Every
// latWindowSamples packets make a latency window, whose CPU steal is
// appended to d.winSteal.
func (d *driver) openLoop(dur time.Duration, churn bool) openResult {
	n := int(dur.Seconds() * offeredPPS)
	if rem := d.t.capacity() - d.seq; uint64(n) > rem {
		n = int(rem)
	}
	ph := &openPhase{start: d.seq, period: float64(time.Second) / offeredPPS, arrive: make([]int64, n)}
	res := openResult{late: make([]int64, 0, n)}
	start, errs0, arr0 := d.seq, d.sendErrs, d.t.arrivals.Load()
	ph.t0 = d.t.now() + int64(time.Millisecond)
	d.t.open.Store(ph)
	d.churnOn, d.churnT0, d.churnK = churn, d.t.now(), 0
	// stealAt[w] is the host's steal count when window w began.
	stealAt := make([]uint64, 0, n/latWindowSamples+2)
	first := d.window
	for i := 0; i < n; i++ {
		if i%latWindowSamples == 0 {
			s, _, _ := cpuTimes()
			stealAt = append(stealAt, s)
			d.window = first + i/latWindowSamples
		}
		due := ph.due(i)
		now := d.t.now()
		for now < due {
			d.maybeChurn(now)
			pause(min(due-now, int64(time.Millisecond)))
			now = d.t.now()
		}
		d.maybeChurn(now)
		res.late = append(res.late, now-due)
		d.sendOne()
	}
	d.churnOn = false
	s, _, _ := cpuTimes()
	stealAt = append(stealAt, s)
	d.drain(start, arr0, errs0)
	d.t.open.Store(nil)
	// Every window is reported, the last one possibly short.
	windows := len(stealAt) - 1
	for w := 0; w < windows; w++ {
		d.winSteal = append(d.winSteal, stealAt[w+1]-stealAt[w])
	}
	d.window = first + windows
	res.lat = make([]int64, 0, n)
	res.latWin = make([]int, 0, n)
	for i, a := range ph.arrive {
		if a != 0 {
			res.lat = append(res.lat, a-ph.due(i))
			res.latWin = append(res.latWin, first+i/latWindowSamples)
		}
	}
	return res
}

// fillRing sends bursts of one RX ring's worth of packets back to back,
// waiting for each, so the interface's lazily grown receive-buffer pool
// reaches its full depth before anything is measured: otherwise
// heap_mib would follow the deepest stall of each run. A burst fills
// the ring only if the router sleeps through it, so there are several.
// The wire workload's link preallocates its buffers, and a burst that
// size would overflow its socket, so it is skipped there.
func (d *driver) fillRing() {
	if d.in.wire {
		return
	}
	for range 8 {
		start, errs0, arr0 := d.seq, d.sendErrs, d.t.arrivals.Load()
		for i := 0; i < d.g.ingress.BufDepth()-1; i++ {
			d.sendOne()
		}
		d.drain(start, arr0, errs0)
	}
}

// drain waits until everything sent since start has arrived or failed
// to send, or the drain deadline passes.
func (d *driver) drain(start, arr0, errs0 uint64) {
	deadline := time.Now().Add(drainTimeout)
	for time.Now().Before(deadline) {
		if d.t.arrivals.Load()-arr0+d.sendErrs-errs0 >= d.seq-start {
			return
		}
		pause(int64(100 * time.Microsecond))
	}
}

// pause blocks the calling thread in nanosleep(2) for ns nanoseconds.
// The kernel's high-resolution timer wakes it within about 100µs. A
// time.Sleep would wake it only on the runtime's ~1 ms poller tick, a
// busy wait would take a CPU from the router, and a goroutine that
// keeps yielding to the scheduler fires the router's own idle-sleep
// timer early.
func pause(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the pause; the caller re-checks the clock
}
